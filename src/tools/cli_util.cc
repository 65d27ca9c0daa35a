#include "tools/cli_util.hh"

#include <initializer_list>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/logging.hh"

namespace sdsp
{

namespace
{

using Config = MachineConfig;
using Value = const std::string &;

/** Read @p value into @p field as a number in [@p min, @p max]; the
 *  error reads "bad <what>: <value>". */
template <typename Field>
std::string
readNumber(Field &field, Value value, const char *what,
           std::uint64_t min = 1, std::uint64_t max = kFieldMax<Field>)
{
    const auto number = parseNumber(value, min, max);
    if (!number)
        return std::string("bad ") + what + ": " + value;
    field = static_cast<Field>(*number);
    return "";
}

/** Read @p value into @p field as one of @p names; the error reads
 *  "unknown <what>: <value>". */
template <typename Enum>
std::string
readChoice(Enum &field, Value value, const char *what,
           std::initializer_list<std::pair<const char *, Enum>> names)
{
    for (const auto &[name, choice] : names) {
        if (value == name) {
            field = choice;
            return "";
        }
    }
    return std::string("unknown ") + what + ": " + value;
}

/** One machine flag: its usage line (the flag, the metavariable of its
 *  value or nullptr for a switch, and its help), and how the value is
 *  read, range-checked and stored in the field the flag sets. */
struct MachineFlag
{
    const char *flag;
    const char *metavar;
    const char *help;
    std::string (*apply)(Config &config, Value value);
};

/** The machine flags, in the order sdsp-run's usage lists them. */
const MachineFlag kMachineFlags[] = {
    {"-t", "N", "resident threads (default 4)", [](Config &c, Value v) {
         return readNumber(c.numThreads, v, "thread count", 1, 16);
     }},
    {"-f", "POLICY", "truerr|maskedrr|cswitch|adaptive|weightedrr",
     [](Config &c, Value v) {
         return readChoice(c.fetchPolicy, v, "fetch policy",
                           {{"truerr", FetchPolicy::TrueRoundRobin},
                            {"maskedrr", FetchPolicy::MaskedRoundRobin},
                            {"cswitch", FetchPolicy::ConditionalSwitch},
                            {"adaptive", FetchPolicy::Adaptive},
                            {"weightedrr",
                             FetchPolicy::WeightedRoundRobin}});
     }},
    {"-w", "W0,W1,...", "fetch weights for weightedrr",
     [](Config &c, Value v) {
         c.fetchWeights.clear();
         std::istringstream list(v);
         std::string item, error;
         while (error.empty() && std::getline(list, item, ','))
             error = readNumber(c.fetchWeights.emplace_back(), item,
                                "fetch weight");
         return error;
     }},
    {"-s", "N", "scheduling unit entries", [](Config &c, Value v) {
         return readNumber(c.suEntries, v, "SU size", 0);
     }},
    {"--commit", "MODE", "flexible|lowest", [](Config &c, Value v) {
         return readChoice(c.commitPolicy, v, "commit mode",
                           {{"flexible", CommitPolicy::FlexibleFourBlocks},
                            {"lowest", CommitPolicy::LowestBlockOnly}});
     }},
    {"--rename", "MODE", "full|scoreboard", [](Config &c, Value v) {
         return readChoice(c.renameScheme, v, "rename mode",
                           {{"full", RenameScheme::FullRenaming},
                            {"scoreboard", RenameScheme::Scoreboard1Bit}});
     }},
    {"--no-bypass", nullptr, "disable result bypassing",
     [](Config &c, Value) {
         c.bypassing = false;
         return std::string();
     }},
    {"--cache-ways", "N", "dcache associativity (1=direct)",
     [](Config &c, Value v) {
         return readNumber(c.dcache.ways, v, "way count");
     }},
    {"--cache-size", "BYTES", "dcache capacity", [](Config &c, Value v) {
         return readNumber(c.dcache.sizeBytes, v, "cache size", 0);
     }},
    {"--cache-partitions", "N", "per-thread cache partitions",
     [](Config &c, Value v) {
         return readNumber(c.dcache.partitions, v, "partition count");
     }},
    {"--btb-banks", "N", "private per-thread BTBs", [](Config &c, Value v) {
         return readNumber(c.btbBanks, v, "bank count");
     }},
    {"--finite-icache", nullptr, "model a finite I-cache",
     [](Config &c, Value) {
         c.perfectICache = false;
         return std::string();
     }},
    {"--max-cycles", "N", "simulation cap", [](Config &c, Value v) {
         return readNumber(c.maxCycles, v, "cycle cap");
     }},
};

} // namespace

std::optional<std::string>
parseMachineFlag(const std::vector<std::string> &args, std::size_t &i,
                 MachineConfig &config)
{
    for (const MachineFlag &flag : kMachineFlags) {
        if (args[i] != flag.flag)
            continue;
        if (!flag.metavar)
            return flag.apply(config, "");
        if (i + 1 >= args.size())
            return args[i] + " needs a value";
        return flag.apply(config, args[++i]);
    }
    return std::nullopt;
}

std::string
machineFlagUsage()
{
    std::string usage;
    for (const MachineFlag &flag : kMachineFlags) {
        std::string name = flag.flag;
        if (flag.metavar)
            name = name + " " + flag.metavar;
        usage += format("  %-20s %s\n", name.c_str(), flag.help);
    }
    return usage;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload *workload : allWorkloads())
        if (workload->name() == name)
            return workload;
    for (const Workload *workload : extensionWorkloads())
        if (workload->name() == name)
            return workload;
    return nullptr;
}

void
printWorkloadNames(std::ostream &out)
{
    for (const Workload *workload : allWorkloads())
        out << workload->name() << "\n";
    for (const Workload *workload : extensionWorkloads())
        out << workload->name() << "\n";
}

std::string
percentOf(std::uint64_t part, std::uint64_t whole)
{
    if (!whole)
        return "0.00%";
    std::uint64_t bp = (part * 10000 + whole / 2) / whole;
    return format("%llu.%02llu%%",
                  static_cast<unsigned long long>(bp / 100),
                  static_cast<unsigned long long>(bp % 100));
}

} // namespace sdsp
