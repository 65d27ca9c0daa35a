#include "tools/fuzz_cli.hh"

#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "common/random.hh"
#include "fuzz/differential.hh"
#include "fuzz/generator.hh"
#include "fuzz/minimize.hh"
#include "tools/cli_util.hh"

namespace sdsp
{

namespace
{

/**
 * The machine grid one case's configuration is drawn from. Thread
 * counts stay within the generator's 8-partition memory layout, and
 * every shape axis the paper sweeps appears at least once: fetch
 * policy, SU depth, commit policy, renaming scheme, and bypassing.
 */
MachineConfig
gridConfig(std::uint64_t pick)
{
    MachineConfig config;
    switch (pick % 8) {
      case 0:
        config.numThreads = 1;
        break;
      case 1:
        config.numThreads = 2;
        config.fetchPolicy = FetchPolicy::MaskedRoundRobin;
        break;
      case 2:
        config.numThreads = 4;
        config.fetchPolicy = FetchPolicy::ConditionalSwitch;
        break;
      case 3:
        config.numThreads = 8;
        config.fetchPolicy = FetchPolicy::Adaptive;
        break;
      case 4:
        config.numThreads = 4;
        config.suEntries = 16;
        config.commitPolicy = CommitPolicy::LowestBlockOnly;
        break;
      case 5:
        config.numThreads = 8;
        config.suEntries = 64;
        break;
      case 6:
        config.numThreads = 2;
        config.renameScheme = RenameScheme::Scoreboard1Bit;
        break;
      default:
        config.numThreads = 4;
        config.bypassing = false;
        break;
    }
    config.finalize();
    return config;
}

/** Everything one case needs, derived from a single seed value. */
struct FuzzCase
{
    std::uint64_t caseSeed;
    FuzzShape shape;
    MachineConfig config;
    Program program;
};

FuzzCase
deriveCase(std::uint64_t case_seed,
           const std::vector<std::string> &shapes)
{
    FuzzCase c;
    c.caseSeed = case_seed;
    Xorshift64 rng(case_seed);
    c.shape = FuzzShape::preset(
        shapes[rng.nextBelow(shapes.size())]);
    c.config = gridConfig(rng.next());
    c.program = generateProgram(c.shape, case_seed);
    return c;
}

std::string
reproCommand(const FuzzCliOptions &options, std::uint64_t index)
{
    return format("sdsp-fuzz --seed %llu --count 1 --shape %s",
                  static_cast<unsigned long long>(options.seed +
                                                  index),
                  options.shape.c_str());
}

/** Minimized repros written per campaign (minimization is slow). */
constexpr unsigned kMaxRepros = 5;

} // namespace

std::string
fuzzCliUsage()
{
    return "usage: sdsp-fuzz [options]\n"
           "  --seed N      base seed (default 1)\n"
           "  --count N     cases to run (default 100)\n"
           "  --shape NAME  smoke|branchy|loopy|memory|deep|all\n"
           "                (default all)\n"
           "  --minimize    shrink failing cases to .s repros\n"
           "  --out DIR     directory for repros (default .)\n";
}

FuzzCliOptions
parseFuzzCliOptions(const std::vector<std::string> &args)
{
    FuzzCliOptions options;

    auto fail = [&](const std::string &why) {
        options.ok = false;
        options.error = why;
        return options;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next_value = [&]() -> std::optional<std::string> {
            if (i + 1 >= args.size())
                return std::nullopt;
            return args[++i];
        };

        if (arg == "--seed" || arg == "--count" ||
            arg == "--shape" || arg == "--out") {
            auto value = next_value();
            if (!value)
                return fail(arg + " needs a value");
            if (arg == "--seed") {
                auto n = parseNumber(*value, 0, kFieldMax<std::uint64_t>);
                if (!n)
                    return fail("bad seed: " + *value);
                options.seed = *n;
            } else if (arg == "--count") {
                auto n = parseNumber(*value, 1, kFieldMax<std::uint64_t>);
                if (!n)
                    return fail("bad count: " + *value);
                options.count = *n;
            } else if (arg == "--shape") {
                options.shape = *value;
            } else { // --out
                options.outDir = *value;
            }
        } else if (arg == "--minimize") {
            options.minimize = true;
        } else {
            return fail("unknown option: " + arg);
        }
    }

    if (options.shape != "all") {
        bool known = false;
        for (const std::string &name : FuzzShape::presetNames())
            known = known || name == options.shape;
        if (!known)
            return fail("unknown shape: " + options.shape);
    }
    return options;
}

int
runFuzzCli(const FuzzCliOptions &options, std::ostream &out)
{
    std::vector<std::string> shapes;
    if (options.shape == "all")
        shapes = FuzzShape::presetNames();
    else
        shapes.push_back(options.shape);

    out << format("sdsp-fuzz: seed %llu, %llu case(s), shape %s\n",
                  static_cast<unsigned long long>(options.seed),
                  static_cast<unsigned long long>(options.count),
                  options.shape.c_str());

    std::uint64_t failures = 0;
    unsigned repros = 0;
    for (std::uint64_t index = 0; index < options.count; ++index) {
        FuzzCase c = deriveCase(options.seed + index, shapes);
        DiffResult diff = runDifferential(c.program, c.config);
        if (index > 0 && index % 10000 == 0) {
            out << format("sdsp-fuzz: %llu/%llu cases, %llu "
                          "failure(s)\n",
                          static_cast<unsigned long long>(index),
                          static_cast<unsigned long long>(
                              options.count),
                          static_cast<unsigned long long>(failures));
        }
        if (diff.ok)
            continue;

        ++failures;
        out << format("sdsp-fuzz: FAIL case %llu (seed %llu): %s\n",
                      static_cast<unsigned long long>(index),
                      static_cast<unsigned long long>(c.caseSeed),
                      diff.kind.c_str());
        out << "  shape   : " << c.shape.name << "\n";
        out << "  machine : " << c.config.toString() << "\n";
        out << "  detail  : " << diff.detail << "\n";
        out << "  repro   : " << reproCommand(options, index) << "\n";

        if (!options.minimize || repros >= kMaxRepros)
            continue;
        ++repros;

        MachineConfig config = c.config;
        MinimizeResult minimized = minimizeProgram(
            c.program, diff.kind, [&](const Program &candidate) {
                return runDifferential(candidate, config).kind;
            });
        std::string header = format(
            "sdsp-fuzz minimized repro\n"
            "failure : %s\n"
            "detail  : %s\n"
            "seed    : %llu  shape %s\n"
            "machine : %s\n"
            "repro   : %s\n"
            "size    : %zu -> %zu instructions",
            diff.kind.c_str(), diff.detail.c_str(),
            static_cast<unsigned long long>(c.caseSeed),
            c.shape.name.c_str(), c.config.toString().c_str(),
            reproCommand(options, index).c_str(),
            minimized.originalInsts, minimized.minimizedInsts);
        std::string repro_asm =
            programToAssembly(minimized.program, header);

        auto path = std::filesystem::path(options.outDir) /
                    format("repro-%s-seed%llu.s", diff.kind.c_str(),
                           static_cast<unsigned long long>(
                               c.caseSeed));
        std::ofstream repro_file(path);
        if (!repro_file) {
            out << "sdsp-fuzz: cannot write " << path.string()
                << "\n";
        } else {
            repro_file << repro_asm;
            out << format("  repro case written to %s (%zu -> %zu "
                          "instructions)\n",
                          path.string().c_str(),
                          minimized.originalInsts,
                          minimized.minimizedInsts);
        }
    }

    out << format("sdsp-fuzz: ran %llu case(s): %llu failure(s)\n",
                  static_cast<unsigned long long>(options.count),
                  static_cast<unsigned long long>(failures));
    return failures == 0 ? 0 : 1;
}

} // namespace sdsp
