#include "tools/lint_cli.hh"

#include <fstream>
#include <ostream>
#include <sstream>

#include "analysis/lint.hh"
#include "asm/assembler.hh"
#include "common/json.hh"
#include "core/config.hh"
#include "tools/cli_util.hh"
#include "workloads/workload.hh"

namespace sdsp
{

std::string
lintCliUsage()
{
    return "usage: sdsp-lint [options] [program.s ...]\n"
           "  --workload NAME   analyze a built-in workload "
           "(repeatable)\n"
           "  --all             analyze every built-in and extension "
           "workload\n"
           "  -t N              thread count for workloads and the "
           "IPC bound (default 4)\n"
           "  --scale N         workload problem scale percent "
           "(default 100)\n"
           "  --align           apply the section-6.1 layout to .s "
           "inputs\n"
           "  --extra-memory N  scratch bytes appended after a .s "
           "data section\n"
           "  --json PATH       also write a JSON report ('-' = "
           "stdout)\n";
}

LintCliOptions
parseLintCliOptions(const std::vector<std::string> &args)
{
    LintCliOptions options;
    auto bad = [&options](const std::string &message) {
        options.ok = false;
        options.error = message;
        return options;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> const std::string * {
            if (i + 1 >= args.size())
                return nullptr;
            return &args[++i];
        };
        if (arg == "--workload") {
            const std::string *value = next();
            if (!value)
                return bad("--workload needs a name");
            options.workloads.push_back(*value);
        } else if (arg == "--all") {
            options.all = true;
        } else if (arg == "-t" || arg == "--threads") {
            const std::string *value = next();
            if (!value)
                return bad("-t needs a thread count");
            auto n = parseNumber(*value, 1, 16);
            if (!n)
                return bad("-t must be a thread count in 1..16, got '" +
                           *value + "'");
            options.threads = static_cast<unsigned>(*n);
        } else if (arg == "--scale") {
            const std::string *value = next();
            if (!value)
                return bad("--scale needs a percentage");
            auto n = parseNumber(*value, 1, 1000);
            if (!n)
                return bad("--scale must be a percentage in 1..1000, "
                           "got '" + *value + "'");
            options.scale = static_cast<unsigned>(*n);
        } else if (arg == "--align") {
            options.align = true;
        } else if (arg == "--extra-memory") {
            const std::string *value = next();
            if (!value)
                return bad("--extra-memory needs a byte count");
            auto n = parseNumber(*value, 0, kFieldMax<std::uint32_t>);
            if (!n)
                return bad("--extra-memory must be a byte count, got '" +
                           *value + "'");
            options.extraMemory = static_cast<std::uint32_t>(*n);
        } else if (arg == "--json") {
            const std::string *value = next();
            if (!value)
                return bad("--json needs a path");
            options.jsonPath = *value;
        } else if (arg == "-h" || arg == "--help") {
            return bad("");
        } else if (!arg.empty() && arg[0] == '-') {
            return bad("unknown option '" + arg + "'");
        } else {
            options.files.push_back(arg);
        }
    }
    if (options.files.empty() && options.workloads.empty() &&
        !options.all)
        return bad("nothing to analyze (give a .s file, --workload, "
                   "or --all)");
    return options;
}

namespace
{

/** One named analysis target. */
struct Target
{
    std::string title;
    LintReport report;
};

LintOptions
baseOptions(const LintCliOptions &cli)
{
    LintOptions options;
    // Both paper FU configurations share one latency table; the
    // default machine shape supplies the fetch/issue ceilings.
    MachineConfig config;
    options.latency =
        LatencyModel::fromLatencies(FuConfig::sdspDefault().latency);
    options.machine.numThreads = cli.threads;
    options.machine.blockSize = config.blockSize;
    options.machine.issueWidth = config.issueWidth;
    return options;
}

} // namespace

int
runLintCli(const LintCliOptions &options, std::ostream &out)
{
    std::vector<Target> targets;

    std::vector<std::string> workload_names = options.workloads;
    if (options.all) {
        for (const Workload *workload : allWorkloads())
            workload_names.push_back(workload->name());
        for (const Workload *workload : extensionWorkloads())
            workload_names.push_back(workload->name());
    }
    for (const std::string &name : workload_names) {
        const Workload &workload = workloadByName(name);
        Target target;
        target.title = format("%s (t=%u, scale=%u)", name.c_str(),
                              options.threads, options.scale);
        target.report = workload.lint(options.threads, options.scale,
                                      baseOptions(options));
        targets.push_back(std::move(target));
    }

    for (const std::string &path : options.files) {
        std::ifstream file(path);
        if (!file) {
            out << "sdsp-lint: cannot open " << path << "\n";
            return 2;
        }
        std::ostringstream source;
        source << file.rdbuf();
        LayoutOptions layout;
        if (options.align) {
            layout.alignTargetsToBlocks = true;
            layout.alignBranchesToBlockEnd = true;
        }
        AssemblyResult assembly =
            assemble(source.str(), options.extraMemory, layout);
        LintOptions lint_options = baseOptions(options);
        lint_options.sourceLines = assembly.sourceLines;
        Target target;
        target.title = path;
        target.report = lintProgram(assembly.program, lint_options);
        targets.push_back(std::move(target));
    }

    unsigned errors = 0;
    unsigned warnings = 0;
    for (const Target &target : targets) {
        out << target.report.toText(target.title);
        errors += target.report.errorCount();
        warnings += target.report.warningCount();
    }
    out << format("sdsp-lint: %zu program(s), %u error(s), "
                  "%u warning(s)\n",
                  targets.size(), errors, warnings);

    if (!options.jsonPath.empty()) {
        JsonWriter writer;
        writer.beginObject();
        writer.key("programs").beginArray();
        for (const Target &target : targets)
            target.report.appendJson(writer, target.title);
        writer.endArray();
        writer.field("errors", errors);
        writer.field("warnings", warnings);
        writer.endObject();
        if (options.jsonPath == "-") {
            out << writer.str() << "\n";
        } else {
            std::ofstream json_file(options.jsonPath);
            if (!json_file) {
                out << "sdsp-lint: cannot write " << options.jsonPath
                    << "\n";
                return 2;
            }
            json_file << writer.str() << "\n";
        }
    }
    return errors + warnings > 0 ? 1 : 0;
}

} // namespace sdsp
