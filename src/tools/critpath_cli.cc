#include "tools/critpath_cli.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "critpath/report.hh"
#include "harness/runner.hh"
#include "tools/cli_util.hh"
#include "trace_frontend/replay.hh"
#include "trace_frontend/trace_format.hh"
#include "workloads/workload.hh"

namespace sdsp
{

namespace
{

void
printBreakdown(std::ostream &out, const RelaxResult &result)
{
    std::array<unsigned, kNumEdgeClasses> order;
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](unsigned a, unsigned b) {
                  if (result.breakdown[a] != result.breakdown[b])
                      return result.breakdown[a] >
                             result.breakdown[b];
                  return a < b;
              });
    for (unsigned c : order) {
        if (!result.breakdown[c] && !result.edgeCounts[c])
            continue;
        out << format("  %-16s %10llu  %7s  (%llu edges)\n",
                      edgeClassName(static_cast<EdgeClass>(c)),
                      static_cast<unsigned long long>(
                          result.breakdown[c]),
                      percentOf(result.breakdown[c], result.cycles)
                          .c_str(),
                      static_cast<unsigned long long>(
                          result.edgeCounts[c]));
    }
}

} // namespace

std::string
critpathCliUsage()
{
    return "usage: sdsp-critpath [options] "
           "(--workload NAME | --trace FILE | program.s)\n"
           "  --workload NAME      run a built-in benchmark\n"
           "  --list               list built-in benchmarks\n"
           "  --scale N            workload problem scale percent\n"
           "  --trace FILE         exact-replay a recorded trace\n"
           "  -t N                 resident threads (default 4)\n"
           "  -f POLICY            truerr|maskedrr|cswitch|adaptive|"
           "weightedrr\n"
           "  -s N                 scheduling unit entries\n"
           "  --commit MODE        flexible|lowest\n"
           "  --rename MODE        full|scoreboard\n"
           "  --no-bypass          disable result bypassing\n"
           "  --max-cycles N       simulation cap\n"
           "  --what-if LIST       project KEY=VAL[,KEY=VAL...]; may\n"
           "                       repeat (one projection each). Keys:\n"
           "                       issueWidth, suEntries,\n"
           "                       perfectDCache, infiniteStoreBuffer,\n"
           "                       bypassing, fuLat.<class>\n"
           "  --slack              print the per-class slack summary\n"
           "  --json PATH          write the sdsp-critpath-v1 report\n";
}

CritpathCliOptions
parseCritpathCliOptions(const std::vector<std::string> &args)
{
    CritpathCliOptions options;

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

        if (arg == "--workload" || arg == "--scale" ||
            arg == "--trace" || arg == "-t" || arg == "-f" ||
            arg == "-s" || arg == "--commit" || arg == "--rename" ||
            arg == "--max-cycles" || arg == "--what-if" ||
            arg == "--json") {
            auto value = next_value();
            if (!value)
                return fail(arg + " needs a value");

            if (arg == "--workload") {
                options.workload = *value;
            } else if (arg == "--scale") {
                auto n = parseNumber(*value, 1, 1000);
                if (!n)
                    return fail("bad scale: " + *value);
                options.scale = static_cast<unsigned>(*n);
            } else if (arg == "--trace") {
                options.tracePath = *value;
            } else if (arg == "-t") {
                auto n = parseNumber(*value, 1, 16);
                if (!n)
                    return fail("bad thread count: " + *value);
                options.config.numThreads =
                    static_cast<unsigned>(*n);
            } else if (arg == "-f") {
                auto policy = parsePolicy(*value);
                if (!policy)
                    return fail("unknown fetch policy: " + *value);
                options.config.fetchPolicy = *policy;
            } else if (arg == "-s") {
                auto n = parseNumber(*value, 0, kFieldMax<unsigned>);
                if (!n)
                    return fail("bad SU size: " + *value);
                options.config.suEntries = static_cast<unsigned>(*n);
            } else if (arg == "--commit") {
                if (*value == "flexible") {
                    options.config.commitPolicy =
                        CommitPolicy::FlexibleFourBlocks;
                } else if (*value == "lowest") {
                    options.config.commitPolicy =
                        CommitPolicy::LowestBlockOnly;
                } else {
                    return fail("unknown commit mode: " + *value);
                }
            } else if (arg == "--rename") {
                if (*value == "full") {
                    options.config.renameScheme =
                        RenameScheme::FullRenaming;
                } else if (*value == "scoreboard") {
                    options.config.renameScheme =
                        RenameScheme::Scoreboard1Bit;
                } else {
                    return fail("unknown rename mode: " + *value);
                }
            } else if (arg == "--what-if") {
                options.whatIfSpecs.push_back(*value);
            } else if (arg == "--json") {
                options.jsonPath = *value;
            } else { // --max-cycles
                auto n = parseNumber(*value, 1, kFieldMax<std::uint64_t>);
                if (!n)
                    return fail("bad cycle cap: " + *value);
                options.config.maxCycles = *n;
            }
        } else if (arg == "--no-bypass") {
            options.config.bypassing = false;
        } else if (arg == "--slack") {
            options.slack = true;
        } else if (arg == "--list") {
            options.list = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return fail("unknown option: " + arg);
        } else if (options.programPath.empty()) {
            options.programPath = arg;
        } else {
            return fail("multiple program files given");
        }
    }

    if (options.list)
        return options;
    unsigned modes = (!options.workload.empty() ? 1 : 0) +
                     (!options.tracePath.empty() ? 1 : 0) +
                     (!options.programPath.empty() ? 1 : 0);
    if (modes != 1) {
        return fail("give exactly one of --workload NAME, "
                    "--trace FILE, or a program file");
    }
    return options;
}

int
runCritpathCli(const CritpathCliOptions &options, std::ostream &out)
{
    if (options.list) {
        for (const Workload *workload : allWorkloads())
            out << workload->name() << "\n";
        for (const Workload *workload : extensionWorkloads())
            out << workload->name() << "\n";
        return 0;
    }

    // ---- Run once with the recorder attached. ----
    DdgRecorder recorder;
    MachineConfig config = options.config;
    config.finalize();
    Cycle measured = 0;
    std::string name;

    if (!options.workload.empty()) {
        const Workload *workload = findWorkload(options.workload);
        if (!workload) {
            out << "sdsp-critpath: no benchmark named '"
                << options.workload << "' (see --list)\n";
            return 1;
        }
        RunResult run =
            runWorkload(*workload, config, options.scale, &recorder);
        if (!run.finished) {
            out << "sdsp-critpath: " << run.benchmark
                << " did not finish: " << run.verifyMessage << "\n";
            return 2;
        }
        if (!run.verified) {
            out << "sdsp-critpath: " << run.benchmark
                << " failed verification: " << run.verifyMessage
                << "\n";
            return 1;
        }
        measured = run.cycles;
        name = run.benchmark;
    } else if (!options.tracePath.empty()) {
        TraceReadResult loaded = readTraceFile(options.tracePath);
        if (!loaded.ok) {
            out << "sdsp-critpath: " << options.tracePath << ": "
                << loaded.error.toString() << "\n";
            return 1;
        }
        config.numThreads = loaded.trace.threads;
        config.finalize();
        ExactReplayResult replay =
            replayExact(loaded.trace, config, &recorder);
        if (!replay.sim.finished) {
            out << "sdsp-critpath: replay did not finish\n";
            return 2;
        }
        if (!replay.verified) {
            out << "sdsp-critpath: replay diverged from the "
                   "recording: "
                << replay.firstMismatch << "\n";
            return 1;
        }
        measured = replay.sim.cycles;
        name = options.tracePath;
    } else {
        std::ifstream file(options.programPath);
        if (!file) {
            out << "sdsp-critpath: cannot open "
                << options.programPath << "\n";
            return 1;
        }
        std::ostringstream source;
        source << file.rdbuf();
        AssemblyResult assembly = assemble(source.str());
        unsigned budget = config.regsPerThread();
        if (assembly.maxRegisterUsed >= budget) {
            out << "sdsp-critpath: program uses r"
                << assembly.maxRegisterUsed << " but "
                << config.numThreads
                << " thread(s) allow only r0..r" << budget - 1
                << "\n";
            return 1;
        }
        Processor cpu(config, assembly.program);
        cpu.setTraceSink(&recorder);
        SimResult sim = cpu.run();
        if (!sim.finished) {
            out << "sdsp-critpath: simulation hit the cycle cap\n";
            return 2;
        }
        measured = sim.cycles;
        name = options.programPath;
    }

    // ---- Parse the what-ifs up front (cheap failure first). ----
    std::vector<WhatIfProjection> projections;
    for (const std::string &spec : options.whatIfSpecs) {
        WhatIfProjection projection;
        std::istringstream clauses(spec);
        std::string clause;
        while (std::getline(clauses, clause, ',')) {
            std::string error;
            if (!projection.whatIf.applyKeyValue(clause, &error)) {
                out << "sdsp-critpath: --what-if " << spec << ": "
                    << error << "\n";
                return 1;
            }
        }
        projections.push_back(std::move(projection));
    }

    // ---- Build, verify exactness, relax. ----
    auto build_start = std::chrono::steady_clock::now();
    DdgGraph graph(recorder.trace(), config, measured);
    std::string mismatch = graph.verifyExact();
    RelaxResult baseline = graph.relax(WhatIf{});
    auto build_end = std::chrono::steady_clock::now();

    out << "workload        : " << name << "\n";
    out << "machine         : " << config.toString() << "\n";
    out << "measured cycles : " << measured << "\n";
    out << "committed insts : " << recorder.trace().committed()
        << "\n";
    out << format("graph           : %zu nodes, %zu edges "
                  "(built+relaxed in %.1f ms)\n",
                  graph.nodeCount(), graph.edgeCount(),
                  std::chrono::duration<double, std::milli>(
                      build_end - build_start)
                      .count());
    if (!mismatch.empty()) {
        out << "critical path   : INEXACT — " << mismatch << "\n";
        return 1;
    }
    out << "critical path   : " << baseline.cycles << " (exact)\n";
    out << "breakdown:\n";
    printBreakdown(out, baseline);

    if (options.slack) {
        std::array<Distribution, kNumEdgeClasses> slack;
        graph.slackHistograms(slack);
        out << "slack (cycles above the binding constraint):\n";
        for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
            if (slack[c].count() == 0)
                continue;
            out << format(
                "  %-16s %10llu edges  mean %8.2f  max %llu\n",
                edgeClassName(static_cast<EdgeClass>(c)),
                static_cast<unsigned long long>(slack[c].count()),
                slack[c].mean(),
                static_cast<unsigned long long>(slack[c].max()));
        }
    }

    // ---- Project. ----
    for (WhatIfProjection &projection : projections) {
        auto relax_start = std::chrono::steady_clock::now();
        projection.result = graph.relax(projection.whatIf);
        auto relax_end = std::chrono::steady_clock::now();
        projection.name = projection.whatIf.describe(config);
        double speedup =
            projection.result.cycles
                ? static_cast<double>(measured) /
                      static_cast<double>(projection.result.cycles)
                : 0.0;
        out << format("what-if %-32s : %llu cycles (%.3fx, "
                      "%.1f ms) [%s]\n",
                      projection.name.c_str(),
                      static_cast<unsigned long long>(
                          projection.result.cycles),
                      speedup,
                      std::chrono::duration<double, std::milli>(
                          relax_end - relax_start)
                          .count(),
                      confidenceName(projection.result.confidence));
    }

    if (!options.jsonPath.empty()) {
        std::ofstream json(options.jsonPath);
        if (!json) {
            out << "sdsp-critpath: cannot open " << options.jsonPath
                << "\n";
            return 1;
        }
        json << critpathJson(name, graph, baseline, projections)
             << "\n";
    }
    return 0;
}

} // namespace sdsp
