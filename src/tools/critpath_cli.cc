#include "tools/critpath_cli.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "critpath/report.hh"
#include "explore/explore.hh"
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
           "  --trace FILE         exact-replay a recorded trace\n" +
           machineFlagUsage() +
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

        if (auto error = parseMachineFlag(args, i, options.config)) {
            if (!error->empty())
                return fail(*error);
        } else if (arg == "--workload" || arg == "--scale" ||
                   arg == "--trace" || arg == "--what-if" ||
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
            } else if (arg == "--what-if") {
                WhatIf what_if;
                std::string error;
                if (!what_if.applyKeyValues(*value, &error))
                    return fail("--what-if " + *value + ": " + error);
                options.whatIfs.push_back(what_if);
            } else { // --json
                options.jsonPath = *value;
            }
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
    // A built-in benchmark runs as a recorded sweep job, which hands
    // over its graph already checked exact.
    ExploreRecording recording;

    if (!options.workload.empty()) {
        const Workload *workload = findWorkload(options.workload);
        if (!workload) {
            out << "sdsp-critpath: no benchmark named '"
                << options.workload << "' (see --list)\n";
            return 1;
        }
        recording = recordBaseline(*workload, config, options.scale);
        if (!recording.error.empty()) {
            out << "sdsp-critpath: " << recording.workload << " "
                << recording.error << "\n";
            return recording.error.starts_with("did not finish") ? 2
                                                                 : 1;
        }
        measured = recording.measured;
        name = recording.workload;
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

    // ---- Build, verify exactness, relax. ----
    auto build_start = std::chrono::steady_clock::now();
    std::uint64_t committed = recording.committed;
    double build_ms = recording.buildSeconds * 1000.0;
    std::unique_ptr<DdgGraph> graph = std::move(recording.graph);
    std::string mismatch;
    if (!graph) {
        CheckedGraph checked =
            buildCheckedGraph(recorder, config, measured);
        graph = std::move(checked.graph);
        mismatch = std::move(checked.mismatch);
        committed = recorder.trace().committed();
    }
    RelaxResult baseline = graph->relax(WhatIf{});
    auto build_end = std::chrono::steady_clock::now();
    build_ms += std::chrono::duration<double, std::milli>(
                    build_end - build_start)
                    .count();

    out << "workload        : " << name << "\n";
    out << "machine         : " << config.toString() << "\n";
    out << "measured cycles : " << measured << "\n";
    out << "committed insts : " << committed << "\n";
    out << format("graph           : %zu nodes, %zu edges "
                  "(built+relaxed in %.1f ms)\n",
                  graph->nodeCount(), graph->edgeCount(), build_ms);
    if (!mismatch.empty()) {
        out << "critical path   : INEXACT — " << mismatch << "\n";
        return 1;
    }
    out << "critical path   : " << baseline.cycles << " (exact)\n";
    out << "breakdown:\n";
    printBreakdown(out, baseline);

    if (options.slack) {
        std::array<Distribution, kNumEdgeClasses> slack;
        graph->slackHistograms(slack);
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
    std::vector<WhatIfProjection> projections;
    for (const WhatIf &what_if : options.whatIfs) {
        WhatIfProjection &projection = projections.emplace_back();
        projection.whatIf = what_if;
        auto relax_start = std::chrono::steady_clock::now();
        projection.result = graph->relax(projection.whatIf);
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
        json << critpathJson(name, *graph, baseline, projections)
             << "\n";
    }
    return 0;
}

} // namespace sdsp
