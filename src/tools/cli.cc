#include "tools/cli.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "asm/assembler.hh"
#include "asm/rewrite.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "core/processor.hh"
#include "critpath/report.hh"
#include "tools/cli_util.hh"
#include "trace_frontend/replay.hh"
#include "trace_frontend/trace_format.hh"

namespace sdsp
{

namespace
{

/** Open @p path for writing into @p file; false after reporting a
 *  path that cannot be opened. */
bool
openOutput(std::ofstream &file, const std::string &path,
           std::ostream &out)
{
    file.open(path);
    if (!file)
        out << "sdsp-run: cannot open " << path << "\n";
    return static_cast<bool>(file);
}

void
printRunSummary(std::ostream &out, const MachineConfig &config,
                const SimResult &sim,
                const std::vector<std::uint64_t> &per_thread)
{
    out << "machine   : " << config.toString() << "\n";
    out << "finished  : "
        << (sim.finished          ? "yes"
            : !sim.fault.empty() ? "NO (" + sim.fault + ")"
            : sim.timedOut       ? "NO (wall-clock timeout)"
                                 : "NO (cycle cap)")
        << "\n";
    out << "cycles    : " << sim.cycles << "\n";
    out << "committed : " << sim.committedInstructions << "\n";
    out << format("ipc       : %.3f\n", sim.ipc());
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
        out << format("thread %zu  : %llu instructions\n", t,
                      static_cast<unsigned long long>(per_thread[t]));
    }
}

bool
writeSummaryJson(const std::string &path, const MachineConfig &config,
                 const SimResult &sim,
                 const std::vector<std::uint64_t> &per_thread,
                 std::ostream &out)
{
    JsonWriter writer;
    writer.beginObject();
    writer.field("machine", config.toString());
    writer.field("finished", sim.finished);
    writer.field("cycles", static_cast<std::uint64_t>(sim.cycles));
    writer.field("committed", sim.committedInstructions);
    writer.field("ipc", sim.ipc());
    writer.key("threads").beginArray();
    for (std::uint64_t count : per_thread)
        writer.value(count);
    writer.endArray();
    writer.endObject();

    std::ofstream file;
    if (!openOutput(file, path, out))
        return false;
    file << writer.str() << "\n";
    return true;
}

std::vector<std::uint64_t>
perThreadCommitted(const Processor &cpu, unsigned threads)
{
    std::vector<std::uint64_t> counts;
    counts.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        counts.push_back(
            cpu.committedInstructions(static_cast<ThreadId>(t)));
    return counts;
}

/** --stats: the per-thread stall attribution, raw cycles and
 *  percent-of-total side by side, plus the all-thread totals. */
void
printStallTable(std::ostream &out, const Processor &cpu,
                const MachineConfig &config, Cycle cycles)
{
    std::array<std::uint64_t, kNumStallReasons> total{};
    out << "stall attribution:\n";
    for (unsigned t = 0; t < config.numThreads; ++t) {
        out << format("  thread %u (of %llu cycles):\n", t,
                      static_cast<unsigned long long>(cycles));
        for (unsigned r = 0; r < kNumStallReasons; ++r) {
            std::uint64_t charged = cpu.stallCycles(
                static_cast<ThreadId>(t),
                static_cast<StallReason>(r));
            total[r] += charged;
            if (!charged)
                continue;
            out << format(
                "    %-18s %12llu  %7s\n",
                stallReasonName(static_cast<StallReason>(r)),
                static_cast<unsigned long long>(charged),
                percentOf(charged, cycles).c_str());
        }
    }
    std::uint64_t thread_cycles =
        static_cast<std::uint64_t>(cycles) * config.numThreads;
    out << format("  all threads (of %llu thread-cycles):\n",
                  static_cast<unsigned long long>(thread_cycles));
    for (unsigned r = 0; r < kNumStallReasons; ++r) {
        if (!total[r])
            continue;
        out << format("    %-18s %12llu  %7s\n",
                      stallReasonName(static_cast<StallReason>(r)),
                      static_cast<unsigned long long>(total[r]),
                      percentOf(total[r], thread_cycles).c_str());
    }
}

/**
 * Every sink the options ask for, behind one tee: the processor, or
 * replayExact(), sees a single TraceSink*, and nullptr keeps tracing
 * zero-cost. The files are declared first, so they outlive the sinks
 * that write them.
 */
class RunSinks
{
  public:
    RunSinks() = default;
    // The tee holds the sinks' addresses, and a run holds the tee's.
    RunSinks(const RunSinks &) = delete;
    RunSinks &operator=(const RunSinks &) = delete;

    /**
     * Open the sinks of @p options for a run on @p config named
     * @p name. @p program is the one --record embeds (null for an
     * exact replay, which refuses --record). @return false after
     * reporting a path that cannot be opened.
     */
    bool
    open(const CliOptions &options, const MachineConfig &config,
         const Program *program, const std::string &name,
         std::ostream &trace_out, std::ostream &out)
    {
        if (options.trace)
            attach(stream_ = std::make_unique<TextTraceSink>(trace_out));
        if (!options.traceFile.empty()) {
            if (!openOutput(textFile_, options.traceFile, out))
                return false;
            attach(text_ = std::make_unique<TextTraceSink>(textFile_));
        }
        if (!options.traceJson.empty()) {
            if (!openOutput(jsonFile_, options.traceJson, out))
                return false;
            attach(json_ = std::make_unique<JsonTraceSink>(jsonFile_));
        }
        if (!options.recordPath.empty()) {
            if (!openOutput(recordFile_, options.recordPath, out))
                return false;
            attach(recorder_ = std::make_unique<TraceRecorder>(
                       recordFile_, *program, config, name));
        }
        if (options.critpath)
            attach(ddg_ = std::make_unique<DdgRecorder>());
        return true;
    }

    /** The tee; nullptr when no sink is attached. */
    TraceSink *sink() { return attached_ ? &tee_ : nullptr; }

    /** Note @p sim's totals in the recording and finish every sink. */
    void
    finish(const SimResult &sim)
    {
        if (recorder_)
            recorder_->noteResult(sim);
        tee_.finish();
    }

    /** The --critpath recording; null without --critpath. */
    const DdgRecorder *ddg() const { return ddg_.get(); }

  private:
    template <typename Sink>
    void
    attach(const std::unique_ptr<Sink> &sink)
    {
        tee_.add(sink.get());
        attached_ = true;
    }

    std::ofstream textFile_, jsonFile_, recordFile_;
    std::unique_ptr<TextTraceSink> stream_, text_;
    std::unique_ptr<JsonTraceSink> json_;
    std::unique_ptr<TraceRecorder> recorder_;
    std::unique_ptr<DdgRecorder> ddg_;
    TeeTraceSink tee_;
    bool attached_ = false;
};

double
millisecondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The critical path's per-class breakdown, longest first, with the
 *  edges of each class. */
void
printBreakdown(std::ostream &out, const CriticalPath &result)
{
    std::array<unsigned, kNumEdgeClasses> order;
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](unsigned a, unsigned b) {
                         return result.breakdown[a] > result.breakdown[b];
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

/** --slack: each class's stored edges and their slack above the
 *  binding constraint. */
void
printSlack(std::ostream &out, const DdgGraph &graph)
{
    std::array<Distribution, kNumEdgeClasses> slack;
    graph.slackHistograms(slack);
    out << "slack (cycles above the binding constraint):\n";
    for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
        if (slack[c].count() == 0)
            continue;
        out << format("  %-16s %10llu edges  mean %8.2f  max %llu\n",
                      edgeClassName(static_cast<EdgeClass>(c)),
                      static_cast<unsigned long long>(slack[c].count()),
                      slack[c].mean(),
                      static_cast<unsigned long long>(slack[c].max()));
    }
}

/**
 * --critpath: build the graph of the finished run that @p ddg
 * recorded on @p config in @p measured cycles, check it exact, and
 * print the run's critpath block: the critical path and its
 * breakdown, the slack table under --slack and one line per
 * --what-if. Then write --critpath-json, naming the run @p name, and
 * add the critpath.* statistics to @p registry when given.
 * @return false when the graph is inexact or the JSON cannot be
 *         written.
 */
bool
reportCritpath(const CliOptions &options, const DdgRecorder &ddg,
               const MachineConfig &config, Cycle measured,
               const std::string &name, std::ostream &out,
               StatsRegistry *registry)
{
    auto build_start = std::chrono::steady_clock::now();
    CheckedGraph checked = buildCheckedGraph(ddg, config, measured);
    if (!checked.mismatch.empty()) {
        out << "critpath  : INEXACT — " << checked.mismatch << "\n";
        return false;
    }
    const DdgGraph &graph = *checked.graph;
    const CriticalPath baseline = graph.criticalPath(WhatIf{});
    out << format("critpath  : %llu cycles (exact), %zu nodes, %zu "
                  "edges (built+relaxed in %.1f ms)\n",
                  static_cast<unsigned long long>(baseline.cycles),
                  graph.nodeCount(), graph.edgeCount(),
                  millisecondsSince(build_start));
    printBreakdown(out, baseline);
    if (options.slack)
        printSlack(out, graph);

    std::vector<WhatIfProjection> projections;
    for (const WhatIf &what_if : options.whatIfs) {
        WhatIfProjection &projection = projections.emplace_back();
        projection.whatIf = what_if;
        projection.name = what_if.describe(config);
        auto relax_start = std::chrono::steady_clock::now();
        projection.result = graph.criticalPath(what_if);
        const Cycle cycles = projection.result.cycles;
        out << format("what-if %-32s : %llu cycles (%.3fx, %.1f ms) "
                      "[%s]\n",
                      projection.name.c_str(),
                      static_cast<unsigned long long>(cycles),
                      cycles ? static_cast<double>(measured) /
                                   static_cast<double>(cycles)
                             : 0.0,
                      millisecondsSince(relax_start),
                      confidenceName(projection.result.confidence));
    }

    if (registry)
        critpathReportStats(graph, baseline, *registry);
    if (options.critpathJson.empty())
        return true;
    std::ofstream json;
    if (!openOutput(json, options.critpathJson, out))
        return false;
    json << critpathJson(name, graph, baseline, projections) << "\n";
    return true;
}

/** --replay: exact replay with stream verification. */
int
runReplayExact(const CliOptions &options, std::ostream &out,
               std::ostream &trace_out)
{
    TraceReadResult loaded = readTraceFile(options.replayPath);
    if (!loaded.ok) {
        out << "sdsp-run: " << options.replayPath << ": "
            << loaded.error.toString() << "\n";
        return 1;
    }
    const RecordedTrace &trace = loaded.trace;
    if (options.disasmOnly) {
        out << disassemble(trace.toProgram());
        return 0;
    }

    MachineConfig config = options.config;
    config.numThreads = trace.threads;
    config.finalize();

    // replayExact() finishes the tee with its own sinks.
    RunSinks sinks;
    if (!sinks.open(options, config, nullptr, options.replayPath,
                    trace_out, out))
        return 1;
    ExactReplayResult replay = replayExact(trace, config, sinks.sink());

    std::vector<std::uint64_t> per_thread;
    for (const auto &stream : trace.perThread)
        per_thread.push_back(stream.size());

    printRunSummary(out, config, replay.sim, per_thread);
    out << "recorded  : " << trace.cycles << " cycles, "
        << trace.committed << " instructions\n";
    if (replay.verified) {
        out << "verified  : yes (committed stream matches the "
               "recording)\n";
    } else {
        out << "verified  : NO (" << replay.mismatches
            << " mismatches)\n";
        if (!replay.firstMismatch.empty())
            out << "first     : " << replay.firstMismatch << "\n";
    }

    if (!options.summaryJson.empty() &&
        !writeSummaryJson(options.summaryJson, config, replay.sim,
                          per_thread, out))
        return 1;
    if (!replay.sim.finished)
        return 2;
    const bool exact =
        !sinks.ddg() ||
        reportCritpath(options, *sinks.ddg(), config, replay.sim.cycles,
                       options.replayPath, out, nullptr);
    return replay.verified && exact ? 0 : 1;
}

/** What a program run executes, and what checks it afterwards. */
struct ProgramRun
{
    MachineConfig config;
    Program program;
    /** Names the run in its recording and its critpath report. */
    std::string name;
    /** --workload: checks the final memory against the C++
     *  reference. */
    std::function<VerifyResult(const MainMemory &)> verify;
    /** --replay-stream: each flattened stream's length, which its
     *  thread must commit, and the recorded effective addresses. */
    std::vector<std::uint64_t> streamLengths;
    ReplayAddressSource addresses;
};

/** A program file's program; false after reporting why it cannot
 *  run. */
bool
assembleFile(const CliOptions &options, ProgramRun &run,
             std::ostream &out)
{
    std::ifstream file(options.programPath);
    if (!file) {
        out << "sdsp-run: cannot open " << options.programPath << "\n";
        return false;
    }
    std::ostringstream source;
    source << file.rdbuf();
    AssemblyResult assembly = assemble(source.str());

    unsigned budget = run.config.regsPerThread();
    if (!options.disasmOnly && assembly.maxRegisterUsed >= budget) {
        out << "sdsp-run: program uses r" << assembly.maxRegisterUsed
            << " but " << run.config.numThreads
            << " thread(s) allow only r0..r" << budget - 1 << "\n";
        return false;
    }
    run.program = std::move(assembly.program);
    run.name = options.programPath;
    return true;
}

/** --workload: the benchmark's image for the run's thread count. */
bool
buildWorkload(const CliOptions &options, ProgramRun &run,
              std::ostream &out)
{
    const Workload *workload = findWorkload(options.workload);
    if (!workload) {
        out << "sdsp-run: no benchmark named '" << options.workload
            << "' (see --list)\n";
        return false;
    }
    WorkloadImage image =
        workload->build(run.config.numThreads, options.scale);
    run.program = std::move(image.program);
    run.verify = std::move(image.verify);
    run.name = workload->name();
    return true;
}

/** --replay-stream: a trace cocktail flattened into one program, one
 *  stream per hw thread. */
bool
buildStreams(const CliOptions &options, ProgramRun &run,
             std::ostream &out)
{
    // Parse the comma list of TRACE[:tid] items.
    std::vector<std::string> items;
    std::istringstream list(options.replayStream);
    std::string item;
    while (std::getline(list, item, ','))
        items.push_back(item);
    if (items.empty() || items.size() > 16) {
        out << "sdsp-run: --replay-stream needs 1..16 items\n";
        return false;
    }

    std::vector<std::unique_ptr<RecordedTrace>> traces;
    std::vector<StreamSource> sources;
    for (const std::string &spec : items) {
        std::string path = spec;
        std::uint64_t tid = 0;
        auto colon = spec.rfind(':');
        if (colon != std::string::npos && colon + 1 < spec.size()) {
            auto suffix = parseNumber(spec.substr(colon + 1), 0,
                                      kFieldMax<std::uint64_t>);
            if (suffix) {
                tid = *suffix;
                path = spec.substr(0, colon);
            }
        }
        TraceReadResult loaded = readTraceFile(path);
        if (!loaded.ok) {
            out << "sdsp-run: " << path << ": "
                << loaded.error.toString() << "\n";
            return false;
        }
        if (tid >= loaded.trace.threads) {
            out << "sdsp-run: " << spec << ": trace has only "
                << loaded.trace.threads << " thread(s)\n";
            return false;
        }
        traces.push_back(
            std::make_unique<RecordedTrace>(std::move(loaded.trace)));
        sources.push_back(
            {traces.back().get(), static_cast<ThreadId>(tid)});
    }

    run.config.numThreads = static_cast<unsigned>(sources.size());
    run.config.finalize();

    StreamReplayOptions stream_options;
    stream_options.blockSize = run.config.blockSize;
    StreamReplay replay;
    std::string error;
    if (!buildStreamReplay(sources, run.config.regsPerThread(),
                           stream_options, replay, &error)) {
        out << "sdsp-run: " << error << "\n";
        return false;
    }
    run.program = std::move(replay.program);
    run.addresses = std::move(replay.addresses);
    run.streamLengths = std::move(replay.streamLengths);
    run.name = options.replayStream;
    return true;
}

/** Run @p run's program with the options' sinks attached, then check
 *  and report it. */
int
runProgram(const CliOptions &options, const ProgramRun &run,
           std::ostream &out, std::ostream &trace_out)
{
    const MachineConfig &config = run.config;
    RunSinks sinks;
    if (!sinks.open(options, config, &run.program, run.name, trace_out,
                    out))
        return 1;

    Processor cpu(config, run.program);
    if (!run.streamLengths.empty())
        cpu.setReplayAddresses(&run.addresses);
    cpu.setTraceSink(sinks.sink());
    std::optional<Processor::Deadline> deadline;
    if (options.timeoutSeconds > 0.0) {
        deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options.timeoutSeconds));
    }
    SimResult sim = cpu.run(deadline);
    sinks.finish(sim);

    std::vector<std::uint64_t> per_thread =
        perThreadCommitted(cpu, config.numThreads);
    printRunSummary(out, config, sim, per_thread);
    bool failed = false;
    if (run.verify && sim.finished) {
        VerifyResult verdict = run.verify(cpu.memory());
        out << "verified  : "
            << (verdict.ok ? "yes" : "NO (" + verdict.message + ")")
            << "\n";
        failed = !verdict.ok;
    }
    for (std::size_t t = 0; t < run.streamLengths.size(); ++t) {
        if (per_thread[t] != run.streamLengths[t]) {
            out << format("sdsp-run: thread %zu committed %llu but "
                          "its stream holds %llu\n",
                          t,
                          static_cast<unsigned long long>(
                              per_thread[t]),
                          static_cast<unsigned long long>(
                              run.streamLengths[t]));
            failed = true;
        }
    }
    if (!options.summaryJson.empty() &&
        !writeSummaryJson(options.summaryJson, config, sim, per_thread,
                          out))
        return 1;

    // One graph, built and checked once, for the report and --stats.
    StatsRegistry registry;
    if (options.stats)
        cpu.reportStats(registry);
    if (sinks.ddg() && sim.finished &&
        !reportCritpath(options, *sinks.ddg(), config, sim.cycles,
                        run.name, out,
                        options.stats ? &registry : nullptr))
        failed = true;
    if (options.stats) {
        out << "\n" << registry.toString();
        printStallTable(out, cpu, config, sim.cycles);
    }
    if (failed || !sim.fault.empty())
        return 1;
    if (sim.finished)
        return 0;
    return sim.timedOut ? 3 : 2;
}

} // namespace

std::string
cliUsage()
{
    return "usage: sdsp-run [options] (program.s | --workload NAME |\n"
           "                --replay FILE | --replay-stream LIST)\n" +
           machineFlagUsage() +
           "  --timeout SECS       wall-clock budget (exit code 3)\n"
           "  --workload NAME      run a built-in benchmark, verified\n"
           "                       against its C++ reference\n"
           "  --scale N            workload problem scale percent\n"
           "                       (default 100)\n"
           "  --list               list the built-in benchmarks\n"
           "  --align              section-6.1 code layout pass\n"
           "  --trace              per-cycle event trace\n"
           "  --trace-file PATH    write the text trace to PATH\n"
           "  --trace-json PATH    write a Perfetto/Chrome trace\n"
           "  --stats              dump statistics (scalars,\n"
           "                       histograms, stall attribution\n"
           "                       with percent-of-total columns)\n"
           "  --critpath           dependence-graph critical-path\n"
           "                       breakdown (verified exact)\n"
           "  --what-if LIST       project KEY=VAL[,KEY=VAL...]; may\n"
           "                       repeat (one projection each). Keys:\n"
           "                       issueWidth, suEntries,\n"
           "                       perfectDCache, infiniteStoreBuffer,\n"
           "                       bypassing, fuLat.<class>\n"
           "  --slack              print the per-class slack summary\n"
           "  --critpath-json PATH write the sdsp-critpath-v1 report\n"
           "                       (--what-if, --slack and\n"
           "                       --critpath-json imply --critpath)\n"
           "  --disasm             print disassembly and exit\n"
           "  --record PATH        record the committed stream as a\n"
           "                       replayable trace\n"
           "  --replay PATH        exact-replay a recorded trace\n"
           "                       (verified against the recording)\n"
           "  --replay-stream LIST cocktail: comma list of\n"
           "                       TRACE[:tid], one hw thread each\n"
           "  --summary-json PATH  machine-readable run summary\n";
}

CliOptions
parseCliOptions(const std::vector<std::string> &args)
{
    CliOptions options;

    auto fail = [&](const std::string &why) {
        options.ok = false;
        options.error = why;
        return options;
    };

    // What a source may refuse by name: -t and --scale leave no
    // trace in the options, and --critpath has four spellings.
    bool threads_given = false;
    bool scale_given = false;
    std::string critpath_flag;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next_value = [&]() -> std::optional<std::string> {
            if (i + 1 >= args.size())
                return std::nullopt;
            return args[++i];
        };
        auto want_critpath = [&] {
            options.critpath = true;
            if (critpath_flag.empty())
                critpath_flag = arg;
        };

        threads_given |= arg == "-t";
        if (auto error = parseMachineFlag(args, i, options.config)) {
            if (!error->empty())
                return fail(*error);
        } else if (arg == "--timeout" || arg == "--trace-file" ||
                   arg == "--trace-json" || arg == "--record" ||
                   arg == "--replay" || arg == "--replay-stream" ||
                   arg == "--summary-json" || arg == "--workload" ||
                   arg == "--scale" || arg == "--what-if" ||
                   arg == "--critpath-json") {
            auto value = next_value();
            if (!value)
                return fail(arg + " needs a value");

            if (arg == "--timeout") {
                auto seconds = parseSeconds(*value);
                if (!seconds)
                    return fail("bad timeout: " + *value);
                options.timeoutSeconds = *seconds;
            } else if (arg == "--trace-file") {
                options.traceFile = *value;
            } else if (arg == "--trace-json") {
                options.traceJson = *value;
            } else if (arg == "--record") {
                options.recordPath = *value;
            } else if (arg == "--replay") {
                options.replayPath = *value;
            } else if (arg == "--replay-stream") {
                options.replayStream = *value;
            } else if (arg == "--summary-json") {
                options.summaryJson = *value;
            } else if (arg == "--workload") {
                options.workload = *value;
            } else if (arg == "--scale") {
                auto n = parseNumber(*value, 1, 1000);
                if (!n)
                    return fail("bad scale: " + *value);
                options.scale = static_cast<unsigned>(*n);
                scale_given = true;
            } else if (arg == "--what-if") {
                WhatIf what_if;
                std::string error;
                if (!what_if.applyKeyValues(*value, &error))
                    return fail("--what-if " + *value + ": " + error);
                options.whatIfs.push_back(what_if);
                want_critpath();
            } else { // --critpath-json
                options.critpathJson = *value;
                want_critpath();
            }
        } else if (arg == "--align") {
            options.align = true;
        } else if (arg == "--trace") {
            options.trace = true;
        } else if (arg == "--stats") {
            options.stats = true;
        } else if (arg == "--critpath") {
            want_critpath();
        } else if (arg == "--slack") {
            options.slack = true;
            want_critpath();
        } else if (arg == "--list") {
            options.list = true;
        } else if (arg == "--disasm") {
            options.disasmOnly = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return fail("unknown option: " + arg);
        } else if (options.programPath.empty()) {
            options.programPath = arg;
        } else {
            return fail("multiple program files given");
        }
    }
    options.config.finalize();
    if (options.list)
        return options;

    const bool exact_replay = !options.replayPath.empty();
    const bool stream_replay = !options.replayStream.empty();
    const int sources = !options.programPath.empty() +
                        !options.workload.empty() + exact_replay +
                        stream_replay;
    if (sources != 1) {
        return fail("give exactly one of a program file, --workload "
                    "NAME, --replay FILE or --replay-stream LIST");
    }
    if (scale_given && options.workload.empty())
        return fail("--scale needs --workload");

    // A replay runs the recorded program on the recorded thread count
    // (a cocktail: one thread per stream, at the recorded addresses),
    // and an exact replay runs it on replayExact()'s own processor.
    // No exactness check covers a flattened stream's graph.
    const std::pair<bool, std::string> refused[] = {
        {threads_given, "-t"},
        {options.align, "--align"},
        {!options.recordPath.empty(), "--record"},
        {exact_replay && options.timeoutSeconds > 0.0, "--timeout"},
        {exact_replay && options.stats, "--stats"},
        {stream_replay && options.critpath, critpath_flag},
    };
    if (exact_replay || stream_replay) {
        for (const auto &[given, flag] : refused) {
            if (given) {
                return fail(flag + " does not apply to " +
                            (exact_replay ? "--replay"
                                          : "--replay-stream"));
            }
        }
    }
    return options;
}

int
runCli(const CliOptions &options, std::ostream &out,
       std::ostream &trace_out)
{
    if (options.list) {
        printWorkloadNames(out);
        return 0;
    }
    if (!options.replayPath.empty())
        return runReplayExact(options, out, trace_out);

    ProgramRun run;
    run.config = options.config;
    const bool loaded =
        !options.workload.empty() ? buildWorkload(options, run, out)
        : !options.replayStream.empty()
            ? buildStreams(options, run, out)
            : assembleFile(options, run, out);
    if (!loaded)
        return 1;
    if (options.align) {
        LayoutOptions layout;
        layout.alignTargetsToBlocks = true;
        layout.alignBranchesToBlockEnd = true;
        run.program = realignProgram(run.program, layout);
    }
    if (options.disasmOnly) {
        out << disassemble(run.program);
        return 0;
    }
    return runProgram(options, run, out, trace_out);
}

} // namespace sdsp
