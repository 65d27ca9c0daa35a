#include "tools/cli.hh"

#include <charconv>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

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

std::optional<double>
parseSeconds(const std::string &text)
{
    // from_chars, not strtod: '.' regardless of the process locale.
    double value = 0.0;
    const char *begin = text.c_str();
    const char *end = begin + text.size();
    auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end || value < 0.0)
        return std::nullopt;
    return value;
}

void
printRunSummary(std::ostream &out, const MachineConfig &config,
                const SimResult &sim,
                const std::vector<std::uint64_t> &per_thread)
{
    out << "machine   : " << config.toString() << "\n";
    out << "finished  : "
        << (sim.finished ? "yes"
                         : sim.timedOut ? "NO (wall-clock timeout)"
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

    std::ofstream file(path);
    if (!file) {
        out << "sdsp-run: cannot open " << path << "\n";
        return false;
    }
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

/** --critpath: print the critical path of the exact @p graph, whose
 *  baseline relaxation is @p baseline. */
void
printCritpath(std::ostream &out, const DdgGraph &graph,
              const RelaxResult &baseline)
{
    out << format("critpath  : %llu cycles (exact), %zu nodes, "
                  "%zu edges\n",
                  static_cast<unsigned long long>(baseline.cycles),
                  graph.nodeCount(), graph.edgeCount());
    for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
        if (!baseline.breakdown[c])
            continue;
        out << format("  %-16s %10llu  %7s\n",
                      edgeClassName(static_cast<EdgeClass>(c)),
                      static_cast<unsigned long long>(
                          baseline.breakdown[c]),
                      percentOf(baseline.breakdown[c],
                                baseline.cycles)
                          .c_str());
    }
}

/** --replay: exact replay with stream verification. */
int
runReplayExact(const CliOptions &options, std::ostream &out)
{
    TraceReadResult loaded = readTraceFile(options.replayPath);
    if (!loaded.ok) {
        out << "sdsp-run: " << options.replayPath << ": "
            << loaded.error.toString() << "\n";
        return 1;
    }
    const RecordedTrace &trace = loaded.trace;

    MachineConfig config = options.config;
    config.numThreads = trace.threads;
    config.finalize();

    ExactReplayResult replay = replayExact(trace, config);

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
    return replay.verified ? 0 : 1;
}

/** --replay-stream: a trace cocktail, one stream per hw thread. */
int
runReplayStream(const CliOptions &options, std::ostream &out)
{
    // Parse the comma list of TRACE[:tid] items.
    std::vector<std::string> items;
    std::istringstream list(options.replayStream);
    std::string item;
    while (std::getline(list, item, ','))
        items.push_back(item);
    if (items.empty() || items.size() > 16) {
        out << "sdsp-run: --replay-stream needs 1..16 items\n";
        return 1;
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
            return 1;
        }
        if (tid >= loaded.trace.threads) {
            out << "sdsp-run: " << spec << ": trace has only "
                << loaded.trace.threads << " thread(s)\n";
            return 1;
        }
        traces.push_back(
            std::make_unique<RecordedTrace>(std::move(loaded.trace)));
        sources.push_back(
            {traces.back().get(), static_cast<ThreadId>(tid)});
    }

    MachineConfig config = options.config;
    config.numThreads = static_cast<unsigned>(sources.size());
    config.finalize();

    StreamReplayOptions stream_options;
    stream_options.blockSize = config.blockSize;
    StreamReplay replay;
    std::string error;
    if (!buildStreamReplay(sources, config.regsPerThread(),
                           stream_options, replay, &error)) {
        out << "sdsp-run: " << error << "\n";
        return 1;
    }

    Processor cpu(config, replay.program);
    cpu.setReplayAddresses(&replay.addresses);
    SimResult sim = cpu.run();

    std::vector<std::uint64_t> per_thread =
        perThreadCommitted(cpu, config.numThreads);
    printRunSummary(out, config, sim, per_thread);
    for (std::size_t t = 0; t < replay.streamLengths.size(); ++t) {
        if (per_thread[t] != replay.streamLengths[t]) {
            out << format("sdsp-run: thread %zu committed %llu but "
                          "its stream holds %llu\n",
                          t,
                          static_cast<unsigned long long>(
                              per_thread[t]),
                          static_cast<unsigned long long>(
                              replay.streamLengths[t]));
            return 1;
        }
    }

    if (!options.summaryJson.empty() &&
        !writeSummaryJson(options.summaryJson, config, sim,
                          per_thread, out))
        return 1;
    return sim.finished ? 0 : 2;
}

} // namespace

std::string
cliUsage()
{
    return "usage: sdsp-run [options] program.s\n" + machineFlagUsage() +
           "  --timeout SECS       wall-clock budget (exit code 3)\n"
           "  --align              section-6.1 code layout pass\n"
           "  --trace              per-cycle event trace\n"
           "  --trace-file PATH    write the text trace to PATH\n"
           "  --trace-json PATH    write a Perfetto/Chrome trace\n"
           "  --stats              dump statistics (scalars,\n"
           "                       histograms, stall attribution\n"
           "                       with percent-of-total columns)\n"
           "  --critpath           dependence-graph critical-path\n"
           "                       breakdown (verified exact)\n"
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
        } else if (arg == "--timeout" || arg == "--trace-file" ||
                   arg == "--trace-json" || arg == "--record" ||
                   arg == "--replay" || arg == "--replay-stream" ||
                   arg == "--summary-json") {
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
            } else { // --summary-json
                options.summaryJson = *value;
            }
        } else if (arg == "--align") {
            options.align = true;
        } else if (arg == "--trace") {
            options.trace = true;
        } else if (arg == "--stats") {
            options.stats = true;
        } else if (arg == "--critpath") {
            options.critpath = true;
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

    bool replay_mode = !options.replayPath.empty() ||
                       !options.replayStream.empty();
    if (!options.replayPath.empty() && !options.replayStream.empty())
        return fail("--replay and --replay-stream are exclusive");
    if (replay_mode && !options.programPath.empty())
        return fail("replay modes take a trace, not a program file");
    if (replay_mode && !options.recordPath.empty())
        return fail("--record needs a program run, not a replay");
    if (replay_mode && options.critpath)
        return fail("--critpath needs a program run (use "
                    "sdsp-critpath --trace for recordings)");
    if (options.programPath.empty() && !replay_mode)
        return fail("no program file given");
    options.config.finalize();
    return options;
}

int
runCli(const CliOptions &options, std::ostream &out,
       std::ostream &trace_out)
{
    if (!options.replayPath.empty())
        return runReplayExact(options, out);
    if (!options.replayStream.empty())
        return runReplayStream(options, out);

    std::ifstream file(options.programPath);
    if (!file) {
        out << "sdsp-run: cannot open " << options.programPath << "\n";
        return 1;
    }
    std::ostringstream source;
    source << file.rdbuf();

    AssemblyResult assembly = assemble(source.str());
    Program program = assembly.program;

    if (options.align) {
        LayoutOptions layout;
        layout.alignTargetsToBlocks = true;
        layout.alignBranchesToBlockEnd = true;
        program = realignProgram(program, layout);
    }

    if (options.disasmOnly) {
        out << disassemble(program);
        return 0;
    }

    unsigned budget = options.config.regsPerThread();
    if (assembly.maxRegisterUsed >= budget) {
        out << "sdsp-run: program uses r" << assembly.maxRegisterUsed
            << " but " << options.config.numThreads
            << " thread(s) allow only r0..r" << budget - 1 << "\n";
        return 1;
    }

    Processor cpu(options.config, program);

    // Assemble the requested sinks behind one tee. The processor
    // sees a single TraceSink*; nullptr keeps tracing zero-cost.
    TeeTraceSink tee;
    TextTraceSink streamSink(trace_out);
    std::ofstream textFile;
    std::unique_ptr<TextTraceSink> fileSink;
    std::ofstream jsonFile;
    std::unique_ptr<JsonTraceSink> jsonSink;

    if (options.trace)
        tee.add(&streamSink);
    if (!options.traceFile.empty()) {
        textFile.open(options.traceFile);
        if (!textFile) {
            out << "sdsp-run: cannot open " << options.traceFile
                << "\n";
            return 1;
        }
        fileSink = std::make_unique<TextTraceSink>(textFile);
        tee.add(fileSink.get());
    }
    if (!options.traceJson.empty()) {
        jsonFile.open(options.traceJson);
        if (!jsonFile) {
            out << "sdsp-run: cannot open " << options.traceJson
                << "\n";
            return 1;
        }
        jsonSink = std::make_unique<JsonTraceSink>(jsonFile);
        tee.add(jsonSink.get());
    }
    std::ofstream recordFile;
    std::unique_ptr<TraceRecorder> recorder;
    if (!options.recordPath.empty()) {
        recordFile.open(options.recordPath);
        if (!recordFile) {
            out << "sdsp-run: cannot open " << options.recordPath
                << "\n";
            return 1;
        }
        recorder = std::make_unique<TraceRecorder>(
            recordFile, program, options.config,
            options.programPath);
        tee.add(recorder.get());
    }

    std::unique_ptr<DdgRecorder> ddg;
    if (options.critpath) {
        ddg = std::make_unique<DdgRecorder>();
        tee.add(ddg.get());
    }

    bool tracing =
        options.trace || fileSink || jsonSink || recorder || ddg;
    if (tracing)
        cpu.setTraceSink(&tee);

    std::optional<Processor::Deadline> deadline;
    if (options.timeoutSeconds > 0.0) {
        deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options.timeoutSeconds));
    }
    SimResult sim = cpu.run(deadline);
    if (recorder)
        recorder->noteResult(sim);
    if (tracing)
        tee.finish();
    std::vector<std::uint64_t> per_thread =
        perThreadCommitted(cpu, options.config.numThreads);
    printRunSummary(out, options.config, sim, per_thread);
    if (!options.summaryJson.empty() &&
        !writeSummaryJson(options.summaryJson, options.config, sim,
                          per_thread, out))
        return 1;

    // One graph, built and checked once, for the report and --stats.
    CheckedGraph critpath;
    RelaxResult baseline;
    if (ddg && sim.finished) {
        critpath = buildCheckedGraph(*ddg, options.config, sim.cycles);
        if (critpath.mismatch.empty()) {
            baseline = critpath.graph->relax(WhatIf{});
            printCritpath(out, *critpath.graph, baseline);
        } else {
            out << "critpath  : INEXACT — " << critpath.mismatch << "\n";
        }
    }
    const bool critpath_exact = critpath.mismatch.empty();

    if (options.stats) {
        StatsRegistry registry;
        cpu.reportStats(registry);
        if (critpath.graph && critpath_exact)
            critpathReportStats(*critpath.graph, baseline, registry);
        out << "\n" << registry.toString();
        printStallTable(out, cpu, options.config, sim.cycles);
    }
    if (!critpath_exact)
        return 1;
    if (sim.finished)
        return 0;
    return sim.timedOut ? 3 : 2;
}

} // namespace sdsp
