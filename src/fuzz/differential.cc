#include "fuzz/differential.hh"

#include <sstream>
#include <utility>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/lint.hh"
#include "common/logging.hh"
#include "critpath/ddg.hh"
#include "isa/interpreter.hh"
#include "trace_frontend/replay.hh"
#include "trace_frontend/trace_format.hh"

namespace sdsp
{

namespace
{

DiffResult
failure(std::string kind, std::string detail)
{
    DiffResult result;
    result.ok = false;
    result.kind = std::move(kind);
    result.detail = std::move(detail);
    return result;
}

Cycle
breakdownSum(const CriticalPath &result)
{
    Cycle sum = 0;
    for (Cycle cycles : result.breakdown)
        sum += cycles;
    return sum;
}

} // namespace

std::string
checkCycleAccounts(const Processor &cpu, const SimResult &sim)
{
    for (unsigned tid = 0; tid < cpu.config().numThreads; ++tid) {
        Cycle charged = 0;
        for (unsigned r = 0; r < kNumStallReasons; ++r) {
            charged += cpu.stallCycles(static_cast<ThreadId>(tid),
                                       static_cast<StallReason>(r));
        }
        if (charged != sim.cycles) {
            return format("thread %u: stall attribution charges %llu "
                          "cycles, measured %llu",
                          tid, static_cast<unsigned long long>(charged),
                          static_cast<unsigned long long>(sim.cycles));
        }
    }
    for (unsigned i = 0; i < kNumLatencyStages; ++i) {
        auto stage = static_cast<LatencyStage>(i);
        std::uint64_t samples = cpu.latencyDistribution(stage).count();
        if (samples != sim.committedInstructions) {
            return format(
                "latency.%s holds %llu samples for %llu committed "
                "instructions",
                latencyStageName(stage),
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(
                    sim.committedInstructions));
        }
    }
    return "";
}

DiffResult
runDifferential(const Program &program, const MachineConfig &config,
                const DiffLimits &limits)
{
    // ---- Static analysis first: it is the gate that makes running
    // the program safe (no undecodable words, no escaping control,
    // no provably bad accesses — all fatal() paths in the runners).
    LintOptions lint_options;
    lint_options.machine = {config.numThreads, config.blockSize,
                            config.issueWidth};
    LintReport report = lintProgram(program, lint_options);
    if (report.errorCount() > 0) {
        for (const LintFinding &finding : report.findings) {
            if (finding.severity == LintSeverity::Error) {
                return failure(
                    "lint-error",
                    format("pc %u: [%s] %s", finding.pc,
                           lintCodeName(finding.code),
                           finding.message.c_str()));
            }
        }
    }

    Cfg cfg = Cfg::build(program);

    // ---- Reference interpreter, tracking the PCs it visits ----
    Interpreter interp(program, config.numThreads,
                       config.regsPerThread());
    std::vector<std::uint8_t> visited(program.code.size(), 0);
    std::uint64_t steps = 0;
    while (!interp.finished() && steps < limits.maxInterpSteps) {
        for (unsigned tid = 0; tid < config.numThreads; ++tid) {
            auto thread = static_cast<ThreadId>(tid);
            if (interp.halted(thread))
                continue;
            if (interp.pc(thread) < visited.size())
                visited[interp.pc(thread)] = 1;
            interp.stepThread(thread);
            ++steps;
        }
    }
    if (interp.anyFaulted()) {
        // Contained architectural fault (misaligned / out-of-bounds
        // access, runaway PC). Generated programs are valid by
        // construction, but minimization candidates are not.
        return failure("arch-fault", interp.faultMessage());
    }
    if (!interp.finished()) {
        return failure("interp-timeout",
                       format("interpreter exceeded %llu steps",
                              static_cast<unsigned long long>(
                                  limits.maxInterpSteps)));
    }

    // ---- Analyzer consistency: executed PCs must be reachable ----
    for (InstAddr pc = 0; pc < visited.size(); ++pc) {
        if (visited[pc] && !cfg.reachable(pc)) {
            return failure(
                "unreachable-pc",
                format("interpreter executed pc %u but the CFG "
                       "proves it unreachable",
                       pc));
        }
    }

    // ---- Pipeline run, recorded for the timing-model oracles ----
    MachineConfig run_config = config;
    run_config.maxCycles = limits.maxCycles;
    Processor cpu(run_config, program);
    DdgRecorder ddg;
    std::ostringstream trace_text;
    TraceRecorder recorder(trace_text, program, run_config, "fuzz");
    TeeTraceSink tee;
    tee.add(&ddg);
    tee.add(&recorder);
    cpu.setTraceSink(&tee);
    DiffResult result;
    result.sim = cpu.run();
    recorder.noteResult(result.sim);
    tee.finish();
    if (!result.sim.finished) {
        DiffResult fail = failure(
            "sim-timeout", format("pipeline exceeded %llu cycles",
                                  static_cast<unsigned long long>(
                                      limits.maxCycles)));
        fail.sim = result.sim;
        return fail;
    }

    // ---- Architectural state comparison ----
    unsigned budget = run_config.regsPerThread();
    for (unsigned tid = 0; tid < config.numThreads; ++tid) {
        auto thread = static_cast<ThreadId>(tid);
        for (unsigned reg = 0; reg < budget; ++reg) {
            RegVal expected =
                interp.reg(thread, static_cast<RegIndex>(reg));
            RegVal actual =
                cpu.readReg(thread, static_cast<RegIndex>(reg));
            if (expected != actual) {
                DiffResult fail = failure(
                    "reg-mismatch",
                    format("thread %u r%u: interpreter 0x%llx, "
                           "pipeline 0x%llx",
                           tid, reg,
                           static_cast<unsigned long long>(expected),
                           static_cast<unsigned long long>(actual)));
                fail.sim = result.sim;
                return fail;
            }
        }
    }

    const auto &interp_mem = interp.memory();
    const auto &cpu_mem = cpu.memory().image();
    if (interp_mem.size() != cpu_mem.size()) {
        DiffResult fail = failure(
            "mem-mismatch",
            format("memory sizes differ: %zu vs %zu",
                   interp_mem.size(), cpu_mem.size()));
        fail.sim = result.sim;
        return fail;
    }
    for (std::size_t addr = 0; addr < interp_mem.size(); ++addr) {
        if (interp_mem[addr] != cpu_mem[addr]) {
            DiffResult fail = failure(
                "mem-mismatch",
                format("byte 0x%zx: interpreter 0x%02x, pipeline "
                       "0x%02x",
                       addr, unsigned{interp_mem[addr]},
                       unsigned{cpu_mem[addr]}));
            fail.sim = result.sim;
            return fail;
        }
    }

    for (unsigned tid = 0; tid < config.numThreads; ++tid) {
        auto thread = static_cast<ThreadId>(tid);
        std::uint64_t expected = interp.instructionCount(thread);
        std::uint64_t actual = cpu.committedInstructions(thread);
        if (expected != actual) {
            DiffResult fail = failure(
                "count-mismatch",
                format("thread %u: interpreter executed %llu, "
                       "pipeline committed %llu",
                       tid,
                       static_cast<unsigned long long>(expected),
                       static_cast<unsigned long long>(actual)));
            fail.sim = result.sim;
            return fail;
        }
    }

    // ---- The pipeline's own cycle accounts ----
    std::string accounts = checkCycleAccounts(cpu, result.sim);
    if (!accounts.empty()) {
        DiffResult fail = failure("attribution-mismatch", accounts);
        fail.sim = result.sim;
        return fail;
    }

    // ---- Static IPC bound as a simulator oracle ----
    result.ipcBound = report.bound.boundAtCycles(result.sim.cycles);
    if (result.sim.ipc() > result.ipcBound + 1e-9) {
        DiffResult fail = failure(
            "ipc-bound-violation",
            format("measured IPC %.6f exceeds the static bound %.6f",
                   result.sim.ipc(), result.ipcBound));
        fail.sim = result.sim;
        fail.ipcBound = result.ipcBound;
        return fail;
    }

    // ---- Timing models recorded from the same run ----
    CheckedGraph checked =
        buildCheckedGraph(ddg, run_config, result.sim.cycles);
    const DdgGraph &graph = *checked.graph;
    std::string inexact = std::move(checked.mismatch);
    if (inexact.empty()) {
        CriticalPath baseline = graph.criticalPath(WhatIf{});
        if (baseline.cycles != result.sim.cycles ||
            breakdownSum(baseline) != baseline.cycles) {
            inexact = format(
                "baseline relax: %llu cycles, breakdown %llu, "
                "measured %llu",
                static_cast<unsigned long long>(baseline.cycles),
                static_cast<unsigned long long>(breakdownSum(baseline)),
                static_cast<unsigned long long>(result.sim.cycles));
        }
    }
    if (!inexact.empty()) {
        DiffResult fail = failure("ddg-inexact", inexact);
        fail.sim = result.sim;
        return fail;
    }

    // What-ifs derived from the case's machine: a pure capacity
    // increase (which may only shorten the run), a re-weighting and a
    // capacity decrease. Every breakdown must sum to its cycles.
    WhatIf increase;
    increase.issueWidth = 2 * run_config.issueWidth;
    increase.suEntries = 2 * run_config.suEntries;
    increase.infiniteStoreBuffer = true;
    WhatIf reweight;
    reweight.bypassing = !run_config.bypassing;
    reweight.perfectDCache = true;
    reweight.fuLatency[static_cast<unsigned>(FuClass::Load)] = 1;
    WhatIf decrease;
    decrease.suEntries = run_config.blockSize;
    for (const WhatIf *what_if : {&increase, &reweight, &decrease}) {
        CriticalPath projected = graph.criticalPath(*what_if);
        std::string why;
        if (breakdownSum(projected) != projected.cycles) {
            why = format("breakdown sums to %llu",
                         static_cast<unsigned long long>(
                             breakdownSum(projected)));
        } else if (what_if == &increase &&
                   projected.cycles > result.sim.cycles) {
            why = format("above the measured %llu",
                         static_cast<unsigned long long>(
                             result.sim.cycles));
        }
        if (!why.empty()) {
            DiffResult fail = failure(
                "projection-unsound",
                format("%s projects %llu cycles: %s",
                       what_if->describe(run_config).c_str(),
                       static_cast<unsigned long long>(projected.cycles),
                       why.c_str()));
            fail.sim = result.sim;
            return fail;
        }
    }

    std::istringstream trace_in(std::move(trace_text).str());
    TraceReadResult read = readTrace(trace_in);
    if (!read.ok) {
        DiffResult fail = failure("replay-divergence",
                                  "recorded trace does not load: " +
                                      read.error.toString());
        fail.sim = result.sim;
        return fail;
    }
    ExactReplayResult replay = replayExact(read.trace, run_config);
    if (!replay.verified || replay.sim.cycles != result.sim.cycles) {
        DiffResult fail = failure(
            "replay-divergence",
            format("replay ran %llu cycles, recording %llu: %s",
                   static_cast<unsigned long long>(replay.sim.cycles),
                   static_cast<unsigned long long>(result.sim.cycles),
                   replay.firstMismatch.c_str()));
        fail.sim = result.sim;
        return fail;
    }

    return result;
}

} // namespace sdsp
