#include "harness/runner.hh"

#include <chrono>
#include <numeric>
#include <optional>

#include "common/logging.hh"

namespace sdsp
{

namespace
{

/** Shared body of runWorkload/runWorkloadLimited. */
LimitedRunResult
runLimited(const Workload &workload, const MachineConfig &config,
           unsigned scale, const RunLimits &limits, TraceSink *sink)
{
    auto start = std::chrono::steady_clock::now();

    MachineConfig effective = config;
    bool cycle_budgeted = false;
    if (limits.maxCycles && limits.maxCycles < config.maxCycles) {
        effective.maxCycles = limits.maxCycles;
        cycle_budgeted = true;
    }

    WorkloadImage image = workload.build(effective.numThreads, scale);

    Processor cpu(effective, image.program);
    if (sink)
        cpu.setTraceSink(sink);
    std::optional<Processor::Deadline> deadline;
    if (limits.timeoutSeconds > 0.0) {
        deadline = start + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   limits.timeoutSeconds));
    }
    auto sim_start = std::chrono::steady_clock::now();
    SimResult sim = cpu.run(deadline);
    auto sim_end = std::chrono::steady_clock::now();

    LimitedRunResult limited;
    RunResult &result = limited.result;
    result.benchmark = image.name;
    result.config = config;
    result.finished = sim.finished;
    result.cycles = sim.cycles;
    result.committed = sim.committedInstructions;
    result.ipc = sim.ipc();
    result.cacheHitRate = cpu.dcache().hitRate();
    result.branchAccuracy = cpu.predictor().accuracy();
    result.suStalls = cpu.suStalls();
    result.flexCommits = cpu.flexibleCommits();
    result.stallCycles.resize(config.numThreads);
    for (unsigned t = 0; t < config.numThreads; ++t) {
        for (unsigned r = 0; r < kNumStallReasons; ++r) {
            result.stallCycles[t][r] = cpu.stallCycles(
                static_cast<ThreadId>(t), static_cast<StallReason>(r));
        }
    }
    cpu.reportStats(result.stats);

    if (sim.finished) {
        VerifyResult verdict = image.verify(cpu.memory());
        result.verified = verdict.ok;
        result.verifyMessage = verdict.message;
    } else {
        result.verified = false;
        bool over_budget =
            cycle_budgeted && sim.cycles >= effective.maxCycles;
        if (!sim.fault.empty()) {
            result.verifyMessage = sim.fault;
        } else if (sim.timedOut) {
            result.verifyMessage = format(
                "wall-clock budget (%.3f s) exceeded at cycle %llu",
                limits.timeoutSeconds,
                static_cast<unsigned long long>(sim.cycles));
        } else if (over_budget) {
            result.verifyMessage = format(
                "simulated-cycle budget (%llu cycles) exceeded",
                static_cast<unsigned long long>(effective.maxCycles));
        } else {
            result.verifyMessage = "simulation hit the cycle cap";
        }
        limited.timedOut = sim.timedOut || over_budget;
        if (limited.timedOut)
            limited.timeoutReason = result.verifyMessage;
    }
    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    result.simSeconds =
        std::chrono::duration<double>(sim_end - sim_start).count();
    if (result.simSeconds > 0.0) {
        result.simCyclesPerSecond =
            static_cast<double>(result.cycles) / result.simSeconds;
        result.simInstsPerSecond =
            static_cast<double>(result.committed) / result.simSeconds;
    }
    return limited;
}

} // namespace

RunResult
runWorkload(const Workload &workload, const MachineConfig &config,
            unsigned scale, TraceSink *sink)
{
    return runLimited(workload, config, scale, RunLimits{}, sink).result;
}

LimitedRunResult
runWorkloadLimited(const Workload &workload,
                   const MachineConfig &config, unsigned scale,
                   const RunLimits &limits, TraceSink *sink)
{
    return runLimited(workload, config, scale, limits, sink);
}

double
speedupPercent(Cycle multithreaded_cycles, Cycle single_thread_cycles)
{
    sdsp_assert(multithreaded_cycles > 0 && single_thread_cycles > 0,
                "speedup of a zero-cycle run");
    double mt_perf = 1.0 / static_cast<double>(multithreaded_cycles);
    double st_perf = 1.0 / static_cast<double>(single_thread_cycles);
    return (mt_perf - st_perf) / st_perf * 100.0;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = std::accumulate(values.begin(), values.end(), 0.0);
    return sum / static_cast<double>(values.size());
}

void
requireGood(const RunResult &result)
{
    if (!result.finished) {
        fatal("%s (%s): did not finish", result.benchmark.c_str(),
              result.config.toString().c_str());
    }
    if (!result.verified) {
        fatal("%s (%s): verification failed: %s",
              result.benchmark.c_str(),
              result.config.toString().c_str(),
              result.verifyMessage.c_str());
    }
}

} // namespace sdsp
