/**
 * @file
 * Experiment runner: builds a workload, runs it on a configured
 * processor, verifies the architectural output, and returns the
 * measurements the paper reports. The bench drivers and most
 * integration tests go through this entry point.
 */

#ifndef SDSP_HARNESS_RUNNER_HH
#define SDSP_HARNESS_RUNNER_HH

#include <string>
#include <vector>

#include "common/stats_registry.hh"
#include "core/config.hh"
#include "core/processor.hh"
#include "workloads/workload.hh"

namespace sdsp
{

/** Measurements from one benchmark run. */
struct RunResult
{
    std::string benchmark;
    MachineConfig config;
    bool finished = false;  //!< ran to completion within the cycle cap
    bool verified = false;  //!< outputs matched the C++ reference
    std::string verifyMessage;
    Cycle cycles = 0;
    std::uint64_t committed = 0;
    double ipc = 0.0;
    double cacheHitRate = 1.0;
    double branchAccuracy = 1.0;
    std::uint64_t suStalls = 0;
    std::uint64_t flexCommits = 0;
    /** stallCycles[tid][reason]: top-down attribution matrix. Each
     *  thread's row sums to `cycles` (one charge per cycle). */
    std::vector<std::array<std::uint64_t, kNumStallReasons>>
        stallCycles;
    /** Host wall-clock seconds spent building + simulating the run. */
    double wallSeconds = 0.0;
    /** Host wall-clock seconds of the simulation loop alone (no
     *  workload build, no verification). */
    double simSeconds = 0.0;
    /** Simulated cycles per host wall-second (simulation
     *  throughput; uses simSeconds). */
    double simCyclesPerSecond = 0.0;
    /** Committed instructions per host wall-second. */
    double simInstsPerSecond = 0.0;
    /** Full statistics dump. */
    StatsRegistry stats;
};

/**
 * Run one benchmark on one configuration.
 *
 * @param workload The benchmark generator.
 * @param config   Machine configuration (numThreads is taken from
 *                 here and passed to the workload build).
 * @param scale    Problem-size scale in percent.
 * @param sink     Optional structured-event sink attached for the
 *                 whole run (e.g. a DdgRecorder); purely
 *                 observational, the simulation is unchanged.
 */
RunResult runWorkload(const Workload &workload,
                      const MachineConfig &config, unsigned scale = 100,
                      TraceSink *sink = nullptr);

/** Watchdog budgets for one run (0 = unlimited / config default). */
struct RunLimits
{
    /** Wall-clock budget in seconds for the whole run (workload
     *  build + simulation). Checked between simulation slices, so a
     *  runaway run stops within a few thousand cycles of the
     *  deadline instead of hanging its worker. */
    double timeoutSeconds = 0.0;
    /** Simulated-cycle budget, clamped onto config.maxCycles. */
    std::uint64_t maxCycles = 0;
};

/** runWorkload() plus the watchdog verdict. */
struct LimitedRunResult
{
    RunResult result;
    /** A RunLimits budget (not the config's own cycle cap) stopped
     *  the run; result.finished is false and timeoutReason says
     *  which budget. */
    bool timedOut = false;
    std::string timeoutReason;
};

/**
 * runWorkload() under @p limits. With all limits zero this is
 * runWorkload() (no clock reads inside the cycle loop).
 */
LimitedRunResult runWorkloadLimited(const Workload &workload,
                                    const MachineConfig &config,
                                    unsigned scale,
                                    const RunLimits &limits,
                                    TraceSink *sink = nullptr);

/**
 * The paper's speedup formula (section 5.2):
 * speedup = (Mt_perf - St_perf)/St_perf with performance = 1/cycles.
 * Returned in percent.
 */
double speedupPercent(Cycle multithreaded_cycles,
                      Cycle single_thread_cycles);

/** Geometric-mean-free average of a vector (plain arithmetic mean). */
double mean(const std::vector<double> &values);

/** Fatal unless the run finished and verified (used by benches). */
void requireGood(const RunResult &result);

} // namespace sdsp

#endif // SDSP_HARNESS_RUNNER_HH
