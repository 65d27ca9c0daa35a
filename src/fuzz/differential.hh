/**
 * @file
 * The differential checker: one generated program, seven oracles.
 *
 * A program is run through the reference interpreter and the
 * cycle-level pipeline, and analyzed with sdsp-lint; the pipeline run
 * is recorded with a DdgRecorder and a TraceRecorder. A case passes
 * when
 *
 *  1. the interpreter and the pipeline agree on the final
 *     architectural state: every thread register partition (the
 *     machine's, MachineConfig::regsPerThread()), the data memory
 *     image, and the per-thread instruction counts;
 *  2. the pipeline's measured IPC does not exceed sdsp-lint's static
 *     IPC upper bound for the machine shape;
 *  3. the interpreter never executes an instruction the analyzer's
 *     CFG proved unreachable;
 *  4. the dependence graph built from the recording reproduces every
 *     observed event time (DdgGraph::verifyExact()), and its baseline
 *     relax() equals the measured cycles with a breakdown that sums
 *     to them;
 *  5. three projections of that graph derived from the machine — a
 *     pure capacity increase (2x issue width, 2x SU entries, infinite
 *     store buffer), a re-weighting (bypassing flipped, perfect
 *     D-cache, load latency 1) and a decrease (an SU of one block) —
 *     each have a breakdown that sums to their cycles, and the
 *     increase projects no more than the measured cycles;
 *  6. the recorded trace loads (readTrace) and replays exactly
 *     (replayExact) in the recorded number of cycles;
 *  7. the pipeline's cycle accounts hold: every thread's
 *     stall-attribution row sums to the measured cycles, and each of
 *     the five per-stage latency histograms counts every committed
 *     instruction;
 *
 * and nothing times out and the lint report carries no errors
 * (generated programs are valid by construction — an error here is a
 * generator or analyzer bug).
 *
 * Any violation is reported as a stable failure kind string, which is
 * what the minimizer preserves while shrinking.
 */

#ifndef SDSP_FUZZ_DIFFERENTIAL_HH
#define SDSP_FUZZ_DIFFERENTIAL_HH

#include <cstdint>
#include <string>

#include "core/config.hh"
#include "core/processor.hh"
#include "isa/program.hh"

namespace sdsp
{

/** Differential-check limits. */
struct DiffLimits
{
    /** Interpreter step cap (all threads). */
    std::uint64_t maxInterpSteps = 2'000'000;
    /** Pipeline cycle cap. */
    std::uint64_t maxCycles = 4'000'000;
};

/** Outcome of one differential check. */
struct DiffResult
{
    bool ok = true;
    /**
     * Stable failure kind: "lint-error", "arch-fault",
     * "interp-timeout", "unreachable-pc", "sim-timeout",
     * "reg-mismatch", "mem-mismatch", "count-mismatch",
     * "attribution-mismatch", "ipc-bound-violation", "ddg-inexact",
     * "projection-unsound", "replay-divergence" (a recorded trace
     * that does not load is a replay divergence; the detail carries
     * the reader's error).
     * Empty when ok.
     */
    std::string kind;
    std::string detail;

    /** Pipeline outcome (valid once the pipeline ran). */
    SimResult sim;
    /** Static IPC bound at the run's cycle count. */
    double ipcBound = 0.0;
};

/**
 * Oracle 7 on a finished run: every thread's stall-attribution row
 * sums to @p sim's cycles, and each latency histogram holds one
 * sample per committed instruction. @return a description of the
 * first violation, or an empty string.
 */
std::string checkCycleAccounts(const Processor &cpu,
                               const SimResult &sim);

/** Run @p program through all oracles on @p config. */
DiffResult runDifferential(const Program &program,
                           const MachineConfig &config,
                           const DiffLimits &limits = {});

} // namespace sdsp

#endif // SDSP_FUZZ_DIFFERENTIAL_HH
