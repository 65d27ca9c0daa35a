/**
 * @file
 * The differential checker: one generated program, five oracles.
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
 *     observed event time (DdgGraph::verifyExact());
 *  5. the recorded trace loads (readTrace) and replays exactly
 *     (replayExact) in the recorded number of cycles;
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
     * "ipc-bound-violation", "ddg-inexact", "replay-divergence" (a
     * recorded trace that does not load is a replay divergence; the
     * detail carries the reader's error). Empty when ok.
     */
    std::string kind;
    std::string detail;

    /** Pipeline outcome (valid once the pipeline ran). */
    SimResult sim;
    /** Static IPC bound at the run's cycle count. */
    double ipcBound = 0.0;
};

/** Run @p program through all oracles on @p config. */
DiffResult runDifferential(const Program &program,
                           const MachineConfig &config,
                           const DiffLimits &limits = {});

} // namespace sdsp

#endif // SDSP_FUZZ_DIFFERENTIAL_HH
