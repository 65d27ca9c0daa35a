/**
 * @file
 * Parallel sweep engine: the one executor of simulation grids.
 *
 * The paper's evaluation is an embarrassingly parallel grid — eleven
 * benchmarks times many machine variants per figure. Every grid point
 * is an independent simulation (runWorkload constructs its own
 * Processor, workload generators are stateless const objects, and all
 * randomness is instance-seeded), so the points can run concurrently
 * and the results are bit-identical to a serial sweep.
 *
 * SweepRunner is a job queue: queue grid points with add(), then
 * runAll() executes them on a fixed pool of worker threads and
 * returns one JobOutcome per point, in submission order. The engine
 * is fault tolerant: a grid point that throws, exceeds its wall-clock
 * or simulated-cycle budget, or fails verification produces a
 * classified outcome (ok | failed | timed_out | skipped) with the
 * captured error text — it never takes down the pool or the other
 * points. Thrown (transient) failures can be retried with exponential
 * backoff, and a FaultPlan can deterministically inject failures for
 * testing (see fault.hh).
 *
 * A job may ask for a recording (SweepJob::record): its worker then
 * attaches a DdgRecorder, builds the dependence graph of the finished,
 * verified run and checks it exact, so every run that feeds the
 * critical-path engine gets the same classification, budgets and
 * fault injection as a plain grid point.
 *
 * The worker count comes from the constructor, the SDSP_BENCH_JOBS
 * environment variable, or std::thread::hardware_concurrency(), in
 * that priority order; one worker degenerates to a plain serial loop
 * on the calling thread, which is both the determinism baseline and
 * the zero-thread-overhead fallback. parallelFor() is that pool; it
 * also runs work that is not a simulation (lattice projection).
 */

#ifndef SDSP_HARNESS_SWEEP_HH
#define SDSP_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "critpath/ddg.hh"
#include "harness/fault.hh"
#include "harness/runner.hh"

namespace sdsp
{

/** One grid point of a sweep. */
struct SweepJob
{
    const Workload *workload = nullptr;
    MachineConfig config;
    /** Problem-size scale in percent (see Workload::build). */
    unsigned scale = 100;
    /** Free-form tag (e.g. the experiment id) carried to artifacts. */
    std::string label;
    /**
     * Do not run this point; produce a Skipped outcome instead. Set
     * by drivers resuming from a checkpoint that already holds a
     * verified result for the point.
     */
    bool skip = false;
    /**
     * Record the run's dependence graph: an Ok outcome carries the
     * graph, checked exact against the measured cycles, and an
     * inexact graph makes the outcome Failed.
     */
    bool record = false;
};

/** Classified result of one sweep job. */
enum class JobStatus : unsigned char
{
    Ok,       //!< finished and verified
    Failed,   //!< threw, failed verification, or hit the config cap
    TimedOut, //!< wall-clock or simulated-cycle budget exceeded
    Skipped,  //!< not run (SweepJob::skip, e.g. checkpoint resume)
};

/** Stable artifact/JSON name of @p status ("ok", "timed_out", ...). */
const char *jobStatusName(JobStatus status);

/** Execution budgets and retry policy for a sweep. */
struct SweepOptions
{
    /** Per-job wall-clock budget in seconds; 0 = unlimited. */
    double timeoutSeconds = 0.0;
    /** Per-job simulated-cycle budget, clamped onto each job's
     *  config.maxCycles; 0 = the config cap alone. */
    std::uint64_t maxCycles = 0;
    /** Extra attempts after a *thrown* failure (transient faults).
     *  Verification failures and timeouts are deterministic and are
     *  not retried. */
    unsigned retries = 0;
    /** Backoff before the first retry; doubles per further retry. */
    double retryBackoffSeconds = 0.05;
    /** Deterministic fault injection (testing; see fault.hh). */
    FaultPlan faults;

    /**
     * Defaults from the environment: SDSP_BENCH_TIMEOUT (seconds),
     * SDSP_BENCH_MAX_CYCLES, SDSP_BENCH_RETRIES,
     * SDSP_BENCH_RETRY_BACKOFF (seconds), SDSP_BENCH_FAULT. Fatal on
     * unparseable values.
     */
    static SweepOptions fromEnvironment();
};

/** Everything one sweep job produced. */
struct JobOutcome
{
    JobStatus status = JobStatus::Ok;
    /**
     * The measurements. For Failed-by-exception and Skipped outcomes
     * only benchmark and config are meaningful (identity for
     * reporting); the run never produced numbers.
     */
    RunResult result;
    /** Failure/timeout detail; empty when ok. */
    std::string error;
    /** Attempts consumed (1 = first try; 0 = skipped). */
    unsigned attempts = 0;
    /**
     * The exact dependence graph of an Ok recorded job (null for
     * any other outcome). The recording it was built from is freed
     * before the outcome is handed over.
     */
    std::unique_ptr<DdgGraph> graph;
    /** Host seconds the worker spent building and checking graph. */
    double graphSeconds = 0.0;

    bool ok() const { return status == JobStatus::Ok; }
};

/**
 * Run @p fn(0..n-1) on min(@p jobs, n) worker threads, each claiming
 * the next unclaimed index; with one worker the loop runs on the
 * calling thread. The first exception @p fn throws stops the loop
 * and is rethrown here. This is the sweep's pool and the only thread
 * pool of the simulator.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

/**
 * Executes queued independent grid points on a fixed thread pool.
 *
 * Outcomes are returned in submission order regardless of completion
 * order, and every queued point runs (or is skipped) no matter what
 * happens to its neighbours.
 */
class SweepRunner
{
  public:
    /**
     * Called as each job completes, from the worker that ran it
     * (invocations are serialized by the runner, so the callback may
     * write shared state — e.g. a checkpoint file — without extra
     * locking). Completion order is schedule-dependent; the index
     * identifies the job. The callback may take parts of the outcome
     * (e.g. move the graph out and drop it after use), so that only
     * the in-flight graphs are alive instead of one per job; what it
     * leaves is what runAll() returns.
     */
    using JobCallback =
        std::function<void(std::size_t index, JobOutcome &)>;

    /** @param jobs Worker threads; 0 means defaultJobs(). */
    explicit SweepRunner(
        unsigned jobs = 0,
        SweepOptions options = SweepOptions::fromEnvironment());

    /**
     * The worker count used when the constructor is given 0:
     * SDSP_BENCH_JOBS if set (fatal when unparseable or out of
     * [1, 256]), otherwise hardware_concurrency(), at least 1.
     */
    static unsigned defaultJobs();

    /** Worker threads runAll() will use. */
    unsigned jobs() const { return jobs_; }

    /** Budgets/retry policy in force. */
    const SweepOptions &options() const { return options_; }

    /** Queue a grid point. @return its index into runAll()'s result. */
    std::size_t add(SweepJob job);

    /** Queue a grid point. @return its index into runAll()'s result. */
    std::size_t add(const Workload &workload,
                    const MachineConfig &config, unsigned scale = 100,
                    std::string label = std::string());

    /** Grid points queued since the last run. */
    std::size_t pending() const { return queue_.size(); }

    /**
     * Execute every queued point, clear the queue, and return one
     * outcome per point in submission order. Never throws for a
     * job-level failure; inspect JobOutcome::status.
     */
    std::vector<JobOutcome> runAll(const JobCallback &completed = {});

  private:
    JobOutcome executeJob(const SweepJob &job) const;

    unsigned jobs_;
    SweepOptions options_;
    std::vector<SweepJob> queue_;
};

} // namespace sdsp

#endif // SDSP_HARNESS_SWEEP_HH
