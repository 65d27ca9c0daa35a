#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/number.hh"

namespace sdsp
{

namespace
{

/**
 * Build the graph of @p recorder's finished, verified run into
 * @p outcome and check it exact; an inexact graph fails the job.
 */
void
attachGraph(const DdgRecorder &recorder, const MachineConfig &config,
            JobOutcome &outcome)
{
    auto start = std::chrono::steady_clock::now();
    CheckedGraph checked =
        buildCheckedGraph(recorder, config, outcome.result.cycles);
    outcome.graphSeconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (!checked.mismatch.empty()) {
        outcome.status = JobStatus::Failed;
        outcome.error = "inexact critical path: " + checked.mismatch;
        return;
    }
    outcome.graph = std::move(checked.graph);
}

/** Environment seconds @p name as parseSeconds reads them; fatal on
 *  junk. */
double
envSeconds(const char *name, double fallback)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return fallback;
    auto value = parseSeconds(env);
    if (!value)
        fatal("%s out of range: %s", name, env);
    return *value;
}

/** Parse environment integer @p name in [@p min_value, @p max_value]
 *  as parseNumber reads it; nullopt when unset, fatal on junk. */
std::optional<std::uint64_t>
envNumber(const char *name, std::uint64_t min_value,
          std::uint64_t max_value)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return std::nullopt;
    auto value = parseNumber(env, min_value, max_value);
    if (!value)
        fatal("%s out of range: %s", name, env);
    return value;
}

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
    case JobStatus::Ok: return "ok";
    case JobStatus::Failed: return "failed";
    case JobStatus::TimedOut: return "timed_out";
    case JobStatus::Skipped: return "skipped";
    }
    return "unknown";
}

SweepOptions
SweepOptions::fromEnvironment()
{
    SweepOptions options;
    options.timeoutSeconds = envSeconds("SDSP_BENCH_TIMEOUT", 0.0);
    options.maxCycles =
        envNumber("SDSP_BENCH_MAX_CYCLES", 0, kFieldMax<std::uint64_t>)
            .value_or(0);
    options.retries = static_cast<unsigned>(
        envNumber("SDSP_BENCH_RETRIES", 0, 100).value_or(0));
    options.retryBackoffSeconds =
        envSeconds("SDSP_BENCH_RETRY_BACKOFF", 0.05);
    options.faults = FaultPlan::fromEnvironment();
    return options;
}

SweepRunner::SweepRunner(unsigned jobs, SweepOptions options)
    : jobs_(jobs ? jobs : defaultJobs()), options_(std::move(options))
{
}

unsigned
SweepRunner::defaultJobs()
{
    if (auto jobs = envNumber("SDSP_BENCH_JOBS", 1, 256))
        return static_cast<unsigned>(*jobs);
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::size_t
SweepRunner::add(SweepJob job)
{
    sdsp_assert(job.workload != nullptr, "sweep job without workload");
    queue_.push_back(std::move(job));
    return queue_.size() - 1;
}

std::size_t
SweepRunner::add(const Workload &workload, const MachineConfig &config,
                 unsigned scale, std::string label)
{
    return add(SweepJob{&workload, config, scale, std::move(label)});
}

JobOutcome
SweepRunner::executeJob(const SweepJob &job) const
{
    JobOutcome outcome;
    if (job.skip) {
        outcome.status = JobStatus::Skipped;
        outcome.result.benchmark = job.workload->name();
        outcome.result.config = job.config;
        return outcome;
    }

    const std::string id = job.workload->name() + "/" + job.label;
    RunLimits limits;
    limits.timeoutSeconds = options_.timeoutSeconds;
    limits.maxCycles = options_.maxCycles;

    for (unsigned attempt = 0;; ++attempt) {
        ++outcome.attempts;
        try {
            options_.faults.inject(id, attempt);
            // Scoped to the attempt: the recording dies once its
            // graph is built.
            std::optional<DdgRecorder> recorder;
            if (job.record)
                recorder.emplace();
            LimitedRunResult run = runWorkloadLimited(
                *job.workload, job.config, job.scale, limits,
                recorder ? &*recorder : nullptr);
            outcome.result = std::move(run.result);
            if (run.timedOut) {
                outcome.status = JobStatus::TimedOut;
                outcome.error = run.timeoutReason;
            } else if (outcome.result.finished &&
                       outcome.result.verified) {
                outcome.status = JobStatus::Ok;
                outcome.error.clear();
                if (recorder)
                    attachGraph(*recorder, job.config, outcome);
            } else {
                outcome.status = JobStatus::Failed;
                outcome.error = outcome.result.verifyMessage;
            }
            // Only thrown failures are assumed transient; a
            // deterministic verification failure or timeout would
            // simply repeat.
            return outcome;
        } catch (const std::exception &err) {
            outcome.status = JobStatus::Failed;
            outcome.error = err.what();
        } catch (...) {
            outcome.status = JobStatus::Failed;
            outcome.error = "unknown exception";
        }
        if (attempt >= options_.retries) {
            // The run never produced measurements; keep at least the
            // point's identity for reporting.
            outcome.result.benchmark = job.workload->name();
            outcome.result.config = job.config;
            return outcome;
        }
        // Doubling per retry, but no longer than any other budget.
        double backoff =
            std::min(std::ldexp(options_.retryBackoffSeconds,
                                static_cast<int>(attempt)),
                     kMaxSeconds);
        if (backoff > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff));
        }
    }
}

std::vector<JobOutcome>
SweepRunner::runAll(const JobCallback &completed)
{
    std::vector<SweepJob> grid = std::move(queue_);
    queue_.clear();

    // Outcomes land at each job's submission index, so the output
    // order never depends on the schedule.
    std::vector<JobOutcome> outcomes(grid.size());
    std::mutex callback_mutex;
    parallelFor(grid.size(), jobs_, [&](std::size_t i) {
        outcomes[i] = executeJob(grid[i]);
        if (completed) {
            std::lock_guard<std::mutex> hold(callback_mutex);
            completed(i, outcomes[i]);
        }
    });
    return outcomes;
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    std::size_t workers = std::min<std::size_t>(jobs, n);
    if (workers <= 1) {
        // Serial fallback: calling thread, no pool.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Self-scheduling work queue: workers claim the next unclaimed
    // index. A throw stops the claiming and reaches the caller once
    // every worker has joined, as it would from the serial loop.
    std::atomic<std::size_t> next{0};
    std::mutex failure_mutex;
    std::exception_ptr failure;
    auto worker = [&]() {
        try {
            for (std::size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1))
                fn(i);
        } catch (...) {
            next.store(n);
            std::lock_guard<std::mutex> hold(failure_mutex);
            if (!failure)
                failure = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        for (std::size_t t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        // jthread joins on destruction.
    }
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace sdsp
