/**
 * @file
 * Tests for the parallel sweep engine: parallel/serial equivalence,
 * submission-order results, exception propagation, worker-count
 * resolution, recorded jobs and their graphs, the shared
 * parallelFor pool, and the artifact serializers the sweep feeds.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "asm/assembler.hh"
#include "harness/artifacts.hh"
#include "harness/sweep.hh"

namespace sdsp
{
namespace
{

std::vector<SweepJob>
smallGrid()
{
    std::vector<SweepJob> grid;
    for (const char *name : {"LL1", "LL5", "Matrix", "Sieve"}) {
        for (unsigned threads : {1u, 4u}) {
            MachineConfig cfg;
            cfg.numThreads = threads;
            grid.push_back(
                {&workloadByName(name), cfg, /*scale=*/10, name});
        }
    }
    return grid;
}

/** Run @p grid on @p jobs workers; one outcome per point, in order. */
std::vector<JobOutcome>
runGrid(const std::vector<SweepJob> &grid, unsigned jobs)
{
    SweepRunner runner(jobs);
    for (const SweepJob &job : grid)
        runner.add(job);
    return runner.runAll();
}

TEST(Sweep, ParallelMatchesSerial)
{
    std::vector<JobOutcome> serial = runGrid(smallGrid(), 1);
    std::vector<JobOutcome> parallel = runGrid(smallGrid(), 4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const RunResult &a = serial[i].result;
        const RunResult &b = parallel[i].result;
        SCOPED_TRACE(a.benchmark);
        EXPECT_TRUE(serial[i].ok()) << serial[i].error;
        EXPECT_TRUE(parallel[i].ok()) << parallel[i].error;
        // Bit-identical measurements, not just close ones: each grid
        // point owns its Processor and all randomness is
        // instance-seeded.
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.committed, b.committed);
        EXPECT_EQ(a.suStalls, b.suStalls);
        EXPECT_EQ(a.flexCommits, b.flexCommits);
        ASSERT_EQ(a.stats.entries().size(), b.stats.entries().size());
        for (std::size_t s = 0; s < a.stats.entries().size(); ++s) {
            EXPECT_EQ(a.stats.entries()[s].name,
                      b.stats.entries()[s].name);
            EXPECT_EQ(a.stats.entries()[s].value,
                      b.stats.entries()[s].value);
        }
    }
}

TEST(Sweep, ResultsFollowSubmissionOrder)
{
    std::vector<SweepJob> grid = smallGrid();
    std::vector<JobOutcome> outcomes = runGrid(grid, 3);
    ASSERT_EQ(outcomes.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(outcomes[i].result.benchmark,
                  grid[i].workload->name());
        EXPECT_EQ(outcomes[i].result.config.numThreads,
                  grid[i].config.numThreads);
    }
}

TEST(Sweep, RunClearsTheQueue)
{
    SweepRunner runner(2);
    EXPECT_EQ(runner.add(workloadByName("Sieve"), MachineConfig{}, 10),
              0u);
    EXPECT_EQ(runner.add(workloadByName("LL1"), MachineConfig{}, 10),
              1u);
    EXPECT_EQ(runner.pending(), 2u);
    EXPECT_EQ(runner.runAll().size(), 2u);
    EXPECT_EQ(runner.pending(), 0u);
    EXPECT_TRUE(runner.runAll().empty());
}

/** A workload whose build fails, to exercise error paths. */
class ThrowingWorkload : public Workload
{
  public:
    std::string name() const override { return "Throwing"; }
    BenchmarkGroup
    group() const override
    {
        return BenchmarkGroup::GroupII;
    }
    WorkloadImage
    build(unsigned, unsigned) const override
    {
        throw std::runtime_error("deliberate grid-point failure");
    }
};

TEST(Sweep, ExceptionFromGridPointPropagates)
{
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        ThrowingWorkload bad;
        SweepRunner runner(jobs);
        runner.add(workloadByName("Sieve"), MachineConfig{}, 10);
        runner.add(bad, MachineConfig{}, 10);
        runner.add(workloadByName("LL1"), MachineConfig{}, 10);
        std::vector<JobOutcome> outcomes = runner.runAll();
        ASSERT_EQ(outcomes.size(), 3u);
        // The thrown text reaches the outcome ...
        EXPECT_EQ(outcomes[1].status, JobStatus::Failed);
        EXPECT_EQ(outcomes[1].error, "deliberate grid-point failure");
        EXPECT_FALSE(outcomes[1].result.finished);
        // ... and its neighbours still run.
        EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
        EXPECT_EQ(outcomes[2].status, JobStatus::Ok);
    }
}

/** A second failing workload, distinguishable from the first. */
class OtherThrowingWorkload : public Workload
{
  public:
    std::string name() const override { return "OtherThrowing"; }
    BenchmarkGroup
    group() const override
    {
        return BenchmarkGroup::GroupII;
    }
    WorkloadImage
    build(unsigned, unsigned) const override
    {
        throw std::runtime_error("second deliberate failure");
    }
};

// Regression test: the engine once rethrew only the first exception,
// so a grid with two bad points reported one and silently dropped
// the other (and every result after it). Both failures must be
// observable, and the good points must still run.
TEST(Sweep, TwoFailingJobsAreBothObservable)
{
    for (unsigned jobs : {1u, 4u}) {
        ThrowingWorkload bad;
        OtherThrowingWorkload worse;
        SweepRunner runner(jobs, SweepOptions{});
        runner.add(workloadByName("Sieve"), MachineConfig{}, 10);
        runner.add(bad, MachineConfig{}, 10);
        runner.add(workloadByName("LL1"), MachineConfig{}, 10);
        runner.add(worse, MachineConfig{}, 10);

        std::vector<JobOutcome> outcomes = runner.runAll();
        ASSERT_EQ(outcomes.size(), 4u) << "jobs=" << jobs;

        EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
        EXPECT_TRUE(outcomes[0].result.verified);

        EXPECT_EQ(outcomes[1].status, JobStatus::Failed);
        EXPECT_EQ(outcomes[1].error, "deliberate grid-point failure");
        EXPECT_EQ(outcomes[1].result.benchmark, "Throwing")
            << "a thrown job still reports its identity";
        EXPECT_EQ(outcomes[1].attempts, 1u);

        EXPECT_EQ(outcomes[2].status, JobStatus::Ok)
            << "a failure must not take down later points";

        EXPECT_EQ(outcomes[3].status, JobStatus::Failed);
        EXPECT_EQ(outcomes[3].error, "second deliberate failure");
    }
}

/** A workload whose program stores past the end of memory. */
class OutOfRangeStoreWorkload : public Workload
{
  public:
    std::string name() const override { return "OutOfRangeStore"; }
    BenchmarkGroup
    group() const override
    {
        return BenchmarkGroup::GroupII;
    }
    WorkloadImage
    build(unsigned num_threads, unsigned) const override
    {
        WorkloadImage image;
        image.name = name();
        image.numThreads = num_threads;
        image.program =
            assemble("ldi r1, 255\nslli r1, r1, 20\nst r1, 0(r1)\nhalt\n")
                .program;
        image.verify = [](const MainMemory &) {
            return VerifyResult::pass();
        };
        return image;
    }
};

TEST(Sweep, CommittedOutOfRangeStoreFailsItsPoint)
{
    // The committed store stops the run with the interpreter's text,
    // and the point fails without a retry: the fault would repeat.
    SweepOptions options;
    options.retries = 1;
    options.retryBackoffSeconds = 0.0;
    OutOfRangeStoreWorkload bad;
    SweepRunner runner(1, options);
    runner.add(bad, MachineConfig{}, 10);
    runner.add(workloadByName("Sieve"), MachineConfig{}, 10);
    std::vector<JobOutcome> outcomes = runner.runAll();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_EQ(outcomes[0].error, "thread 0 at pc 2: misaligned or "
                                 "out-of-bounds store at 0xff00000");
    EXPECT_FALSE(outcomes[0].result.finished);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(outcomes[1].status, JobStatus::Ok);
}

TEST(Sweep, RetryRecoversTransientThrow)
{
    SweepOptions options;
    options.retries = 1;
    options.retryBackoffSeconds = 0.0;
    options.faults = FaultPlan::fromSpec("Sieve=throw*1");

    SweepRunner runner(1, options);
    runner.add(workloadByName("Sieve"), MachineConfig{}, 10, "fig05");
    std::vector<JobOutcome> outcomes = runner.runAll();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[0].attempts, 2u)
        << "first attempt hits the injected fault, the retry runs";
    EXPECT_TRUE(outcomes[0].result.verified);
    EXPECT_TRUE(outcomes[0].error.empty());
}

TEST(Sweep, RetriesExhaustOnPersistentThrow)
{
    SweepOptions options;
    options.retries = 2;
    options.retryBackoffSeconds = 0.0;
    options.faults = FaultPlan::fromSpec("Sieve=throw");

    SweepRunner runner(1, options);
    runner.add(workloadByName("Sieve"), MachineConfig{}, 10, "fig05");
    std::vector<JobOutcome> outcomes = runner.runAll();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_EQ(outcomes[0].attempts, 3u) << "1 try + 2 retries";
}

TEST(Sweep, HundredRetriesBackOffWithinTheClock)
{
    // The back-off doubles per retry, and --retries allows 100: a
    // 32-bit shift would be undefined past the 32nd, which the
    // sanitizer build reports.
    SweepOptions options;
    options.retries = 100;
    options.retryBackoffSeconds = 0.0;
    options.faults = FaultPlan::fromSpec("Sieve=throw");

    SweepRunner runner(1, options);
    runner.add(workloadByName("Sieve"), MachineConfig{}, 10, "fig05");
    std::vector<JobOutcome> outcomes = runner.runAll();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_EQ(outcomes[0].attempts, 101u);
}

TEST(Sweep, CycleBudgetClassifiesAsTimedOut)
{
    SweepOptions options;
    options.maxCycles = 50; // far below any real benchmark
    SweepRunner runner(1, options);
    runner.add(workloadByName("Sieve"), MachineConfig{}, 10, "fig05");
    std::vector<JobOutcome> outcomes = runner.runAll();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobStatus::TimedOut);
    EXPECT_NE(outcomes[0].error.find("simulated-cycle budget"),
              std::string::npos)
        << outcomes[0].error;
    EXPECT_FALSE(outcomes[0].result.finished);
}

TEST(Sweep, WallClockBudgetClassifiesAsTimedOut)
{
    SweepOptions options;
    options.timeoutSeconds = 1e-9; // already expired at the first
                                   // slice boundary
    SweepRunner runner(1, options);
    MachineConfig cfg; // full-scale LL1 runs far past one slice
    runner.add(workloadByName("LL1"), cfg, 100, "fig05");
    std::vector<JobOutcome> outcomes = runner.runAll();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobStatus::TimedOut);
    EXPECT_NE(outcomes[0].error.find("wall-clock budget"),
              std::string::npos)
        << outcomes[0].error;
}

TEST(Sweep, SkippedJobsDoNotRun)
{
    SweepRunner runner(2, SweepOptions{});
    SweepJob skipped;
    skipped.workload = &workloadByName("Sieve");
    skipped.scale = 10;
    skipped.skip = true;
    runner.add(skipped);
    runner.add(workloadByName("LL1"), MachineConfig{}, 10);

    std::vector<JobOutcome> outcomes = runner.runAll();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Skipped);
    EXPECT_EQ(outcomes[0].attempts, 0u);
    EXPECT_EQ(outcomes[0].result.benchmark, "Sieve")
        << "identity survives for reporting";
    EXPECT_FALSE(outcomes[0].result.verified);
    EXPECT_EQ(outcomes[1].status, JobStatus::Ok);
}

TEST(Sweep, CompletionCallbackSeesEveryJob)
{
    SweepRunner runner(4, SweepOptions{});
    std::vector<SweepJob> grid = smallGrid();
    for (SweepJob &job : grid)
        runner.add(std::move(job));

    // The callback contract: serialized invocations, one per job, so
    // plain shared state needs no locking.
    std::vector<bool> seen(runner.pending(), false);
    std::size_t calls = 0;
    std::vector<JobOutcome> outcomes =
        runner.runAll([&](std::size_t index, const JobOutcome &o) {
            ++calls;
            ASSERT_LT(index, seen.size());
            EXPECT_FALSE(seen[index]) << "double completion";
            seen[index] = true;
            EXPECT_EQ(o.status, JobStatus::Ok);
        });
    EXPECT_EQ(calls, outcomes.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_TRUE(seen[i]) << "job " << i << " never completed";
}

/** smallGrid() with every job recorded. */
std::vector<SweepJob>
recordedGrid()
{
    std::vector<SweepJob> grid = smallGrid();
    for (SweepJob &job : grid)
        job.record = true;
    return grid;
}

TEST(Sweep, RecordedJobCarriesAnExactGraph)
{
    std::vector<JobOutcome> outcomes = runGrid(recordedGrid(), 2);
    for (const JobOutcome &outcome : outcomes) {
        SCOPED_TRACE(outcome.result.benchmark);
        ASSERT_TRUE(outcome.ok()) << outcome.error;
        ASSERT_NE(outcome.graph, nullptr);
        EXPECT_EQ(outcome.graph->verifyExact(), "");
        EXPECT_EQ(outcome.graph->measuredCycles(),
                  outcome.result.cycles);
        EXPECT_GT(outcome.graphSeconds, 0.0);
    }
    // A plain job records nothing.
    std::vector<JobOutcome> plain = runGrid(smallGrid(), 2);
    EXPECT_EQ(plain[0].graph, nullptr);
}

TEST(Sweep, RecordedParallelMatchesSerial)
{
    std::vector<JobOutcome> serial = runGrid(recordedGrid(), 1);
    std::vector<JobOutcome> parallel = runGrid(recordedGrid(), 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].result.benchmark);
        ASSERT_TRUE(serial[i].graph && parallel[i].graph);
        EXPECT_EQ(serial[i].result.cycles, parallel[i].result.cycles);
        EXPECT_EQ(serial[i].graph->nodeCount(),
                  parallel[i].graph->nodeCount());
        EXPECT_EQ(serial[i].graph->edgeCount(),
                  parallel[i].graph->edgeCount());
    }
}

TEST(Sweep, ThrowingRecordedJobFailsWithoutAGraph)
{
    SweepOptions options;
    options.faults = FaultPlan::fromSpec("LL5/record=throw");
    SweepRunner runner(4, options);
    for (const char *name : {"LL1", "LL5", "Sieve"}) {
        SweepJob job{&workloadByName(name), MachineConfig{}, 10,
                     "record"};
        job.record = true;
        runner.add(std::move(job));
    }
    std::vector<JobOutcome> outcomes = runner.runAll();
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[1].status, JobStatus::Failed);
    EXPECT_NE(outcomes[1].error.find("injected fault"),
              std::string::npos)
        << outcomes[1].error;
    EXPECT_EQ(outcomes[1].graph, nullptr);
    for (std::size_t i : {0u, 2u}) {
        EXPECT_TRUE(outcomes[i].ok()) << outcomes[i].error;
        EXPECT_NE(outcomes[i].graph, nullptr);
    }
}

TEST(Sweep, CallbackCanTakeTheGraph)
{
    SweepRunner runner(4, SweepOptions{});
    for (const SweepJob &job : recordedGrid())
        runner.add(job);
    std::size_t taken = 0;
    std::vector<JobOutcome> outcomes =
        runner.runAll([&](std::size_t, JobOutcome &outcome) {
            std::unique_ptr<DdgGraph> graph = std::move(outcome.graph);
            if (graph && graph->nodeCount())
                ++taken;
        });
    EXPECT_EQ(taken, outcomes.size());
    for (const JobOutcome &outcome : outcomes) {
        EXPECT_TRUE(outcome.ok()) << outcome.error;
        EXPECT_EQ(outcome.graph, nullptr);
    }
}

TEST(Sweep, ParallelForVisitsEveryIndexOnce)
{
    for (unsigned jobs : {1u, 3u, 16u}) {
        SCOPED_TRACE(jobs);
        std::vector<std::atomic<unsigned>> visits(37);
        parallelFor(visits.size(), jobs,
                    [&](std::size_t i) { ++visits[i]; });
        for (const std::atomic<unsigned> &count : visits)
            EXPECT_EQ(count.load(), 1u);
    }
    parallelFor(0, 4, [](std::size_t) { FAIL() << "no work"; });
}

TEST(Sweep, ParallelForRethrowsAfterJoining)
{
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        std::atomic<unsigned> calls{0};
        EXPECT_THROW(parallelFor(100, jobs,
                                 [&](std::size_t i) {
                                     ++calls;
                                     if (i == 3)
                                         throw std::runtime_error("3");
                                 }),
                     std::runtime_error);
        if (jobs == 1) {
            EXPECT_EQ(calls.load(), 4u) << "the loop stops at the throw";
        }
    }
}

TEST(Sweep, StatusNamesAreStable)
{
    EXPECT_STREQ(jobStatusName(JobStatus::Ok), "ok");
    EXPECT_STREQ(jobStatusName(JobStatus::Failed), "failed");
    EXPECT_STREQ(jobStatusName(JobStatus::TimedOut), "timed_out");
    EXPECT_STREQ(jobStatusName(JobStatus::Skipped), "skipped");
}

TEST(Sweep, DefaultJobsReadsEnvironment)
{
    setenv("SDSP_BENCH_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner::defaultJobs(), 3u);
    EXPECT_EQ(SweepRunner(0).jobs(), 3u);
    // An explicit constructor argument wins over the environment.
    EXPECT_EQ(SweepRunner(7).jobs(), 7u);
    unsetenv("SDSP_BENCH_JOBS");
    EXPECT_GE(SweepRunner::defaultJobs(), 1u);
}

TEST(SweepDeathTest, BadJobsEnvIsFatal)
{
    setenv("SDSP_BENCH_JOBS", "0", 1);
    EXPECT_EXIT(SweepRunner::defaultJobs(),
                ::testing::ExitedWithCode(1), "SDSP_BENCH_JOBS");
    setenv("SDSP_BENCH_JOBS", "lots", 1);
    EXPECT_EXIT(SweepRunner::defaultJobs(),
                ::testing::ExitedWithCode(1), "SDSP_BENCH_JOBS");
    unsetenv("SDSP_BENCH_JOBS");
}

TEST(SweepDeathTest, SecondsBeyondTheClockAreFatal)
{
    // 1e300 s overflows the int64 nanoseconds of a deadline, and inf
    // and nan are no budget at all.
    for (const char *name :
         {"SDSP_BENCH_TIMEOUT", "SDSP_BENCH_RETRY_BACKOFF"}) {
        for (const char *value : {"1e300", "inf", "nan", "-1", "1x"}) {
            SCOPED_TRACE(std::string(name) + "=" + value);
            setenv(name, value, 1);
            EXPECT_EXIT(SweepOptions::fromEnvironment(),
                        ::testing::ExitedWithCode(1),
                        std::string(name) + " out of range: ");
        }
        setenv(name, "1e9", 1);
        SweepOptions options = SweepOptions::fromEnvironment();
        EXPECT_EQ(std::string(name) == "SDSP_BENCH_TIMEOUT"
                      ? options.timeoutSeconds
                      : options.retryBackoffSeconds,
                  1e9);
        unsetenv(name);
    }
}

TEST(Artifacts, RunResultSerializesHeadlineFields)
{
    MachineConfig cfg;
    cfg.numThreads = 2;
    RunResult result =
        runWorkload(workloadByName("Sieve"), cfg, /*scale=*/10);
    ASSERT_TRUE(result.verified) << result.verifyMessage;

    JsonWriter writer;
    appendJson(writer, result, /*include_stats=*/true);
    const std::string &json = writer.str();
    EXPECT_NE(json.find("\"benchmark\":\"Sieve\""), std::string::npos);
    EXPECT_NE(json.find("\"verified\":true"), std::string::npos);
    EXPECT_NE(json.find("\"threads\":2"), std::string::npos);
    EXPECT_NE(json.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(json.find("\"wall_seconds\":"), std::string::npos);
    EXPECT_NE(json.find("\"sim.cycles\":"), std::string::npos);
    EXPECT_GT(result.wallSeconds, 0.0);
}

TEST(Artifacts, ConfigKeySeparatesDistinctMachines)
{
    MachineConfig a, b;
    EXPECT_EQ(configKey(a), configKey(b));
    b.fu = FuConfig::sdspEnhanced();
    EXPECT_NE(configKey(a), configKey(b)) << "FU complement must be "
                                             "part of the identity";
    MachineConfig c;
    c.dcache.ways = 1;
    EXPECT_NE(configKey(a), configKey(c));
    MachineConfig d;
    d.fetchWeights = {2, 1, 1, 1};
    EXPECT_NE(configKey(a), configKey(d));
}

} // namespace
} // namespace sdsp
