/**
 * @file
 * Tests for top-down stall attribution: the sum-to-total-cycles
 * invariant across the benchmark grid, agreement between the
 * RunResult matrix and the stats registry, and the committed-
 * instruction latency histograms.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "harness/runner.hh"

namespace sdsp
{
namespace
{

struct GridPoint
{
    const char *benchmark;
    unsigned threads;
};

/** Test names must not depend on where the string literal lives. */
void
PrintTo(const GridPoint &point, std::ostream *os)
{
    *os << point.benchmark << "x" << point.threads;
}

class Attribution : public ::testing::TestWithParam<GridPoint>
{
};

/** A machine for @p threads: the register file scales with the
 *  thread count (32 per thread) so the 8-thread points keep the
 *  per-thread budget the workloads were written against. */
MachineConfig
gridConfig(unsigned threads)
{
    MachineConfig cfg;
    cfg.numThreads = threads;
    cfg.numRegisters = 32 * threads;
    return cfg;
}

std::string
pointName(const ::testing::TestParamInfo<GridPoint> &info)
{
    return format("%s_%ut", info.param.benchmark,
                  info.param.threads);
}

TEST_P(Attribution, EveryThreadSumsToTotalCycles)
{
    const GridPoint point = GetParam();
    MachineConfig cfg = gridConfig(point.threads);
    RunResult result =
        runWorkload(workloadByName(point.benchmark), cfg,
                    /*scale=*/10);
    ASSERT_TRUE(result.finished);
    ASSERT_TRUE(result.verified) << result.verifyMessage;

    ASSERT_EQ(result.stallCycles.size(), point.threads);
    for (unsigned t = 0; t < point.threads; ++t) {
        std::uint64_t attributed = 0;
        for (unsigned r = 0; r < kNumStallReasons; ++r)
            attributed += result.stallCycles[t][r];
        EXPECT_EQ(attributed, result.cycles)
            << "thread " << t << ": attributed cycles must equal "
            << "total cycles (one charge per cycle)";

        // A finished thread did real work and ended done.
        EXPECT_GT(
            result.stallCycles[t][static_cast<unsigned>(
                StallReason::Active)],
            0u);
    }
}

TEST_P(Attribution, StatsRegistryAgreesWithMatrix)
{
    const GridPoint point = GetParam();
    MachineConfig cfg = gridConfig(point.threads);
    RunResult result =
        runWorkload(workloadByName(point.benchmark), cfg,
                    /*scale=*/10);
    ASSERT_TRUE(result.finished);

    std::uint64_t grand_total = 0;
    for (unsigned r = 0; r < kNumStallReasons; ++r) {
        const char *rn = stallReasonName(static_cast<StallReason>(r));
        std::uint64_t reason_total = 0;
        for (unsigned t = 0; t < point.threads; ++t) {
            std::string key = format("stall.thread%u.%s", t, rn);
            ASSERT_TRUE(result.stats.has(key)) << key;
            EXPECT_DOUBLE_EQ(
                result.stats.get(key),
                static_cast<double>(result.stallCycles[t][r]));
            reason_total += result.stallCycles[t][r];
        }
        std::string total_key = format("stall.total.%s", rn);
        ASSERT_TRUE(result.stats.has(total_key)) << total_key;
        EXPECT_DOUBLE_EQ(result.stats.get(total_key),
                         static_cast<double>(reason_total));
        grand_total += reason_total;
    }
    EXPECT_EQ(grand_total,
              static_cast<std::uint64_t>(result.cycles) *
                  point.threads);
}

TEST_P(Attribution, LatencyHistogramsCoverEveryCommit)
{
    const GridPoint point = GetParam();
    MachineConfig cfg = gridConfig(point.threads);
    RunResult result =
        runWorkload(workloadByName(point.benchmark), cfg,
                    /*scale=*/10);
    ASSERT_TRUE(result.finished);

    for (const char *name :
         {"latency.fetchToDispatch", "latency.dispatchToIssue",
          "latency.issueToComplete", "latency.completeToCommit",
          "latency.fetchToCommit"}) {
        ASSERT_TRUE(result.stats.hasDistribution(name)) << name;
        // One sample per committed instruction, no more, no less.
        EXPECT_EQ(result.stats.getDistribution(name).count(),
                  result.committed)
            << name;
    }

    // End-to-end latency dominates any single stage gap.
    const Distribution &total =
        result.stats.getDistribution("latency.fetchToCommit");
    EXPECT_GE(total.max(),
              result.stats.getDistribution("latency.dispatchToIssue")
                  .max());
    // Issue is at least one cycle after dispatch (earliestIssue).
    EXPECT_GE(
        result.stats.getDistribution("latency.dispatchToIssue").min(),
        1u);
    EXPECT_GT(total.mean(), 0.0);
}

TEST_P(Attribution, Deterministic)
{
    const GridPoint point = GetParam();
    MachineConfig cfg = gridConfig(point.threads);
    RunResult a = runWorkload(workloadByName(point.benchmark), cfg,
                              /*scale=*/10);
    RunResult b = runWorkload(workloadByName(point.benchmark), cfg,
                              /*scale=*/10);
    ASSERT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Attribution,
    ::testing::Values(GridPoint{"LL1", 1}, GridPoint{"LL1", 4},
                      GridPoint{"LL1", 8}, GridPoint{"Matrix", 1},
                      GridPoint{"Matrix", 4}, GridPoint{"Matrix", 8},
                      GridPoint{"Water", 1}, GridPoint{"Water", 4},
                      GridPoint{"Water", 8}),
    pointName);

TEST(Attribution, CycleCapRunStillSumsToTotal)
{
    // The invariant must hold even when the run hits the cycle cap
    // mid-flight (threads are then parked in non-Done reasons).
    MachineConfig cfg;
    cfg.numThreads = 4;
    cfg.maxCycles = 500;
    RunResult result =
        runWorkload(workloadByName("Matrix"), cfg, /*scale=*/10);
    ASSERT_FALSE(result.finished);
    for (unsigned t = 0; t < cfg.numThreads; ++t) {
        std::uint64_t attributed = 0;
        for (unsigned r = 0; r < kNumStallReasons; ++r)
            attributed += result.stallCycles[t][r];
        EXPECT_EQ(attributed, result.cycles) << "thread " << t;
    }
}

} // namespace
} // namespace sdsp
