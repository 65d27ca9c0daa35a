/**
 * @file
 * Unit tests for the functional unit pool: instance allocation,
 * pipelined vs iterative units, writeback-width limits, store
 * completions, cancellation and utilization statistics.
 */

#include <gtest/gtest.h>

#include "core/exec.hh"

namespace sdsp
{
namespace
{

TEST(FuPool, PipelinedUnitAcceptsEveryCycle)
{
    FuPool pool(FuConfig::sdspDefault());
    EXPECT_TRUE(pool.canIssue(FuClass::FpAdd, 1));
    pool.issue(FuClass::FpAdd, 1, 1);
    // Only one FP adder, but it is pipelined: next cycle is free.
    EXPECT_FALSE(pool.canIssue(FuClass::FpAdd, 1));
    EXPECT_TRUE(pool.canIssue(FuClass::FpAdd, 2));
}

TEST(FuPool, IterativeDividerBlocksForItsLatency)
{
    FuConfig cfg = FuConfig::sdspDefault();
    FuPool pool(cfg);
    Cycle done = pool.issue(FuClass::IntDiv, 1, 1);
    EXPECT_EQ(done, 1 + cfg.latencyOf(FuClass::IntDiv));
    for (Cycle t = 1; t < done; ++t)
        EXPECT_FALSE(pool.canIssue(FuClass::IntDiv, t)) << t;
    EXPECT_TRUE(pool.canIssue(FuClass::IntDiv, done));
}

TEST(FuPool, MultipleInstancesIssueSameCycle)
{
    FuPool pool(FuConfig::sdspDefault()); // 4 integer ALUs
    for (Tag seq = 1; seq <= 4; ++seq) {
        ASSERT_TRUE(pool.canIssue(FuClass::IntAlu, 1));
        pool.issue(FuClass::IntAlu, seq, 1);
    }
    EXPECT_FALSE(pool.canIssue(FuClass::IntAlu, 1));
}

TEST(FuPool, CompletionAtLatency)
{
    FuConfig cfg = FuConfig::sdspDefault();
    FuPool pool(cfg);
    pool.issue(FuClass::IntAlu, 7, 5);
    std::vector<FuCompletion> out;
    pool.drainCompletions(5, 8, out);
    EXPECT_TRUE(out.empty()); // latency 1: completes at cycle 6
    pool.drainCompletions(6, 8, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].seq, 7u);
    EXPECT_FALSE(pool.busy());
}

TEST(FuPool, ExtraLatencyDelaysCompletion)
{
    FuPool pool(FuConfig::sdspDefault());
    Cycle done = pool.issue(FuClass::Load, 1, 10, /*extra=*/9);
    EXPECT_EQ(done, 10 + 2 + 9u);
}

TEST(FuPool, WritebackWidthLimitsResults)
{
    FuPool pool(FuConfig::sdspDefault());
    for (Tag seq = 1; seq <= 4; ++seq)
        pool.issue(FuClass::IntAlu, seq, 1);
    std::vector<FuCompletion> out;
    pool.drainCompletions(2, 2, out);
    EXPECT_EQ(out.size(), 2u);
    // Oldest first.
    EXPECT_EQ(out[0].seq, 1u);
    EXPECT_EQ(out[1].seq, 2u);
    out.clear();
    pool.drainCompletions(3, 2, out);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].seq, 3u);
}

TEST(FuPool, StoresDoNotConsumeWritebackWidth)
{
    FuPool pool(FuConfig::sdspEnhanced()); // 2 store units
    pool.issue(FuClass::Store, 1, 1);
    pool.issue(FuClass::Store, 2, 1);
    pool.issue(FuClass::IntAlu, 3, 1);
    std::vector<FuCompletion> out;
    pool.drainCompletions(2, 1, out);
    // Both stores drain for free plus the single counted result.
    EXPECT_EQ(out.size(), 3u);
}

TEST(FuPool, EarlierCompletionsFirstRegardlessOfIssueOrder)
{
    FuPool pool(FuConfig::sdspDefault());
    pool.issue(FuClass::IntDiv, 1, 1); // completes at 13
    pool.issue(FuClass::IntAlu, 2, 5); // completes at 6
    std::vector<FuCompletion> out;
    pool.drainCompletions(13, 8, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].seq, 2u);
    EXPECT_EQ(out[1].seq, 1u);
}

TEST(FuPool, CancelSuppressesDelivery)
{
    // A squashed producer's operation (the liveness test rejects it)
    // is never delivered.
    FuPool pool(FuConfig::sdspDefault());
    pool.issue(FuClass::IntAlu, 1, 1);
    pool.issue(FuClass::IntAlu, 2, 1);
    std::vector<FuCompletion> out;
    pool.drainCompletions(2, 8, out, [](const FuCompletion &op) {
        return op.seq != 1;
    });
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].seq, 2u);
}

TEST(FuPool, SquashedOperationUsesNoResultPort)
{
    FuPool pool(FuConfig::sdspDefault());
    for (Tag seq = 1; seq <= 3; ++seq)
        pool.issue(FuClass::IntAlu, seq, 1);
    std::vector<FuCompletion> out;
    pool.drainCompletions(2, 2, out, [](const FuCompletion &op) {
        return op.seq != 1;
    });
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].seq, 2u);
    EXPECT_EQ(out[1].seq, 3u);
    EXPECT_FALSE(pool.busy());
}

TEST(FuPool, SquashedOperationKeepsUnitBusyUntilItsCycle)
{
    // The pipeline still drains a squashed divide: the pool reports
    // busy until the operation's completion cycle has been drained.
    FuPool pool(FuConfig::sdspDefault());
    Cycle done = pool.issue(FuClass::IntDiv, 1, 1);
    auto squashed = [](const FuCompletion &) { return false; };
    std::vector<FuCompletion> out;
    for (Cycle t = 2; t < done; ++t) {
        pool.drainCompletions(t, 8, out, squashed);
        EXPECT_TRUE(pool.busy()) << t;
    }
    pool.drainCompletions(done, 8, out, squashed);
    EXPECT_FALSE(pool.busy());
    EXPECT_TRUE(out.empty());
}

TEST(FuPool, HeldBackResultsDrainBeforeLaterOnes)
{
    FuPool pool(FuConfig::sdspDefault());
    for (Tag seq = 1; seq <= 4; ++seq)
        pool.issue(FuClass::IntAlu, seq, 1); // complete at 2
    pool.issue(FuClass::IntAlu, 5, 2);       // completes at 3
    std::vector<FuCompletion> out;
    pool.drainCompletions(2, 1, out);
    ASSERT_EQ(out.size(), 1u);
    out.clear();
    pool.drainCompletions(3, 8, out);
    ASSERT_EQ(out.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(out[i].seq, i + 2u);
    EXPECT_EQ(out[3].completeCycle, 3u);
}

TEST(FuPool, LatencyBeyondTheWheelWaitsInOverflow)
{
    FuConfig cfg = FuConfig::sdspDefault();
    cfg.latency[static_cast<unsigned>(FuClass::IntDiv)] =
        3 * FuPool::kWheelSlots + 5;
    FuPool pool(cfg);
    Cycle slow = pool.issue(FuClass::IntDiv, 1, 1);
    pool.issue(FuClass::IntAlu, 2, 1);
    std::vector<FuCompletion> out;
    for (Cycle t = 2; t < slow - 1; ++t)
        pool.drainCompletions(t, 8, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].seq, 2u);
    EXPECT_TRUE(pool.busy());
    // Due in the same cycle as the divide, but within the wheel.
    EXPECT_EQ(pool.issue(FuClass::IntAlu, 3, slow - 1), slow);
    out.clear();
    pool.drainCompletions(slow - 1, 8, out);
    EXPECT_TRUE(out.empty());
    pool.drainCompletions(slow, 8, out);
    // The overflow operation merges with the bucket in tag order.
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].seq, 1u);
    EXPECT_EQ(out[1].seq, 3u);
    EXPECT_FALSE(pool.busy());
}

TEST(FuPool, DrainSkippingManyCyclesKeepsOrder)
{
    // A drain may jump far past the wheel's span; everything due
    // comes out in (completion cycle, tag) order.
    FuConfig cfg = FuConfig::sdspDefault();
    cfg.latency[static_cast<unsigned>(FuClass::FpDiv)] =
        2 * FuPool::kWheelSlots;
    FuPool pool(cfg);
    pool.issue(FuClass::FpDiv, 1, 1);
    pool.issue(FuClass::IntMul, 2, 1);
    pool.issue(FuClass::IntAlu, 3, 1);
    std::vector<FuCompletion> out;
    pool.drainCompletions(10 * FuPool::kWheelSlots, 8, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].seq, 3u);
    EXPECT_EQ(out[1].seq, 2u);
    EXPECT_EQ(out[2].seq, 1u);
    EXPECT_FALSE(pool.busy());
}

TEST(FuPool, FullBucketSpillsInTagOrder)
{
    // More completions in one cycle than a wheel bucket holds, issued
    // youngest first: they still drain in tag order.
    FuConfig cfg = FuConfig::sdspDefault();
    cfg.count[static_cast<unsigned>(FuClass::IntAlu)] = 16;
    FuPool pool(cfg);
    for (Tag seq = 16; seq >= 1; --seq)
        pool.issue(FuClass::IntAlu, seq, 1);
    std::vector<FuCompletion> out;
    pool.drainCompletions(2, 16, out);
    ASSERT_EQ(out.size(), 16u);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(out[i].seq, i + 1u);
}

TEST(FuPool, CompletionCarriesTheSlot)
{
    FuPool pool(FuConfig::sdspDefault());
    pool.issue(FuClass::Load, 9, 1, /*extra=*/0, /*slot=*/17);
    std::vector<FuCompletion> out;
    pool.drainCompletions(3, 8, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].slot, 17u);
    EXPECT_EQ(out[0].completeCycle, 3u);
}

TEST(FuPool, CanIssueTracksEarliestFreeInstance)
{
    FuConfig cfg = FuConfig::sdspEnhanced(); // 2 iterative dividers
    FuPool pool(cfg);
    Cycle lat = cfg.latencyOf(FuClass::IntDiv);
    pool.issue(FuClass::IntDiv, 1, 1);
    EXPECT_TRUE(pool.canIssue(FuClass::IntDiv, 1));
    pool.issue(FuClass::IntDiv, 2, 3);
    EXPECT_FALSE(pool.canIssue(FuClass::IntDiv, 1 + lat - 1));
    EXPECT_TRUE(pool.canIssue(FuClass::IntDiv, 1 + lat));
    EXPECT_EQ(pool.busyCycles(FuClass::IntDiv, 1), lat);
}

TEST(FuPool, LowestInstanceFirstFeedsUtilizationStats)
{
    FuPool pool(FuConfig::sdspDefault()); // 4 ALUs
    // Two ops in one cycle use instances 0 and 1 only.
    pool.issue(FuClass::IntAlu, 1, 1);
    pool.issue(FuClass::IntAlu, 2, 1);
    EXPECT_EQ(pool.busyCycles(FuClass::IntAlu, 0), 1u);
    EXPECT_EQ(pool.busyCycles(FuClass::IntAlu, 1), 1u);
    EXPECT_EQ(pool.busyCycles(FuClass::IntAlu, 2), 0u);
    EXPECT_EQ(pool.busyCycles(FuClass::IntAlu, 3), 0u);
}

TEST(FuPool, IterativeUnitBusyCountsFullOccupancy)
{
    FuConfig cfg = FuConfig::sdspDefault();
    FuPool pool(cfg);
    pool.issue(FuClass::FpDiv, 1, 1);
    EXPECT_EQ(pool.busyCycles(FuClass::FpDiv, 0),
              cfg.latencyOf(FuClass::FpDiv));
}

TEST(FuPool, TotalInstances)
{
    EXPECT_EQ(FuPool(FuConfig::sdspDefault()).totalInstances(), 12u);
    EXPECT_EQ(FuPool(FuConfig::sdspEnhanced()).totalInstances(), 21u);
}

TEST(FuPool, StatsReport)
{
    FuPool pool(FuConfig::sdspDefault());
    pool.issue(FuClass::IntAlu, 1, 1);
    StatsRegistry registry;
    pool.reportStats(registry, "fu", 10);
    EXPECT_DOUBLE_EQ(registry.get("fu.IntAlu[0].busyFraction"), 0.1);
    EXPECT_DOUBLE_EQ(registry.get("fu.IntAlu[1].busyFraction"), 0.0);
}

TEST(FuPool, IssueWithoutFreeInstancePanics)
{
    FuPool pool(FuConfig::sdspDefault());
    pool.issue(FuClass::IntDiv, 1, 1);
    EXPECT_DEATH(pool.issue(FuClass::IntDiv, 2, 1), "free instance");
}

TEST(FuConfig, PaperTableOneValues)
{
    FuConfig def = FuConfig::sdspDefault();
    EXPECT_EQ(def.countOf(FuClass::IntAlu), 4u);
    EXPECT_EQ(def.countOf(FuClass::Load), 1u);
    EXPECT_EQ(def.countOf(FuClass::FpMul), 1u);
    EXPECT_EQ(def.latencyOf(FuClass::IntAlu), 1u);
    EXPECT_EQ(def.latencyOf(FuClass::Load), 2u);
    EXPECT_FALSE(def.pipelinedOf(FuClass::IntDiv));
    EXPECT_TRUE(def.pipelinedOf(FuClass::FpMul));

    FuConfig enh = FuConfig::sdspEnhanced();
    EXPECT_EQ(enh.countOf(FuClass::IntAlu), 6u);
    EXPECT_EQ(enh.countOf(FuClass::Load), 2u);
    // Latencies identical between configurations.
    for (unsigned i = 0; i < kNumFuClasses; ++i)
        EXPECT_EQ(def.latency[i], enh.latency[i]);
}

} // namespace
} // namespace sdsp
