/**
 * @file
 * Unit tests for MachineConfig: derived quantities, validation of
 * every constraint, and the human-readable names used in reports.
 */

#include <gtest/gtest.h>

#include "core/config.hh"

namespace sdsp
{
namespace
{

TEST(MachineConfig, PaperDefaults)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.numThreads, 4u);
    EXPECT_EQ(cfg.fetchPolicy, FetchPolicy::TrueRoundRobin);
    EXPECT_EQ(cfg.suEntries, 32u);
    EXPECT_EQ(cfg.blockSize, 4u);
    EXPECT_EQ(cfg.issueWidth, 8u);
    EXPECT_EQ(cfg.writebackWidth, 8u);
    EXPECT_EQ(cfg.commitPolicy, CommitPolicy::FlexibleFourBlocks);
    EXPECT_EQ(cfg.renameScheme, RenameScheme::FullRenaming);
    EXPECT_TRUE(cfg.bypassing);
    EXPECT_EQ(cfg.numRegisters, 128u);
    EXPECT_EQ(cfg.storeBufferEntries, 8u);
    EXPECT_EQ(cfg.dcache.sizeBytes, 8192u);
    EXPECT_EQ(cfg.dcache.ways, 2u);
    EXPECT_EQ(cfg.dcache.lineBytes, 32u);
    EXPECT_TRUE(cfg.perfectICache);
    EXPECT_EQ(cfg.btbBanks, 1u);
    cfg.validate(); // must not exit
}

TEST(MachineConfig, DerivedQuantities)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.regsPerThread(), 32u);
    EXPECT_EQ(cfg.suBlocks(), 8u);
    EXPECT_EQ(cfg.commitWindowBlocks(), 4u);
    cfg.commitPolicy = CommitPolicy::LowestBlockOnly;
    EXPECT_EQ(cfg.commitWindowBlocks(), 1u);
    cfg.numThreads = 6;
    EXPECT_EQ(cfg.regsPerThread(), 21u); // floor division
}

TEST(MachineConfig, ValidationRejectsEachBadAxis)
{
    auto expect_fatal = [](auto mutate, const char *pattern) {
        MachineConfig cfg;
        mutate(cfg);
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    pattern);
    };

    expect_fatal([](MachineConfig &c) { c.numThreads = 0; },
                 "numThreads");
    expect_fatal([](MachineConfig &c) { c.numThreads = 17; },
                 "numThreads");
    expect_fatal([](MachineConfig &c) { c.blockSize = 8; },
                 "block");
    expect_fatal([](MachineConfig &c) { c.suEntries = 30; },
                 "multiple");
    expect_fatal([](MachineConfig &c) { c.suEntries = 0; },
                 "multiple");
    expect_fatal([](MachineConfig &c) { c.issueWidth = 0; },
                 "width");
    expect_fatal([](MachineConfig &c) { c.writebackWidth = 0; },
                 "width");
    expect_fatal([](MachineConfig &c) { c.btbBanks = 0; }, "btbBanks");
    expect_fatal([](MachineConfig &c) { c.storeBufferEntries = 3; },
                 "commit block");
    expect_fatal(
        [](MachineConfig &c) {
            c.fu.count[static_cast<unsigned>(FuClass::Load)] = 0;
        },
        "zero instances");
    expect_fatal(
        [](MachineConfig &c) {
            c.fu.latency[static_cast<unsigned>(FuClass::IntAlu)] = 0;
        },
        "zero latency");
    expect_fatal(
        [](MachineConfig &c) {
            c.fetchPolicy = FetchPolicy::WeightedRoundRobin;
            c.fetchWeights = {1, 2}; // arity != numThreads (4)
        },
        "fetchWeights");
    expect_fatal(
        [](MachineConfig &c) {
            c.fetchPolicy = FetchPolicy::WeightedRoundRobin;
            c.fetchWeights = {1, 2, 3, 0};
        },
        "fetchWeights");
    // Cache shapes DataCache cannot build, as sdsp-run's cache flags
    // give them: a named error, not its assert or a division by zero
    // (32 x 2^27 ways wraps a 32-bit way size to 0).
    expect_fatal([](MachineConfig &c) { c.dcache.sizeBytes = 3000; },
                 "dcache.sizeBytes");
    expect_fatal([](MachineConfig &c) { c.dcache.sizeBytes = 0; },
                 "dcache.sizeBytes");
    expect_fatal([](MachineConfig &c) { c.dcache.ways = 3; },
                 "dcache.ways");
    expect_fatal([](MachineConfig &c) { c.dcache.partitions = 1000; },
                 "dcache.partitions");
    expect_fatal([](MachineConfig &c) { c.dcache.ways = 134217728; },
                 "dcache.ways");
    expect_fatal(
        [](MachineConfig &c) {
            c.perfectICache = false;
            c.icache.lineBytes = 24;
        },
        "icache.lineBytes");
}

TEST(MachineConfig, WeightsOnlyCheckedForWeightedPolicy)
{
    MachineConfig cfg;
    cfg.fetchWeights = {9, 9}; // ignored under TrueRR
    cfg.validate();
    SUCCEED();
}

TEST(MachineConfig, Names)
{
    EXPECT_STREQ(fetchPolicyName(FetchPolicy::TrueRoundRobin),
                 "TrueRR");
    EXPECT_STREQ(fetchPolicyName(FetchPolicy::MaskedRoundRobin),
                 "MaskedRR");
    EXPECT_STREQ(fetchPolicyName(FetchPolicy::ConditionalSwitch),
                 "CSwitch");
    EXPECT_STREQ(fetchPolicyName(FetchPolicy::Adaptive), "Adaptive");
    EXPECT_STREQ(fetchPolicyName(FetchPolicy::WeightedRoundRobin),
                 "WeightedRR");
    EXPECT_STREQ(renameSchemeName(RenameScheme::FullRenaming),
                 "FullRenaming");
    EXPECT_STREQ(renameSchemeName(RenameScheme::Scoreboard1Bit),
                 "Scoreboard1Bit");
    EXPECT_STREQ(commitPolicyName(CommitPolicy::FlexibleFourBlocks),
                 "Flexible");
    EXPECT_STREQ(commitPolicyName(CommitPolicy::LowestBlockOnly),
                 "LowestOnly");
}

TEST(MachineConfig, ToStringMentionsKeyAxes)
{
    MachineConfig cfg;
    cfg.numThreads = 3;
    cfg.fetchPolicy = FetchPolicy::ConditionalSwitch;
    cfg.suEntries = 48;
    std::string text = cfg.toString();
    EXPECT_NE(text.find("threads=3"), std::string::npos);
    EXPECT_NE(text.find("CSwitch"), std::string::npos);
    EXPECT_NE(text.find("su=48"), std::string::npos);
    EXPECT_NE(text.find("2-way"), std::string::npos);
}

TEST(FuConfig, AccessorsMatchArrays)
{
    FuConfig cfg = FuConfig::sdspDefault();
    for (unsigned i = 0; i < kNumFuClasses; ++i) {
        auto cls = static_cast<FuClass>(i);
        EXPECT_EQ(cfg.countOf(cls), cfg.count[i]);
        EXPECT_EQ(cfg.latencyOf(cls), cfg.latency[i]);
        EXPECT_EQ(cfg.pipelinedOf(cls), cfg.pipelined[i]);
    }
}

} // namespace
} // namespace sdsp
