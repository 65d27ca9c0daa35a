/**
 * @file
 * Tests for the dynamic dependence-graph critical-path engine: the
 * exactness invariant (longest path == measured cycles) across the
 * benchmark grid and machine variants, what-if projection semantics
 * (identity at the baseline, optimistic-bound soundness under
 * capacity increases), breakdown accounting, pinned non-baseline
 * projections, slack histograms, the WhatIf key=value parser, and the
 * sdsp-critpath CLI.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "critpath/ddg.hh"
#include "critpath/report.hh"
#include "common/logging.hh"
#include "common/stats_registry.hh"
#include "core/processor.hh"
#include "explore/lattice.hh"
#include "fuzz/generator.hh"
#include "harness/runner.hh"
#include "tools/critpath_cli.hh"
#include "workloads/workload.hh"

namespace sdsp
{
namespace
{

/** A machine for @p threads; the register file scales with the
 *  thread count so 8-thread points keep 32 registers per thread. */
MachineConfig
gridConfig(unsigned threads)
{
    MachineConfig cfg;
    cfg.numThreads = threads;
    cfg.numRegisters = 32 * threads;
    return cfg;
}

/** Run @p benchmark recorded, returning (trace, config, cycles). */
struct Recorded
{
    DdgTrace trace;
    MachineConfig config;
    Cycle cycles = 0;
};

Recorded
record(const std::string &benchmark, const MachineConfig &config,
       unsigned scale = 10)
{
    DdgRecorder recorder;
    RunResult run = runWorkload(workloadByName(benchmark), config,
                                scale, &recorder);
    EXPECT_TRUE(run.finished) << benchmark;
    EXPECT_TRUE(run.verified) << run.verifyMessage;
    return {recorder.takeTrace(), config, run.cycles};
}

// ---- Exactness across the benchmark grid ----

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

class CritpathExact : public ::testing::TestWithParam<GridPoint>
{
};

std::string
pointName(const ::testing::TestParamInfo<GridPoint> &info)
{
    return format("%s_%ut", info.param.benchmark,
                  info.param.threads);
}

TEST_P(CritpathExact, LongestPathEqualsMeasuredCycles)
{
    const GridPoint point = GetParam();
    Recorded run =
        record(point.benchmark, gridConfig(point.threads));
    DdgGraph graph(run.trace, run.config, run.cycles);
    EXPECT_EQ(graph.verifyExact(), "");
    EXPECT_EQ(graph.relax(WhatIf{}).cycles, run.cycles);
}

const GridPoint kGrid[] = {
    {"LL1", 1},     {"LL1", 4},     {"LL1", 8},    {"LL2", 1},
    {"LL2", 4},     {"LL2", 8},     {"LL3", 1},    {"LL3", 4},
    {"LL3", 8},     {"LL5", 1},     {"LL5", 4},    {"LL5", 8},
    {"LL7", 1},     {"LL7", 4},     {"LL7", 8},    {"LL11", 1},
    {"LL11", 4},    {"LL11", 8},    {"Laplace", 1}, {"Laplace", 4},
    {"Laplace", 8}, {"MPD", 1},     {"MPD", 4},    {"MPD", 8},
    {"Matrix", 1},  {"Matrix", 4},  {"Matrix", 8}, {"Sieve", 1},
    {"Sieve", 4},   {"Sieve", 8},   {"Water", 1},  {"Water", 4},
    {"Water", 8},
};

INSTANTIATE_TEST_SUITE_P(Benchmarks, CritpathExact,
                         ::testing::ValuesIn(kGrid), pointName);

// ---- Exactness under machine variants ----

TEST(Critpath, ExactAcrossMachineVariants)
{
    struct Variant
    {
        const char *name;
        void (*apply)(MachineConfig &);
    };
    const Variant variants[] = {
        {"maskedrr",
         [](MachineConfig &c) {
             c.fetchPolicy = FetchPolicy::MaskedRoundRobin;
         }},
        {"nobypass", [](MachineConfig &c) { c.bypassing = false; }},
        {"su16", [](MachineConfig &c) { c.suEntries = 16; }},
        {"su64", [](MachineConfig &c) { c.suEntries = 64; }},
        {"width4", [](MachineConfig &c) { c.issueWidth = 4; }},
        {"sb4", [](MachineConfig &c) { c.storeBufferEntries = 4; }},
    };
    for (const Variant &variant : variants) {
        MachineConfig cfg = gridConfig(4);
        variant.apply(cfg);
        Recorded run = record("LL5", cfg);
        DdgGraph graph(run.trace, run.config, run.cycles);
        EXPECT_EQ(graph.verifyExact(), "") << variant.name;
    }
}

// ---- What-if semantics ----

TEST(Critpath, BaselineWhatIfIsBitExact)
{
    // Re-relaxing under an unchanged configuration must reproduce
    // the measured cycle count exactly, for every breakdown class.
    Recorded run = record("LL2", gridConfig(4));
    DdgGraph graph(run.trace, run.config, run.cycles);

    WhatIf explicit_baseline;
    explicit_baseline.issueWidth = run.config.issueWidth;
    explicit_baseline.suEntries = run.config.suEntries;
    explicit_baseline.bypassing = run.config.bypassing ? 1 : 0;
    ASSERT_TRUE(explicit_baseline.isBaseline(run.config));

    RelaxResult implicit = graph.relax(WhatIf{});
    RelaxResult explicit_r = graph.relax(explicit_baseline);
    EXPECT_EQ(implicit.cycles, run.cycles);
    EXPECT_EQ(explicit_r.cycles, run.cycles);
    for (unsigned c = 0; c < kNumEdgeClasses; ++c)
        EXPECT_EQ(implicit.breakdown[c], explicit_r.breakdown[c])
            << edgeClassName(static_cast<EdgeClass>(c));
}

TEST(Critpath, BreakdownSumsToCriticalPath)
{
    Recorded run = record("Sieve", gridConfig(4));
    DdgGraph graph(run.trace, run.config, run.cycles);
    const WhatIf what_ifs[] = {WhatIf{}, [] {
                                   WhatIf w;
                                   w.issueWidth = 16;
                                   w.perfectDCache = true;
                                   return w;
                               }()};
    for (const WhatIf &what_if : what_ifs) {
        RelaxResult result = graph.relax(what_if);
        Cycle sum = 0;
        for (unsigned c = 0; c < kNumEdgeClasses; ++c)
            sum += result.breakdown[c];
        EXPECT_EQ(sum, result.cycles);
    }
}

TEST(Critpath, CapacityIncreasesAreOptimisticBounds)
{
    // Removing constraints can only shorten the projected critical
    // path: every capacity-increase projection must be <= measured.
    for (const char *benchmark : {"LL1", "LL5", "Sieve", "Water"}) {
        Recorded run = record(benchmark, gridConfig(4));
        DdgGraph graph(run.trace, run.config, run.cycles);
        ASSERT_EQ(graph.verifyExact(), "") << benchmark;

        const char *specs[] = {"issueWidth=16", "suEntries=64",
                               "perfectDCache=1",
                               "infiniteStoreBuffer=1",
                               "issueWidth=32,suEntries=128"};
        for (const char *spec : specs) {
            WhatIf what_if;
            std::istringstream clauses(spec);
            std::string clause, error;
            while (std::getline(clauses, clause, ','))
                ASSERT_TRUE(what_if.applyKeyValue(clause, &error))
                    << error;
            EXPECT_LE(graph.relax(what_if).cycles, run.cycles)
                << benchmark << " " << spec;
        }
    }
}

TEST(Critpath, ConfidenceClassesTagEveryProjection)
{
    Recorded run = record("LL1", gridConfig(4));
    DdgGraph graph(run.trace, run.config, run.cycles);

    // Baseline: exact, and no capacity constraint is ever skipped.
    RelaxResult baseline = graph.relax(WhatIf{});
    EXPECT_EQ(baseline.confidence, Confidence::Exact);
    EXPECT_EQ(baseline.skippedCapacityEdges, 0u);

    // A pure capacity increase is an optimistic bound; every
    // recorded capacity constraint stays representable.
    WhatIf increase;
    std::string error;
    ASSERT_TRUE(increase.applyKeyValue("suEntries=64", &error));
    RelaxResult optimistic = graph.relax(increase);
    EXPECT_EQ(optimistic.confidence, Confidence::OptimisticBound);
    EXPECT_EQ(optimistic.skippedCapacityEdges, 0u);

    // A capacity DECREASE must be tagged pessimistic-bound, with the
    // skipped dynamic constraints counted as evidence: under a
    // smaller capacity some rewired edges point backward in the
    // recorded topological order and cannot be applied.
    WhatIf decrease;
    ASSERT_TRUE(decrease.applyKeyValue("suEntries=16", &error));
    RelaxResult pessimistic = graph.relax(decrease);
    EXPECT_EQ(pessimistic.confidence, Confidence::PessimisticBound);
    EXPECT_GT(pessimistic.skippedCapacityEdges, 0u);

    WhatIf narrower;
    ASSERT_TRUE(narrower.applyKeyValue("issueWidth=4", &error));
    EXPECT_EQ(graph.relax(narrower).confidence,
              Confidence::PessimisticBound);

    // Non-capacity changes (latency, cache, bypassing) re-weight
    // recorded edges: optimistic-bound, not pessimistic.
    WhatIf latency;
    ASSERT_TRUE(latency.applyKeyValue("fuLat.Load=1", &error));
    EXPECT_EQ(graph.relax(latency).confidence,
              Confidence::OptimisticBound);
}

TEST(Critpath, PureCapacityIncreaseDetection)
{
    MachineConfig cfg = gridConfig(4);
    std::string error;

    WhatIf increase;
    ASSERT_TRUE(
        increase.applyKeyValue("issueWidth=16", &error));
    ASSERT_TRUE(increase.applyKeyValue("suEntries=64", &error));
    ASSERT_TRUE(
        increase.applyKeyValue("infiniteStoreBuffer=1", &error));
    EXPECT_TRUE(increase.isPureCapacityIncrease(cfg));

    WhatIf cache;
    ASSERT_TRUE(cache.applyKeyValue("perfectDCache=1", &error));
    EXPECT_FALSE(cache.isPureCapacityIncrease(cfg));

    WhatIf narrower;
    ASSERT_TRUE(narrower.applyKeyValue("issueWidth=4", &error));
    EXPECT_FALSE(narrower.isPureCapacityIncrease(cfg));

    WhatIf latency;
    ASSERT_TRUE(latency.applyKeyValue("fuLat.Load=1", &error));
    EXPECT_FALSE(latency.isPureCapacityIncrease(cfg));
}

TEST(Critpath, FuzzCorpusRespectsSoundness)
{
    // Fuzz-generated programs exercise shapes the workloads do not
    // (irregular branching, store-buffer pressure, faults held out
    // by the generator). Every one must build an exact graph, and
    // capacity-increase projections must stay <= measured.
    std::uint64_t seed = 500;
    for (const std::string &name : FuzzShape::presetNames()) {
        FuzzShape shape = FuzzShape::preset(name);
        for (unsigned threads : {1u, 4u}) {
            MachineConfig cfg;
            cfg.numThreads = threads;
            Program program = generateProgram(shape, ++seed);

            DdgRecorder recorder;
            Processor cpu(cfg, program);
            cpu.setTraceSink(&recorder);
            SimResult sim = cpu.run();
            ASSERT_TRUE(sim.finished) << name;

            DdgGraph graph(recorder.trace(), cfg, sim.cycles);
            EXPECT_EQ(graph.verifyExact(), "")
                << name << " t=" << threads << " seed " << seed;

            WhatIf wider;
            wider.issueWidth = 16;
            wider.suEntries = 64;
            wider.infiniteStoreBuffer = true;
            EXPECT_LE(graph.relax(wider).cycles, sim.cycles)
                << name << " t=" << threads << " seed " << seed;
        }
    }
}

// ---- Pinned projections ----

/** Fold the eight bytes of @p value into the FNV-1a hash @p hash. */
void
fnv1a(std::uint64_t &hash, std::uint64_t value)
{
    for (unsigned byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
}

TEST(Critpath, NonBaselineProjectionsArePinned)
{
    // Cycles, skipped capacity edges, breakdown and edge counts of a
    // spread of non-baseline projections — capacity increases and
    // decreases, re-weightings, dropped residual classes — pinned as
    // literals, so a change to the relaxation kernel cannot move a
    // projection unnoticed.
    const MachineConfig cfg = gridConfig(4);
    std::vector<WhatIf> what_ifs;
    for (const LatticePoint &point :
         buildLattice(LatticeAxes::reduced(), cfg))
        what_ifs.push_back(point.whatIf);
    for (const char *spec : {"suEntries=16", "issueWidth=4",
                             "bypassing=0",
                             "fuLat.Load=1,perfectDCache=1"}) {
        WhatIf what_if;
        std::istringstream clauses(spec);
        std::string clause, error;
        while (std::getline(clauses, clause, ','))
            ASSERT_TRUE(what_if.applyKeyValue(clause, &error)) << error;
        what_ifs.push_back(what_if);
    }

    struct Pinned
    {
        Cycle cycles;
        std::uint64_t skipped;
    };
    const std::vector<Pinned> kLL5 = {
        {8589, 8293}, {8589, 8293}, {8516, 8293}, {8516, 8293},
        {8813, 0}, {8813, 0}, {8783, 0}, {8783, 0},
        {8623, 0}, {8623, 0}, {8611, 0}, {8611, 0},
        {8521, 8293}, {8521, 8293}, {8516, 8293}, {8516, 8293},
        {8813, 0}, {8813, 0}, {8783, 0}, {8783, 0},
        {8618, 0}, {8618, 0}, {8608, 0}, {8608, 0},
        {8589, 8293}, {8814, 0}, {9348, 0}, {8701, 0},
    };
    const std::vector<Pinned> kSieve = {
        {3112, 2331}, {3010, 2331}, {3100, 2331}, {2998, 2331},
        {3581, 0}, {3546, 0}, {3571, 0}, {3536, 0},
        {3254, 0}, {3216, 0}, {3241, 0}, {3203, 0},
        {2998, 2331}, {2998, 2331}, {2994, 2331}, {2994, 2331},
        {3581, 0}, {3546, 0}, {3571, 0}, {3536, 0},
        {3243, 0}, {3208, 0}, {3227, 0}, {3192, 0},
        {3112, 2331}, {3582, 0}, {3697, 0}, {3562, 0},
    };
    const std::uint64_t kDigest = 0xe5924065d974802eULL;

    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const auto &[benchmark, pinned] :
         {std::pair{"LL5", &kLL5}, std::pair{"Sieve", &kSieve}}) {
        Recorded run = record(benchmark, cfg);
        DdgGraph graph(run.trace, run.config, run.cycles);
        ASSERT_EQ(pinned->size(), what_ifs.size());
        for (std::size_t i = 0; i < what_ifs.size(); ++i) {
            RelaxResult result = graph.relax(what_ifs[i]);
            const std::string where =
                std::string(benchmark) + " " +
                what_ifs[i].describe(cfg);
            EXPECT_EQ(result.cycles, (*pinned)[i].cycles) << where;
            EXPECT_EQ(result.skippedCapacityEdges,
                      (*pinned)[i].skipped)
                << where;
            for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
                fnv1a(digest, result.breakdown[c]);
                fnv1a(digest, result.edgeCounts[c]);
            }
        }
    }
    EXPECT_EQ(digest, kDigest);
}

// ---- Slack, stats, JSON ----

TEST(Critpath, SlackHistogramsCoverEveryStoredEdge)
{
    Recorded run = record("LL3", gridConfig(4));
    DdgGraph graph(run.trace, run.config, run.cycles);
    std::array<Distribution, kNumEdgeClasses> slack;
    graph.slackHistograms(slack);
    std::uint64_t samples = 0;
    for (const Distribution &dist : slack)
        samples += dist.count();
    EXPECT_EQ(samples, graph.edgeCount());
}

TEST(Critpath, StatsRegistryExport)
{
    Recorded run = record("LL1", gridConfig(1));
    DdgGraph graph(run.trace, run.config, run.cycles);
    RelaxResult baseline = graph.relax(WhatIf{});

    StatsRegistry stats;
    critpathReportStats(graph, baseline, stats);
    EXPECT_EQ(stats.get("critpath.cycles"), run.cycles);
    EXPECT_EQ(stats.get("critpath.nodes"), graph.nodeCount());
    EXPECT_EQ(stats.get("critpath.edges"), graph.edgeCount());
    Cycle sum = 0;
    for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
        std::string key =
            std::string("critpath.breakdown.") +
            edgeClassName(static_cast<EdgeClass>(c));
        if (stats.has(key))
            sum += stats.get(key);
    }
    EXPECT_EQ(sum, run.cycles);
}

TEST(Critpath, JsonReportShape)
{
    Recorded run = record("Matrix", gridConfig(4));
    DdgGraph graph(run.trace, run.config, run.cycles);
    RelaxResult baseline = graph.relax(WhatIf{});

    WhatIfProjection projection;
    projection.name = "issueWidth=16";
    projection.whatIf.issueWidth = 16;
    projection.result = graph.relax(projection.whatIf);

    std::string json =
        critpathJson("Matrix", graph, baseline, {projection});
    EXPECT_NE(json.find("\"schema\":\"sdsp-critpath-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"Matrix\""),
              std::string::npos);
    EXPECT_NE(json.find("\"exact\":true"), std::string::npos);
    EXPECT_NE(json.find("\"issueWidth=16\""), std::string::npos);
}

// ---- WhatIf parser ----

TEST(WhatIf, ParsesEveryKey)
{
    WhatIf what_if;
    std::string error;
    EXPECT_TRUE(what_if.applyKeyValue("issueWidth=16", &error));
    EXPECT_TRUE(what_if.applyKeyValue("suEntries=64", &error));
    EXPECT_TRUE(what_if.applyKeyValue("perfectDCache=1", &error));
    EXPECT_TRUE(
        what_if.applyKeyValue("infiniteStoreBuffer=1", &error));
    EXPECT_TRUE(what_if.applyKeyValue("bypassing=0", &error));
    EXPECT_TRUE(what_if.applyKeyValue("fuLat.IntMul=1", &error));
    EXPECT_EQ(what_if.issueWidth, 16);
    EXPECT_EQ(what_if.suEntries, 64);
    EXPECT_TRUE(what_if.perfectDCache);
    EXPECT_TRUE(what_if.infiniteStoreBuffer);
    EXPECT_EQ(what_if.bypassing, 0);
    EXPECT_EQ(
        what_if.fuLatency[static_cast<unsigned>(FuClass::IntMul)],
        1);
}

TEST(WhatIf, RejectsBadInput)
{
    WhatIf what_if;
    std::string error;
    EXPECT_FALSE(what_if.applyKeyValue("noequals", &error));
    EXPECT_FALSE(what_if.applyKeyValue("bogusKey=3", &error));
    EXPECT_FALSE(what_if.applyKeyValue("issueWidth=zap", &error));
    EXPECT_FALSE(what_if.applyKeyValue("fuLat.NotAUnit=2", &error));
    EXPECT_FALSE(error.empty());

    // Values that do not fit the field are refused, not narrowed
    // (2^32 would wrap to 0, the "keep the baseline" value).
    EXPECT_FALSE(what_if.applyKeyValue("issueWidth=4294967296", &error));
    EXPECT_FALSE(what_if.applyKeyValue("suEntries=4294967360", &error));
    EXPECT_FALSE(what_if.applyKeyValue("fuLat.Load=2147483648", &error));
    EXPECT_FALSE(what_if.applyKeyValue("fuLat.Load=4294967297", &error));
    EXPECT_TRUE(what_if.isBaseline(MachineConfig{}));
    EXPECT_TRUE(what_if.applyKeyValue("issueWidth=4294967295", &error));
    EXPECT_TRUE(what_if.applyKeyValue("fuLat.Load=2147483647", &error));
}

TEST(WhatIf, BaselineDetection)
{
    MachineConfig cfg;
    WhatIf what_if;
    EXPECT_TRUE(what_if.isBaseline(cfg));
    what_if.issueWidth = static_cast<int>(cfg.issueWidth);
    EXPECT_TRUE(what_if.isBaseline(cfg));
    what_if.issueWidth = 16;
    EXPECT_FALSE(what_if.isBaseline(cfg));
}

// ---- CLI ----

TEST(CritpathCli, WorkloadRunIsExactAndProjects)
{
    CritpathCliOptions options = parseCritpathCliOptions(
        {"--workload", "LL1", "--scale", "10", "--what-if",
         "issueWidth=16"});
    ASSERT_TRUE(options.ok) << options.error;
    std::ostringstream out;
    EXPECT_EQ(runCritpathCli(options, out), 0);
    EXPECT_NE(out.str().find("exact"), std::string::npos);
    EXPECT_NE(out.str().find("issueWidth=16"), std::string::npos);
}

TEST(CritpathCli, RejectsConflictingInputs)
{
    CritpathCliOptions options = parseCritpathCliOptions(
        {"--workload", "LL1", "--trace", "x.trace"});
    EXPECT_FALSE(options.ok);
}

TEST(CritpathCli, NumericValuesOutsideTheirFieldAreErrors)
{
    auto parse = [](std::vector<std::string> args) {
        return parseCritpathCliOptions(std::move(args));
    };
    // Both used to wrap to 32 bits: scale 10 and an SU of 64.
    EXPECT_FALSE(parse({"--workload", "LL1", "-t", "4", "--scale",
                        "4294967306"})
                     .ok);
    EXPECT_FALSE(parse({"--workload", "LL1", "-s", "4294967360"}).ok);
    EXPECT_FALSE(parse({"--workload", "LL1", "--scale", "10x"}).ok);
    EXPECT_FALSE(parse({"--workload", "LL1", "-t", "-4"}).ok);

    CritpathCliOptions options =
        parse({"--workload", "LL1", "--scale", "10", "-s", "48"});
    ASSERT_TRUE(options.ok) << options.error;
    EXPECT_EQ(options.scale, 10u);
    EXPECT_EQ(options.config.suEntries, 48u);
    EXPECT_EQ(options.config.numThreads, 4u); // the usage's default
    EXPECT_NE(critpathCliUsage().find("-t N                 resident "
                                      "threads (default 4)"),
              std::string::npos);
}

TEST(CritpathCli, UnknownWorkloadFailsCleanly)
{
    CritpathCliOptions options = parseCritpathCliOptions(
        {"--workload", "NoSuchBenchmark"});
    ASSERT_TRUE(options.ok) << options.error;
    std::ostringstream out;
    EXPECT_EQ(runCritpathCli(options, out), 1);
}

} // namespace
} // namespace sdsp
