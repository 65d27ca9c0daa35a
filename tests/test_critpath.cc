/**
 * @file
 * Tests for the dynamic dependence-graph critical-path engine: the
 * exactness invariant (longest path == measured cycles) across the
 * benchmark grid and machine variants, what-if projection semantics
 * (identity at the baseline, optimistic-bound soundness under
 * capacity increases), breakdown accounting, pinned built graphs and
 * non-baseline projections, named errors for what the graph cannot
 * hold, slack histograms, the WhatIf key=value parser, and sdsp-run's
 * critical-path report.
 */

#include <cstdint>
#include <ios>
#include <iterator>
#include <sstream>
#include <stdexcept>
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
#include "machine_variants.hh"
#include "tools/cli.hh"
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

    CriticalPath implicit = graph.criticalPath(WhatIf{});
    CriticalPath explicit_r = graph.criticalPath(explicit_baseline);
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
        CriticalPath result = graph.criticalPath(what_if);
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
            std::string error;
            ASSERT_TRUE(what_if.applyKeyValues(spec, &error)) << error;
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

/** The FNV-1a offset basis: the hash of no bytes. */
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** @p graph's critical path under @p what_if, after checking that
 *  relax() makes the same projection without walking it. */
CriticalPath
checkedCriticalPath(const DdgGraph &graph, const WhatIf &what_if)
{
    const CriticalPath path = graph.criticalPath(what_if);
    const RelaxResult projection = graph.relax(what_if);
    EXPECT_EQ(projection.cycles, path.cycles);
    EXPECT_EQ(projection.confidence, path.confidence);
    EXPECT_EQ(projection.skippedCapacityEdges, path.skippedCapacityEdges);
    return path;
}

TEST(Critpath, NonBaselineProjectionsArePinned)
{
    // Cycles, skipped capacity edges, breakdown and edge counts of a
    // spread of non-baseline critical paths — capacity increases and
    // decreases, re-weightings, dropped residual classes — pinned as
    // literals, so a change to the relaxation kernel or the walk
    // cannot move a projection unnoticed; relax() projects each the
    // same.
    const MachineConfig cfg = gridConfig(4);
    std::vector<WhatIf> what_ifs;
    for (const LatticePoint &point :
         buildLattice(LatticeAxes::reduced(), cfg))
        what_ifs.push_back(point.whatIf);
    for (const char *spec : {"suEntries=16", "issueWidth=4",
                             "bypassing=0",
                             "fuLat.Load=1,perfectDCache=1"}) {
        WhatIf what_if;
        std::string error;
        ASSERT_TRUE(what_if.applyKeyValues(spec, &error)) << error;
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

    std::uint64_t digest = kFnvBasis;
    for (const auto &[benchmark, pinned] :
         {std::pair{"LL5", &kLL5}, std::pair{"Sieve", &kSieve}}) {
        Recorded run = record(benchmark, cfg);
        DdgGraph graph(run.trace, run.config, run.cycles);
        ASSERT_EQ(pinned->size(), what_ifs.size());
        for (std::size_t i = 0; i < what_ifs.size(); ++i) {
            const std::string where =
                std::string(benchmark) + " " +
                what_ifs[i].describe(cfg);
            SCOPED_TRACE(where);
            const CriticalPath result =
                checkedCriticalPath(graph, what_ifs[i]);
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

TEST(Critpath, LatticeProjectionsArePinned)
{
    // Every CriticalPath field of every 7th point of the full lattice
    // against three recordings, and relax()'s projection of each.
    // Seven is prime to every axis size, so the 494 points take every
    // axis value: both D-cache modes, wider and narrower issue, deeper
    // and shallower SUs.
    const MachineConfig cfg = gridConfig(4);
    const std::vector<LatticePoint> lattice =
        buildLattice(LatticeAxes::full(), cfg);
    std::vector<WhatIf> what_ifs;
    for (std::size_t i = 0; i < lattice.size(); i += 7)
        what_ifs.push_back(lattice[i].whatIf);
    ASSERT_EQ(what_ifs.size(), 494u);

    struct LatticePin
    {
        const char *benchmark;
        std::uint64_t digest;
    };
    const LatticePin kPins[] = {
        {"LL1", 0x231729385687d1e3},
        {"LL5", 0x2299d856447789a4},
        {"Sieve", 0x7f5ba47ed4dd351a},
    };
    for (const LatticePin &pin : kPins) {
        SCOPED_TRACE(pin.benchmark);
        Recorded run = record(pin.benchmark, cfg);
        DdgGraph graph(run.trace, run.config, run.cycles);
        std::uint64_t digest = kFnvBasis;
        std::uint64_t perfect = 0, pessimistic = 0, skipped = 0;
        for (const WhatIf &what_if : what_ifs) {
            const CriticalPath result =
                checkedCriticalPath(graph, what_if);
            fnv1a(digest, result.cycles);
            for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
                fnv1a(digest, result.breakdown[c]);
                fnv1a(digest, result.edgeCounts[c]);
            }
            fnv1a(digest, static_cast<std::uint64_t>(result.confidence));
            fnv1a(digest, result.skippedCapacityEdges);
            perfect += what_if.perfectDCache;
            pessimistic +=
                result.confidence == Confidence::PessimisticBound;
            skipped += result.skippedCapacityEdges != 0;
        }
        EXPECT_GT(perfect, 0u);
        EXPECT_LT(perfect, what_ifs.size());
        EXPECT_GT(pessimistic, 0u);
        EXPECT_GT(skipped, 0u);
        EXPECT_EQ(digest, pin.digest)
            << std::hex << std::showbase << "lattice digest " << digest;
    }
}

// ---- Pinned graphs ----

/** Digest of every node, CSR offset and edge field of @p graph. */
std::uint64_t
graphDigest(const DdgGraph &graph)
{
    std::uint64_t hash = kFnvBasis;
    for (const DdgGraph::Node &node : graph.nodes()) {
        fnv1a(hash, static_cast<std::uint64_t>(node.kind));
        fnv1a(hash, node.owner);
        fnv1a(hash, node.observed);
    }
    for (std::uint32_t start : graph.edgeStart())
        fnv1a(hash, start);
    for (std::size_t e = 0; e < graph.edgeCount(); ++e) {
        const DdgGraph::Edge edge = graph.edge(e);
        fnv1a(hash, edge.src);
        fnv1a(hash, static_cast<std::uint64_t>(edge.cls));
        fnv1a(hash, static_cast<std::uint64_t>(edge.fuClass));
        fnv1a(hash, edge.weight);
        fnv1a(hash, edge.missExtra);
    }
    return hash;
}

/** Digest of @p graph's critical paths under a smaller SU and a
 *  narrower issue: their rewired capacity edges read both baseline
 *  orderings (commit and issue order) at the rank in each Dispatch
 *  and Issue node's capacity word. relax() projects each the same. */
std::uint64_t
relaxDigest(const DdgGraph &graph)
{
    std::uint64_t hash = kFnvBasis;
    for (const char *spec : {"suEntries=16", "issueWidth=2"}) {
        WhatIf what_if;
        std::string error;
        EXPECT_TRUE(what_if.applyKeyValue(spec, &error)) << error;
        const CriticalPath result = checkedCriticalPath(graph, what_if);
        fnv1a(hash, result.cycles);
        fnv1a(hash, result.skippedCapacityEdges);
        for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
            fnv1a(hash, result.breakdown[c]);
            fnv1a(hash, result.edgeCounts[c]);
        }
    }
    return hash;
}

/** Check @p graph against its two pinned digests. */
void
expectPinnedGraph(const DdgGraph &graph, std::uint64_t graph_digest,
                  std::uint64_t relax_digest)
{
    EXPECT_EQ(graph.verifyExact(), "");
    EXPECT_EQ(graphDigest(graph), graph_digest)
        << std::hex << std::showbase << "graph digest "
        << graphDigest(graph);
    EXPECT_EQ(relaxDigest(graph), relax_digest)
        << std::hex << std::showbase << "relax digest "
        << relaxDigest(graph);
}

/** A workload on a machine variant of test_stats_digest, with the
 *  digests of its built graph and of two capacity relaxations. */
struct GraphPin
{
    const char *workload;
    unsigned threads;
    const char *variant;
    std::uint64_t graphDigest;
    std::uint64_t relaxDigest;
};

void
PrintTo(const GraphPin &pin, std::ostream *os)
{
    *os << pin.workload << "/" << pin.threads << "t/" << pin.variant;
}

class CritpathGraphPin : public ::testing::TestWithParam<GraphPin>
{
};

TEST_P(CritpathGraphPin, BuiltGraphIsPinned)
{
    // The graph the builder returns, field for field: a change to
    // the recording or the build that moves one node, one CSR offset
    // or one edge field fails here, even when the graph stays exact.
    const GraphPin &pin = GetParam();
    Recorded run =
        record(pin.workload, machineVariant(pin.threads, pin.variant));
    DdgGraph graph(run.trace, run.config, run.cycles);
    expectPinnedGraph(graph, pin.graphDigest, pin.relaxDigest);
}

const GraphPin kGraphPins[] = {
    {"LL1", 1, "base",
     0xae4f31194d20822a, 0xee5d0a9bd2c6cdce},
    {"LL1", 4, "base",
     0x800c57a03ea1e052, 0x6f36e06f3fe398b6},
    {"LL1", 6, "base",
     0x3623b7bf9cafdc24, 0x4fda67aea693a750},
    {"LL2", 1, "base",
     0x9fb61b26eedef062, 0xccec674564d73cbf},
    {"LL2", 4, "base",
     0x94b79bc01cdf5be4, 0xcb3539be71fa38bf},
    {"LL2", 6, "base",
     0x85e7e0a9e5b97a13, 0x22ee6b0545a31f0c},
    {"LL3", 1, "base",
     0x73cfde9476563a15, 0x3a39b37b54fbaca7},
    {"LL3", 4, "base",
     0xd50aa5ef5a059f23, 0x9deedaa701ce33bc},
    {"LL3", 6, "base",
     0x189f9cee9d08ec0e, 0x1122981325007ab1},
    {"LL5", 1, "base",
     0xb4ec1677914d5988, 0x66f2181647fa6689},
    {"LL5", 4, "base",
     0xff5ae0a04eda1bd2, 0xb7f5a9542299c05},
    {"LL5", 6, "base",
     0xdcf94d30e0362a4, 0x213d288f0dc05332},
    {"LL7", 1, "base",
     0xe8fa8b2c9d15d645, 0x383da4a08e88ddd4},
    {"LL7", 4, "base",
     0x12bb3947910d04ed, 0x6a92cac80f949f0f},
    {"LL7", 6, "base",
     0x9bc6442adf3ff256, 0x29e2a389959759eb},
    {"LL11", 1, "base",
     0x6e338558727d7a5d, 0x699825c86e33b0e2},
    {"LL11", 4, "base",
     0x659a28a38812b44, 0x19ea4d64f0e749a6},
    {"LL11", 6, "base",
     0x4ab3f2245ed0d796, 0x4628aef1753c2e8d},
    {"Laplace", 1, "base",
     0xf5411bb4e6ef44aa, 0xba4540f32dfb55b},
    {"Laplace", 4, "base",
     0xf87d9b3f6fae1bdc, 0x65396797abe051e1},
    {"Laplace", 6, "base",
     0x2b6ab7865cdd6749, 0x39d15ff7380e72ec},
    {"MPD", 1, "base",
     0x852981c2c7c9b72a, 0x20faff0629fe88a8},
    {"MPD", 4, "base",
     0x636480a4503159b9, 0x48b5ea33b3c09da4},
    {"MPD", 6, "base",
     0x75a0293bedc096a1, 0x9e3cdfae2f5df331},
    {"Matrix", 1, "base",
     0x903dc763394ab312, 0x6e4e28148981d14e},
    {"Matrix", 4, "base",
     0x9bf566441cec970c, 0xda71ead02eaa38ee},
    {"Matrix", 6, "base",
     0xeab4a4536779c329, 0x4143c65c5ee1075f},
    {"Sieve", 1, "base",
     0x9c574312fab07378, 0xa1835ce92011a187},
    {"Sieve", 4, "base",
     0xc6395f62d7cb6029, 0xc69a3310eeedad8f},
    {"Sieve", 6, "base",
     0x5389a7eae9c8ad79, 0x4f5ec0447c65f0a0},
    {"Water", 1, "base",
     0x19b3ca4f6fb0f1ea, 0x4986f23b1de32746},
    {"Water", 4, "base",
     0x13b881f5093e9780, 0x88363ef2a153f529},
    {"Water", 6, "base",
     0x7462e44cc0546a18, 0x165ce2ebd41bfa10},
    {"LL5", 4, "su16",
     0xdf3b5932d6195ea1, 0x2a2427c28a48425d},
    {"LL5", 4, "su128",
     0xdbc17017ceff8b4e, 0x38c14c04fdf8c52},
    {"LL5", 4, "issue16",
     0x1d21b9c5bb86f39f, 0xdf0345ce8a0d8caa},
    {"LL5", 4, "nobypass",
     0xd914860ad69f7901, 0xc1f4f7ed7740ff85},
    {"LL5", 4, "scoreboard",
     0xf8d02689447167eb, 0x3b885df3ef709182},
    {"LL5", 4, "lowestblock",
     0xb7b440b9f2bc0e2b, 0x3993f5378e3b9ea5},
    {"LL5", 4, "maskedrr",
     0x65fe93a4dcd4ad53, 0xad80812c0243231},
    {"LL5", 4, "condswitch",
     0xae639295da86ac54, 0xa65c614344b325bb},
    {"LL5", 4, "adaptive",
     0x7182da3d18dc3620, 0x791e7e2bfb550680},
    {"LL5", 4, "weighted",
     0x86faf54394e3098e, 0xa288ba5a5236b68e},
    {"LL5", 4, "directmapped",
     0xff5ae0a04eda1bd2, 0xb7f5a9542299c05},
    {"LL5", 4, "partitioned",
     0xdebde2ffd98d8bc, 0xbfcc066009612264},
    {"LL5", 4, "privatebtb",
     0xc84c74a6e5d43809, 0x8f9eb672f896c659},
    {"LL5", 4, "icache",
     0x4691f00adbca4bbb, 0xb019cd7f67da4b63},
    {"Sieve", 4, "su16",
     0x51b4421a237337ea, 0x8c39910fc53eb446},
    {"Sieve", 4, "su128",
     0xf362614156c03572, 0xf5438640cc8ae9bc},
    {"Sieve", 4, "issue16",
     0x7eeaf2353eddfd49, 0x1b6ee20966e062d5},
    {"Sieve", 4, "nobypass",
     0x32db8ba8a21802f1, 0xb70c972882259f0f},
    {"Sieve", 4, "scoreboard",
     0x87afdb1090d01205, 0x376eb2c5a0431a50},
    {"Sieve", 4, "lowestblock",
     0xaf96b91e1c9d6c5e, 0x7fa6c757a6b6ad4c},
    {"Sieve", 4, "maskedrr",
     0xbace2d952ef26d93, 0x9f78e59054863693},
    {"Sieve", 4, "condswitch",
     0xfc428c2c7f51ebc3, 0xd44666faf1d4b706},
    {"Sieve", 4, "adaptive",
     0x3a587ca75999695c, 0x5efb79effce0b86b},
    {"Sieve", 4, "weighted",
     0x319842d9f8c4c5d6, 0xf1a917c41b1bf9f},
    {"Sieve", 4, "directmapped",
     0xc6395f62d7cb6029, 0xc69a3310eeedad8f},
    {"Sieve", 4, "partitioned",
     0x8e5e49baac493500, 0xe2a54bcc18b65bed},
    {"Sieve", 4, "privatebtb",
     0x21c2576e1e00d1e5, 0x401e4f6781d6d19c},
    {"Sieve", 4, "icache",
     0x104dc3ea7afc6c65, 0x6dd5f9346c2530e9},
    {"Water", 4, "su16",
     0x8d0d6d176af39579, 0x8dfde6626071c71},
    {"Water", 4, "su128",
     0x481841649d6d7dd1, 0x4cd292a79a3e9eda},
    {"Water", 4, "issue16",
     0xfaccd417c548111c, 0xb07dad949379929c},
    {"Water", 4, "nobypass",
     0x56856984df7772d1, 0x555119824646f236},
    {"Water", 4, "scoreboard",
     0xa2417e703991fb69, 0x1734dc024b83274e},
    {"Water", 4, "lowestblock",
     0x64247095474ef7db, 0x26cfc799d9cca7cf},
    {"Water", 4, "maskedrr",
     0x910e8c638ed40f52, 0xebb97d5169118d49},
    {"Water", 4, "condswitch",
     0xf44764eadf8deecb, 0xd498b26aac2e2aa8},
    {"Water", 4, "adaptive",
     0x92e021fd139a0788, 0xaa0dad3fac4feaff},
    {"Water", 4, "weighted",
     0x38c155c06a367668, 0x343200752d72dd78},
    {"Water", 4, "directmapped",
     0x13b881f5093e9780, 0x88363ef2a153f529},
    {"Water", 4, "partitioned",
     0xbcfc6bf5283b24fd, 0xb3e1e4e84ca8f664},
    {"Water", 4, "privatebtb",
     0x33b1886f7d90a06d, 0xca9c6cab6d335f75},
    {"Water", 4, "icache",
     0xab48e99025271001, 0x8fd588a1fa8863a0},
};

std::string
graphPinName(const ::testing::TestParamInfo<GraphPin> &info)
{
    return format("%s_%ut_%s", info.param.workload, info.param.threads,
                  info.param.variant);
}

INSTANTIATE_TEST_SUITE_P(Pinned, CritpathGraphPin,
                         ::testing::ValuesIn(kGraphPins), graphPinName);

TEST(Critpath, FuzzPresetGraphsArePinned)
{
    // One seeded fuzz program per preset at four threads: shapes the
    // workloads do not take (irregular branching, store-buffer
    // pressure, deep dependence chains).
    struct FuzzPin
    {
        const char *preset;
        std::uint64_t graphDigest;
        std::uint64_t relaxDigest;
    };
    const FuzzPin kPins[] = {
        {"smoke", 0x1ccaef92bcec7cfb, 0xd441f702844c06c0},
        {"branchy", 0x324f42f9123cb3b0, 0x859aa1782576e8c4},
        {"loopy", 0xee9fff001fe9c0bd, 0x9be5bddcd4be17ef},
        {"memory", 0xae7b4fcf5fe4a2a0, 0xd033a91ad8366938},
        {"deep", 0xe3a8d82bf4d21d32, 0x953ad7c75c997f8c},
    };
    ASSERT_EQ(std::size(kPins), FuzzShape::presetNames().size());
    std::uint64_t seed = 2200;
    for (const FuzzPin &pin : kPins) {
        SCOPED_TRACE(pin.preset);
        MachineConfig cfg;
        cfg.numThreads = 4;
        Program program =
            generateProgram(FuzzShape::preset(pin.preset), ++seed);
        DdgRecorder recorder;
        Processor cpu(cfg, program);
        cpu.setTraceSink(&recorder);
        const SimResult sim = cpu.run();
        ASSERT_TRUE(sim.finished);
        DdgGraph graph(recorder.trace(), cfg, sim.cycles);
        expectPinnedGraph(graph, pin.graphDigest, pin.relaxDigest);
    }
}

TEST(Critpath, CyclesBeyondTheSortKeyAreANamedError)
{
    // A node's sort key holds its cycle above its (stage rank, age)
    // index; a run too long for the bits left is refused by name,
    // never truncated into a wrong order.
    const DdgTrace empty;
    EXPECT_THROW(DdgGraph(empty, MachineConfig{}, Cycle{1} << 62),
                 std::length_error);
    EXPECT_EQ(DdgGraph(empty, MachineConfig{}, 1000).verifyExact(), "");
}

TEST(Critpath, EdgeWeightsBeyondTheEdgeWordAreANamedError)
{
    // An edge word holds the weight and the miss cycles above the
    // (edge class, FU class) code. A weight that does not fit is
    // refused by name, never wrapped into a wrong edge. One block of
    // one instruction whose issue waits `wait` cycles past its
    // dispatch: the issue residual from the Dispatch node weighs
    // exactly `wait`.
    const MachineConfig cfg;
    auto build = [&](Cycle wait) {
        DdgTrace trace;
        DdgBlock &block = trace.blocks.emplace_back();
        block.blockSeq = 1;
        block.fetchedAt = 1;
        block.dispatchedAt = 2;
        block.instCount = 1;
        DdgInst &inst = trace.insts.emplace_back();
        inst.seq = 1;
        inst.issuedAt = block.dispatchedAt + wait;
        inst.completedAt =
            inst.issuedAt + cfg.fu.latencyOf(FuClass::IntAlu);
        block.committedAt = inst.completedAt + 1;
        return DdgGraph(trace, cfg, block.committedAt + 1);
    };
    const Cycle limit = DdgGraph::kWeightLimit;
    try {
        build(limit);
        ADD_FAILURE() << "a " << limit << "-cycle edge was built";
    } catch (const std::length_error &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("issueBandwidth"), std::string::npos)
            << what;
        EXPECT_NE(what.find(std::to_string(limit)), std::string::npos)
            << what;
    }
    const DdgGraph fits = build(limit - 1);
    EXPECT_EQ(fits.verifyExact(), "");
    EXPECT_EQ(fits.relax(WhatIf{}).cycles, fits.measuredCycles());
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
    CriticalPath baseline = graph.criticalPath(WhatIf{});

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
    CriticalPath baseline = graph.criticalPath(WhatIf{});

    WhatIfProjection projection;
    projection.name = "issueWidth=16";
    projection.whatIf.issueWidth = 16;
    projection.result = graph.criticalPath(projection.whatIf);

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
    // A latency below one cycle, as validate() refuses it, and a sign.
    EXPECT_FALSE(what_if.applyKeyValue("fuLat.Load=0", &error));
    EXPECT_FALSE(what_if.applyKeyValue("bypassing=-1", &error));
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

    // 33 entries round down to the 32 of eight whole blocks: the same
    // machine, so the projection is exact.
    WhatIf rounded;
    std::string error;
    ASSERT_TRUE(rounded.applyKeyValue("suEntries=33", &error)) << error;
    EXPECT_TRUE(rounded.isBaseline(cfg));
    EXPECT_EQ(classifyWhatIf(rounded, cfg), Confidence::Exact);
}

// ---- sdsp-run's critical-path report ----

TEST(CritpathCli, WorkloadRunIsExactAndProjects)
{
    CliOptions options = parseCliOptions(
        {"--workload", "LL1", "--scale", "10", "--what-if",
         "issueWidth=16"});
    ASSERT_TRUE(options.ok) << options.error;
    EXPECT_TRUE(options.critpath);
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 0) << out.str();
    EXPECT_NE(out.str().find(" cycles (exact), "), std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("what-if issueWidth=16 "), std::string::npos)
        << out.str();
}

TEST(CritpathCli, WorkloadRunMatchesTheHarness)
{
    // The image the harness runs, on the same machine, to the same
    // cycle, and verified against the same C++ reference.
    CliOptions options =
        parseCliOptions({"--workload", "LL1", "--scale", "10"});
    ASSERT_TRUE(options.ok) << options.error;
    EXPECT_FALSE(options.critpath);
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 0) << out.str();
    RunResult harness =
        runWorkload(workloadByName("LL1"), options.config, 10);
    ASSERT_TRUE(harness.verified) << harness.verifyMessage;
    EXPECT_NE(out.str().find("\ncycles    : " +
                             std::to_string(harness.cycles) + "\n"),
              std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("\nverified  : yes\n"), std::string::npos)
        << out.str();
}

TEST(CritpathCli, RejectsConflictingInputs)
{
    for (std::vector<std::string> args :
         {std::vector<std::string>{"--workload", "LL1", "prog.s"},
          {"--workload", "LL1", "--replay", "x.trace"},
          {"--workload", "LL1", "--replay-stream", "x.trace"},
          {"prog.s", "--replay", "x.trace"},
          {"--replay", "x.trace", "--replay-stream", "x.trace"},
          {}}) {
        CliOptions options = parseCliOptions(args);
        EXPECT_FALSE(options.ok);
        EXPECT_EQ(options.error,
                  "give exactly one of a program file, --workload NAME, "
                  "--replay FILE or --replay-stream LIST");
    }
    // --scale sizes a workload and nothing else.
    EXPECT_EQ(parseCliOptions({"--scale", "10", "prog.s"}).error,
              "--scale needs --workload");
}

TEST(CritpathCli, NumericValuesOutsideTheirFieldAreErrors)
{
    auto parse = [](std::vector<std::string> args) {
        return parseCliOptions(std::move(args));
    };
    // Both used to wrap to 32 bits: scale 10 and an SU of 64.
    EXPECT_FALSE(parse({"--workload", "LL1", "-t", "4", "--scale",
                        "4294967306"})
                     .ok);
    EXPECT_FALSE(parse({"--workload", "LL1", "-s", "4294967360"}).ok);
    EXPECT_FALSE(parse({"--workload", "LL1", "--scale", "10x"}).ok);
    EXPECT_FALSE(parse({"--workload", "LL1", "-t", "-4"}).ok);

    CliOptions options =
        parse({"--workload", "LL1", "--scale", "10", "-s", "48"});
    ASSERT_TRUE(options.ok) << options.error;
    EXPECT_EQ(options.scale, 10u);
    EXPECT_EQ(options.config.suEntries, 48u);
    EXPECT_EQ(options.config.numThreads, 4u); // the usage's default
    EXPECT_EQ(parse({"--workload", "LL1"}).scale, 100u);
    EXPECT_NE(cliUsage().find("-t N                 resident "
                              "threads (default 4)"),
              std::string::npos);
}

TEST(CritpathCli, BadWhatIfFailsWhileParsing)
{
    // Rejected with the options, before the recording run.
    CliOptions bad =
        parseCliOptions({"--workload", "LL1", "--what-if", "bogus=1"});
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("bogus"), std::string::npos) << bad.error;
    EXPECT_FALSE(parseCliOptions({"--workload", "LL1", "--what-if",
                                  "issueWidth=16,suEntries=x"})
                     .ok);
    // No sign, and no latency below one cycle.
    EXPECT_FALSE(parseCliOptions(
                     {"--workload", "LL1", "--what-if", "bypassing=-1"})
                     .ok);
    EXPECT_FALSE(parseCliOptions(
                     {"--workload", "LL1", "--what-if", "fuLat.Load=0"})
                     .ok);

    // Values are read like sdsp-run's -s 0x20: 0x-hex and 0-octal.
    CliOptions good = parseCliOptions(
        {"--workload", "LL1", "--what-if", "issueWidth=0x10,suEntries=0100",
         "--what-if", "perfectDCache=1"});
    ASSERT_TRUE(good.ok) << good.error;
    ASSERT_EQ(good.whatIfs.size(), 2u);
    EXPECT_EQ(good.whatIfs[0].issueWidth, 16u);
    EXPECT_EQ(good.whatIfs[0].suEntries, 64u);
    EXPECT_TRUE(good.whatIfs[1].perfectDCache);
}

TEST(CritpathCli, UnknownWorkloadFailsCleanly)
{
    CliOptions options =
        parseCliOptions({"--workload", "NoSuchBenchmark"});
    ASSERT_TRUE(options.ok) << options.error;
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 1);
    EXPECT_EQ(out.str(),
              "sdsp-run: no benchmark named 'NoSuchBenchmark' "
              "(see --list)\n");

    // --list names every benchmark --workload takes.
    std::ostringstream listed;
    EXPECT_EQ(runCli(parseCliOptions({"--list"}), listed, trace), 0);
    for (const Workload *workload : allWorkloads())
        EXPECT_NE(listed.str().find(workload->name() + "\n"),
                  std::string::npos);
    for (const Workload *workload : extensionWorkloads())
        EXPECT_NE(listed.str().find(workload->name() + "\n"),
                  std::string::npos);
}

} // namespace
} // namespace sdsp
