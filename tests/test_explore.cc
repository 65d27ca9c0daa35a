/**
 * @file
 * Tests for the design-space lattice explorer: lattice enumeration
 * (size, unique names, exactly one Exact point, every point's name,
 * cost and confidence pinned), the additive cost model, recordings
 * independent of the job count, confidence-class propagation into
 * the projections, the Pareto-frontier invariants (no dominated
 * point, no pessimistic bound, determinism across job counts),
 * frontier validation against real re-simulations, the
 * scale-tolerance rule and the five explore gates, the
 * register-budget finalize fix at 8 threads, and the sdsp-explore
 * CLI.
 */

#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "explore/explore.hh"
#include "explore/lattice.hh"
#include "harness/runner.hh"
#include "tools/explore_cli.hh"
#include "workloads/workload.hh"

namespace sdsp
{
namespace
{

MachineConfig
baseConfig(unsigned threads = 4)
{
    MachineConfig cfg;
    cfg.numThreads = threads;
    cfg.finalize();
    return cfg;
}

/** Record LL1 fresh at a small scale (deterministic simulator, so
 *  every call yields identical graphs). */
std::vector<ExploreRecording>
ll1Recordings()
{
    std::vector<ExploreRecording> recordings;
    recordings.push_back(
        recordBaseline(workloadByName("LL1"), baseConfig(), 10));
    EXPECT_TRUE(recordings[0].error.empty())
        << recordings[0].error;
    return recordings;
}

// ---- Lattice enumeration ----

TEST(Lattice, FullLatticeIsLargeWithUniqueNames)
{
    MachineConfig base = baseConfig();
    std::vector<LatticePoint> points =
        buildLattice(LatticeAxes::full(), base);
    EXPECT_EQ(points.size(), LatticeAxes::full().pointCount());
    EXPECT_GE(points.size(), 2000u);

    std::set<std::string> names;
    std::size_t exact = 0;
    for (const LatticePoint &point : points) {
        names.insert(point.name);
        EXPECT_GT(point.cost, 0.0) << point.name;
        if (point.confidence == Confidence::Exact)
            ++exact;
        // "Baseline" means the what-if applies to the same machine.
        EXPECT_EQ(point.confidence == Confidence::Exact,
                  applyWhatIf(point.whatIf, base) == base)
            << point.name;
    }
    EXPECT_EQ(names.size(), points.size());
    // The axes include every baseline value, so exactly one point is
    // the baseline itself.
    EXPECT_EQ(exact, 1u);
}

TEST(Lattice, ReducedLatticeMatchesAdvertisedSize)
{
    EXPECT_EQ(LatticeAxes::reduced().pointCount(), 24u);
}

/** Fold the @p size bytes at @p data into the FNV-1a hash @p hash. */
void
fnv1a(std::uint64_t &hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
}

TEST(Lattice, PointsArePinned)
{
    // The name, the bit pattern of the cost and the confidence tag of
    // every point of both lattices, on the paper machine and on a
    // narrow one (issue width 4, 16 SU entries, no bypassing, one-
    // cycle loads) that moves the one Exact point of the full lattice.
    const MachineConfig paper = baseConfig();
    MachineConfig narrow = baseConfig();
    narrow.issueWidth = 4;
    narrow.suEntries = 16;
    narrow.bypassing = false;
    narrow.fu.latency[static_cast<unsigned>(FuClass::Load)] = 1;

    struct Pin
    {
        const char *what;
        LatticeAxes axes;
        const MachineConfig *base;
        std::size_t exact;
        std::uint64_t digest;
    };
    const Pin kPins[] = {
        {"full/paper", LatticeAxes::full(), &paper, 1,
         0x765f51c271c8b2ddULL},
        {"reduced/paper", LatticeAxes::reduced(), &paper, 1,
         0xc375159a46f50823ULL},
        {"full/narrow", LatticeAxes::full(), &narrow, 1,
         0x26daa339528153acULL},
        {"reduced/narrow", LatticeAxes::reduced(), &narrow, 0,
         0xe24cfc4aa3ec00beULL},
    };
    for (const Pin &pin : kPins) {
        SCOPED_TRACE(pin.what);
        std::uint64_t digest = 0xcbf29ce484222325ULL;
        std::size_t exact = 0;
        for (const LatticePoint &point :
             buildLattice(pin.axes, *pin.base)) {
            const auto cost = std::bit_cast<std::uint64_t>(point.cost);
            const auto confidence =
                static_cast<std::uint8_t>(point.confidence);
            fnv1a(digest, point.name.data(), point.name.size() + 1);
            fnv1a(digest, &cost, sizeof cost);
            fnv1a(digest, &confidence, sizeof confidence);
            exact += point.confidence == Confidence::Exact;
        }
        EXPECT_EQ(exact, pin.exact);
        EXPECT_EQ(digest, pin.digest)
            << std::hex << std::showbase << "lattice digest " << digest;
    }
}

TEST(Lattice, OverrideAxisReplacesOrAppends)
{
    LatticeAxes axes = LatticeAxes::reduced();
    std::size_t before = axes.axes.size();
    axes.overrideAxis({"suEntries", {32, 64}});
    EXPECT_EQ(axes.axes.size(), before);
    axes.overrideAxis({"fuLat.Load", {1, 2}});
    EXPECT_EQ(axes.axes.size(), before + 1);
    EXPECT_EQ(axes.pointCount(), 2u * 2 * 2 * 2 * 2);
}

TEST(Lattice, CostModelIsMonotoneInCapacity)
{
    MachineConfig base = baseConfig();
    auto costOf = [&](const std::string &spec) {
        WhatIf what_if;
        std::string error;
        EXPECT_TRUE(what_if.applyKeyValues(spec, &error)) << error;
        return latticeCost(what_if, base);
    };
    EXPECT_LT(costOf("issueWidth=8"), costOf("issueWidth=16"));
    EXPECT_LT(costOf("suEntries=32"), costOf("suEntries=64"));
    EXPECT_LT(costOf("issueWidth=8"),
              costOf("issueWidth=8,perfectDCache=1"));
    // A faster functional unit costs more, a slower one less.
    EXPECT_LT(costOf("fuLat.Load=4"), costOf("fuLat.Load=2"));
    EXPECT_LT(costOf("fuLat.Load=2"), costOf("fuLat.Load=1"));
}

// ---- Confidence propagation ----

TEST(Lattice, ClassifiesDecreasesAsPessimistic)
{
    MachineConfig base = baseConfig(); // width 8, su 32
    std::vector<LatticePoint> points =
        buildLattice(LatticeAxes::reduced(), base);
    for (const LatticePoint &point : points) {
        const WhatIf &w = point.whatIf;
        bool decrease =
            (w.suEntries && w.suEntries < base.suEntries) ||
            (w.issueWidth && w.issueWidth < base.issueWidth);
        if (decrease) {
            EXPECT_EQ(point.confidence,
                      Confidence::PessimisticBound)
                << point.name;
        } else {
            EXPECT_NE(point.confidence,
                      Confidence::PessimisticBound)
                << point.name;
        }
    }
}

TEST(Explore, ProjectionMergesWorstConfidence)
{
    std::vector<ExploreRecording> recordings = ll1Recordings();
    MachineConfig base = baseConfig();
    std::vector<LatticePoint> points =
        buildLattice(LatticeAxes::reduced(), base);
    projectLattice(points, recordings, 1);

    for (const LatticePoint &point : points) {
        ASSERT_EQ(point.projected.size(), 1u) << point.name;
        EXPECT_GT(point.projectedTotal, 0u) << point.name;
        // The merged projection confidence can never be stronger
        // than the static classification.
        EXPECT_GE(static_cast<unsigned>(point.confidence),
                  static_cast<unsigned>(
                      classifyWhatIf(point.whatIf, base)))
            << point.name;
        // Capacity increases stay optimistic bounds against the
        // RECORDED baseline: projected <= measured (the theorem the
        // frontier trusts).
        if (point.whatIf.isPureCapacityIncrease(base)) {
            EXPECT_LE(point.projectedTotal,
                      recordings[0].measured)
                << point.name;
        }
    }
}

// ---- Pareto frontier ----

TEST(Explore, FrontierInvariants)
{
    std::vector<ExploreRecording> recordings = ll1Recordings();
    MachineConfig base = baseConfig();
    std::vector<LatticePoint> points =
        buildLattice(LatticeAxes::reduced(), base);
    projectLattice(points, recordings, 2);

    std::vector<std::size_t> frontier = paretoFrontier(points);
    ASSERT_FALSE(frontier.empty());

    // Sorted by cost, strictly improving cycles, never pessimistic.
    for (std::size_t f = 0; f < frontier.size(); ++f) {
        const LatticePoint &point = points[frontier[f]];
        EXPECT_NE(point.confidence, Confidence::PessimisticBound)
            << point.name;
        if (f) {
            const LatticePoint &prev = points[frontier[f - 1]];
            EXPECT_GE(point.cost, prev.cost);
            EXPECT_LT(point.projectedTotal, prev.projectedTotal);
        }
    }

    // No frontier point is dominated by ANY eligible point.
    for (std::size_t idx : frontier) {
        const LatticePoint &point = points[idx];
        for (std::size_t j = 0; j < points.size(); ++j) {
            if (j == idx ||
                points[j].confidence == Confidence::PessimisticBound)
                continue;
            bool dominates =
                points[j].cost <= point.cost &&
                points[j].projectedTotal < point.projectedTotal;
            EXPECT_FALSE(dominates)
                << points[j].name << " dominates " << point.name;
        }
    }
}

TEST(Explore, FrontierIsDeterministicAcrossJobCounts)
{
    std::vector<ExploreRecording> recordings = ll1Recordings();
    MachineConfig base = baseConfig();

    auto frontierWith = [&](unsigned jobs) {
        std::vector<LatticePoint> points =
            buildLattice(LatticeAxes::reduced(), base);
        projectLattice(points, recordings, jobs);
        std::vector<std::string> names;
        for (std::size_t idx : paretoFrontier(points))
            names.push_back(points[idx].name);
        return names;
    };
    EXPECT_EQ(frontierWith(1), frontierWith(4));
}

// ---- Recording ----

TEST(Explore, RecordedSweepIsTheSameAtAnyJobCount)
{
    // sdsp-explore records its workloads as one sweep on --jobs
    // workers; each recording must not depend on the worker count.
    std::vector<const Workload *> workloads;
    for (const char *name : {"LL1", "LL5", "Sieve", "Water"})
        workloads.push_back(&workloadByName(name));
    const std::vector<ExploreRecording> serial =
        recordBaselines(workloads, baseConfig(), 10, 1);
    const std::vector<ExploreRecording> parallel =
        recordBaselines(workloads, baseConfig(), 10, 4);
    ASSERT_EQ(serial.size(), workloads.size());
    ASSERT_EQ(parallel.size(), workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        SCOPED_TRACE(workloads[i]->name());
        ASSERT_TRUE(serial[i].error.empty()) << serial[i].error;
        ASSERT_TRUE(parallel[i].error.empty()) << parallel[i].error;
        EXPECT_EQ(serial[i].workload, workloads[i]->name());
        EXPECT_EQ(parallel[i].workload, workloads[i]->name());
        EXPECT_EQ(parallel[i].measured, serial[i].measured);
        EXPECT_EQ(parallel[i].committed, serial[i].committed);
        EXPECT_EQ(parallel[i].graph->nodeCount(),
                  serial[i].graph->nodeCount());
        EXPECT_EQ(parallel[i].graph->edgeCount(),
                  serial[i].graph->edgeCount());
        const CriticalPath a = serial[i].graph->criticalPath(WhatIf{});
        const CriticalPath b = parallel[i].graph->criticalPath(WhatIf{});
        EXPECT_EQ(a.cycles, serial[i].measured);
        EXPECT_EQ(b.cycles, a.cycles);
        EXPECT_EQ(b.breakdown, a.breakdown);
        EXPECT_EQ(b.edgeCounts, a.edgeCounts);
    }
}

// ---- Frontier validation (real re-simulations) ----

TEST(Explore, ValidateFrontierEndToEnd)
{
    MachineConfig base = baseConfig();
    const unsigned scale = 10;
    std::vector<ExploreRecording> recordings;
    for (const char *name : {"LL1", "LL5", "Sieve"}) {
        recordings.push_back(
            recordBaseline(workloadByName(name), base, scale));
        ASSERT_TRUE(recordings.back().error.empty())
            << recordings.back().error;
    }

    std::vector<LatticePoint> points =
        buildLattice(LatticeAxes::reduced(), base);
    projectLattice(points, recordings, 2);
    std::vector<std::size_t> frontier = paretoFrontier(points);
    ASSERT_FALSE(frontier.empty());

    std::vector<FrontierValidation> validations = validateFrontier(
        points, frontier, recordings, base, scale, 2);
    ASSERT_EQ(validations.size(), frontier.size());

    ExploreReport report;
    report.base = base;
    report.scale = scale;
    report.tolerancePercent = scaledTolerancePercent(
        scale, kExploreTolerancePercent, kExploreToleranceCapPercent);
    report.recordings = &recordings;
    report.points = &points;
    report.frontier = &frontier;
    report.validations = &validations;
    const ExploreSummary summary = summarize(report);

    EXPECT_EQ(summary.latticePoints, points.size());
    EXPECT_EQ(summary.validated, frontier.size());
    EXPECT_EQ(summary.resimFailures, 0u);
    EXPECT_EQ(summary.optimisticViolations, 0u);
    EXPECT_LE(summary.maxAbsErrorPercent, report.tolerancePercent);
    for (const FrontierValidation &validation : validations) {
        EXPECT_TRUE(validation.allOk);
        EXPECT_EQ(validation.resimulated.size(), recordings.size());
        if (validation.soundnessGated) {
            EXPECT_LE(points[validation.point].projectedTotal,
                      validation.resimTotal)
                << points[validation.point].name;
        }
    }

    // The baseline point re-simulates bit-identically.
    bool sawExact = false;
    for (const FrontierValidation &validation : validations) {
        if (points[validation.point].confidence != Confidence::Exact)
            continue;
        sawExact = true;
        EXPECT_EQ(points[validation.point].projectedTotal,
                  validation.resimTotal);
        EXPECT_EQ(validation.errorPercent, 0.0);
    }
    EXPECT_TRUE(sawExact);

    // The artifact carries the gate fields.
    std::string json = exploreJson(report);
    EXPECT_NE(json.find("\"schema\":\"sdsp-explore-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"optimisticViolations\""),
              std::string::npos);
    EXPECT_NE(json.find("\"tolerancePercent\""), std::string::npos);
    EXPECT_NE(json.find("\"confidence\""), std::string::npos);
}

TEST(Explore, ScaledToleranceIsFlatThenLinearThenCapped)
{
    EXPECT_EQ(scaledTolerancePercent(10, 5.0, 30.0), 5.0);
    EXPECT_EQ(scaledTolerancePercent(kGoldenScale, 5.0, 30.0), 5.0);
    EXPECT_EQ(scaledTolerancePercent(100, 5.0, 30.0), 20.0);
    EXPECT_EQ(scaledTolerancePercent(1000, 5.0, 30.0), 30.0);
    EXPECT_EQ(scaledTolerancePercent(50, kExploreTolerancePercent,
                                     kExploreToleranceCapPercent),
              30.0);
    EXPECT_EQ(scaledTolerancePercent(100, kExploreTolerancePercent,
                                     kExploreToleranceCapPercent),
              40.0);
}

/** A summary of a re-simulated run that passes every gate. */
ExploreSummary
passingSummary()
{
    ExploreSummary summary;
    summary.latticePoints = 24;
    summary.frontierSize = 5;
    summary.validated = 5;
    summary.maxAbsErrorPercent = 9.5;
    summary.resimulated = true;
    return summary;
}

TEST(Explore, EachGateFailsAlone)
{
    const double tolerance = 10.0;
    EXPECT_TRUE(exploreGateFailures(passingSummary(), tolerance).empty());

    auto failsOnce = [&](ExploreSummary summary, const char *gate) {
        std::vector<std::string> failed =
            exploreGateFailures(summary, tolerance);
        ASSERT_EQ(failed.size(), 1u) << gate;
        EXPECT_NE(failed[0].find(gate), std::string::npos) << failed[0];
    };
    ExploreSummary empty = passingSummary();
    empty.frontierSize = 0;
    empty.validated = 0;
    failsOnce(empty, "frontier is empty");

    ExploreSummary partial = passingSummary();
    partial.validated = 4;
    failsOnce(partial, "not every frontier point");

    ExploreSummary resim = passingSummary();
    resim.resimFailures = 1;
    failsOnce(resim, "re-simulation failures");

    ExploreSummary violation = passingSummary();
    violation.optimisticViolations = 1;
    failsOnce(violation, "optimistic-bound violations");

    ExploreSummary error = passingSummary();
    error.maxAbsErrorPercent = 10.5;
    failsOnce(error, "beyond the scale tolerance");
}

TEST(Explore, WithoutResimulationOnlyTheFrontierIsGated)
{
    ExploreSummary summary;
    summary.latticePoints = 24;
    summary.frontierSize = 5;
    EXPECT_TRUE(exploreGateFailures(summary, 10.0).empty())
        << "nothing was re-simulated, so nothing is missing";
    summary.frontierSize = 0;
    EXPECT_EQ(exploreGateFailures(summary, 10.0).size(), 1u);
}

TEST(Explore, ApplyWhatIfMapsEveryKnob)
{
    MachineConfig base = baseConfig();
    WhatIf what_if;
    std::string error;
    ASSERT_TRUE(what_if.applyKeyValues(
        "issueWidth=16,suEntries=65,bypassing=0,fuLat.Load=1,"
        "perfectDCache=1,infiniteStoreBuffer=1",
        &error))
        << error;

    MachineConfig cfg = applyWhatIf(what_if, base);
    EXPECT_EQ(cfg.issueWidth, 16u);
    // SU entries round down to whole blocks, like the projection.
    EXPECT_EQ(cfg.suEntries, 65u / base.blockSize * base.blockSize);
    EXPECT_FALSE(cfg.bypassing);
    EXPECT_EQ(cfg.fu.latency[static_cast<unsigned>(FuClass::Load)],
              1u);
    EXPECT_EQ(cfg.storeBufferEntries, 4096u);
    EXPECT_EQ(cfg.dcache.missPenalty, 0u);
}

// ---- The register-budget finalize fix ----

TEST(Config, FinalizeScalesRegistersWithThreads)
{
    MachineConfig cfg;
    cfg.numThreads = 8;
    // Before the fix an 8-thread machine silently partitioned the
    // default 128 registers into 16 per thread, breaking programs
    // that address r16+.
    cfg.finalize();
    EXPECT_EQ(cfg.numRegisters, 256u);
    EXPECT_EQ(cfg.regsPerThread(), 32u);

    // Never shrinks an explicit larger budget.
    MachineConfig big;
    big.numThreads = 2;
    big.numRegisters = 512;
    big.finalize();
    EXPECT_EQ(big.numRegisters, 512u);
}

TEST(Config, EightThreadWorkloadRunsAfterFinalize)
{
    MachineConfig cfg = baseConfig(8);
    EXPECT_EQ(cfg.regsPerThread(), 32u);
    RunResult run = runWorkload(workloadByName("LL1"), cfg, 10);
    EXPECT_TRUE(run.finished);
    EXPECT_TRUE(run.verified) << run.verifyMessage;
}

// ---- The sdsp-explore CLI ----

TEST(ExploreCli, ParsesAndRejects)
{
    // Axis values are read like sdsp-run's -s 0x20.
    ExploreCliOptions ok = parseExploreCliOptions(
        {"--workloads", "LL1,LL5", "-t", "2", "--scale", "10",
         "--reduced", "--no-resim", "--axis", "suEntries=0x20,64"});
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(ok.workloads,
              (std::vector<std::string>{"LL1", "LL5"}));
    EXPECT_EQ(ok.threads, 2u);
    EXPECT_TRUE(ok.reduced);
    EXPECT_TRUE(ok.noResim);
    ASSERT_EQ(ok.axes.size(), 1u);
    EXPECT_EQ(ok.axes[0].key, "suEntries");
    EXPECT_EQ(ok.axes[0].values, (std::vector<std::uint64_t>{32, 64}));

    EXPECT_FALSE(parseExploreCliOptions({"--bogus"}).ok);
    EXPECT_FALSE(parseExploreCliOptions({"--reduced", "--scale", "10abc"})
                     .ok);
    EXPECT_FALSE(parseExploreCliOptions({"--axis", "suEntries"}).ok);
    EXPECT_FALSE(
        parseExploreCliOptions({"--axis", "noSuchKey=1,2"}).ok);
    // Values that do not fit: past the field (2^32 would wrap to the
    // baseline width) and past long (strtol would clamp them).
    EXPECT_FALSE(parseExploreCliOptions(
                     {"--axis", "issueWidth=8,4294967296"})
                     .ok);
    EXPECT_FALSE(parseExploreCliOptions(
                     {"--axis", "perfectDCache=0,99999999999999999999"})
                     .ok);
    EXPECT_FALSE(parseExploreCliOptions(
                     {"--axis", "bypassing=-99999999999999999999,1"})
                     .ok);
    // A latency below one cycle is refused, not re-simulated as one,
    // and a value has no sign.
    EXPECT_FALSE(
        parseExploreCliOptions({"--axis", "fuLat.Load=0,1,2"}).ok);
    EXPECT_FALSE(parseExploreCliOptions({"--axis", "bypassing=-1"}).ok);
    // More than 12 recordings is refused up front.
    std::vector<std::string> many =
        {"--workloads",
         "A1,A2,A3,A4,A5,A6,A7,A8,A9,A10,A11,A12,A13"};
    EXPECT_FALSE(parseExploreCliOptions(many).ok);
}

TEST(ExploreCli, ReducedRunProjectsAndReports)
{
    ExploreCliOptions options = parseExploreCliOptions(
        {"--workloads", "LL1", "--scale", "10", "--reduced",
         "--no-resim", "--jobs", "2"});
    ASSERT_TRUE(options.ok) << options.error;
    std::ostringstream out;
    // A --no-resim run is gated on its frontier only, and passes.
    EXPECT_EQ(runExploreCli(options, out), 0) << out.str();
    EXPECT_EQ(out.str().find("GATE"), std::string::npos) << out.str();
    EXPECT_NE(out.str().find("frontier"), std::string::npos);
    EXPECT_NE(out.str().find("optimistic-bound"),
              std::string::npos);
}

TEST(ExploreCli, UnknownWorkloadFailsCleanly)
{
    ExploreCliOptions options = parseExploreCliOptions(
        {"--workloads", "NoSuchBench", "--reduced", "--no-resim"});
    ASSERT_TRUE(options.ok);
    std::ostringstream out;
    EXPECT_EQ(runExploreCli(options, out), 1);
    EXPECT_NE(out.str().find("NoSuchBench"), std::string::npos);
}

} // namespace
} // namespace sdsp
