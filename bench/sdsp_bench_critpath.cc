/**
 * @file
 * Critical-path what-if sweep and exactness gate.
 *
 * Default mode runs every Group I/II benchmark at 1 and 4 threads as
 * recorded sweep jobs (SweepJob::record), so the sweep requires each
 * dependence-graph critical path to equal the measured cycle count
 * EXACTLY. As each job completes, the what-if grid (wider issue,
 * deeper SU, perfect D-cache, infinite store buffer, no bypassing) is
 * projected from its graph in milliseconds and the graph dropped.
 * The run writes bench_critpath.json. Three spot-check projections
 * are re-simulated for real, as plain jobs of the same sweep whose
 * machines come from applyWhatIf, and gated at every scale: within
 * 5% of the projection up to the golden scale (25%), with the
 * tolerance widening linearly for larger scales (recorded in the
 * artifact next to the scale actually run).
 *
 * --grid instead verifies the exactness invariant over every
 * deduplicated point of the paper's figure/table grid (the same
 * enumeration sdsp_bench_all executes), printing each failure.
 *
 *     sdsp_bench_critpath [--scale PCT] [--jobs N] [--out FILE]
 *                         [--grid]
 *
 * A point that throws, misses a budget, fails verification or
 * records an inexact graph is reported with its classified status
 * while the rest of the sweep runs (SDSP_BENCH_FAULT and the other
 * sweep budgets apply). The exit status is non-zero on any such
 * failure or a gated spot-check miss, so CI can gate on this binary
 * alone.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "critpath/report.hh"
#include "explore/explore.hh"

using namespace sdsp;
using namespace sdsp::bench;

namespace
{

/** Spot-check error tolerance at the golden scale and its cap,
 *  percent (see scaledTolerancePercent). */
constexpr double kSpotTolerancePercent = 5.0;
constexpr double kSpotToleranceCapPercent = 30.0;

/** The projected machine changes, one column each. */
std::vector<std::pair<std::string, WhatIf>>
whatIfGrid()
{
    std::vector<std::pair<std::string, WhatIf>> grid;
    for (const char *spec :
         {"issueWidth=16", "suEntries=64", "perfectDCache=1",
          "infiniteStoreBuffer=1", "bypassing=0",
          "issueWidth=16,suEntries=64"}) {
        WhatIf &what_if = grid.emplace_back(spec, WhatIf{}).second;
        std::string error;
        if (!what_if.applyKeyValues(spec, &error))
            fatal("bad what-if %s: %s", spec, error.c_str());
    }
    return grid;
}

/** One analyzed run of the default mode. */
struct PointReport
{
    std::string workload;
    unsigned threads = 0;
    /** The recorded job's outcome; the fields below the error are
     *  set only when it is Ok. */
    JobStatus status = JobStatus::Ok;
    std::string error;
    Cycle measured = 0;
    std::size_t nodes = 0;
    std::size_t edges = 0;
    RelaxResult baseline;
    std::vector<WhatIfProjection> projections;
    double buildMs = 0.0;
    double meanRelaxMs = 0.0;
};

/** Project @p grid from @p outcome's graph, which is released. */
PointReport
analyzePoint(unsigned threads, JobOutcome &outcome,
             const std::vector<std::pair<std::string, WhatIf>> &grid)
{
    PointReport report;
    report.workload = outcome.result.benchmark;
    report.threads = threads;
    report.status = outcome.status;
    report.error = outcome.error;
    report.measured = outcome.result.cycles;
    report.buildMs = outcome.graphSeconds * 1000.0;
    const std::unique_ptr<DdgGraph> graph = std::move(outcome.graph);
    if (!graph)
        return report;
    report.nodes = graph->nodeCount();
    report.edges = graph->edgeCount();

    auto relax_start = std::chrono::steady_clock::now();
    report.baseline = graph->relax(WhatIf{});
    auto baseline_end = std::chrono::steady_clock::now();
    report.buildMs += std::chrono::duration<double, std::milli>(
                          baseline_end - relax_start)
                          .count();

    for (const auto &[name, what_if] : grid) {
        WhatIfProjection projection;
        projection.name = name;
        projection.whatIf = what_if;
        projection.result = graph->relax(what_if);
        report.projections.push_back(std::move(projection));
    }
    auto relax_end = std::chrono::steady_clock::now();
    report.meanRelaxMs = std::chrono::duration<double, std::milli>(
                             relax_end - baseline_end)
                             .count() /
                         static_cast<double>(grid.size());
    return report;
}

/** One projection validated against a real re-simulation. */
struct SpotCheck
{
    std::string workload;
    unsigned threads = 4;
    /** A what-if of whatIfGrid(), by name. */
    std::string whatIf;

    Cycle projected = 0;
    Cycle resimulated = 0;
    double errorPercent = 0.0;
    bool pass = false;
    /** Why the check could not be made; empty when it was. */
    std::string error{};
};

std::vector<SpotCheck>
spotCheckList()
{
    // Chosen where the recorded-trace model is predictive: capacity
    // increases that relieve a recorded bottleneck without changing
    // the memory behavior (LL1/LL5), and a pure edge-weight change
    // (Sieve without bypassing). Projections that alter cache
    // contention second-order (e.g. deeper SU on a thrashing
    // workload) are reported in the JSON but not gated.
    return {{"LL1", 4, "suEntries=64"},
            {"LL5", 4, "issueWidth=16"},
            {"Sieve", 4, "bypassing=0"}};
}

/** Report a failed sweep job on stderr. */
void
reportFailure(const JobOutcome &outcome)
{
    std::fprintf(stderr, "FAIL [%s] %s (%s): %s\n",
                 jobStatusName(outcome.status),
                 outcome.result.benchmark.c_str(),
                 outcome.result.config.toString().c_str(),
                 outcome.error.c_str());
}

int
usage(const char *argv0, int code)
{
    std::printf("usage: %s [--scale PCT] [--jobs N] [--out FILE] "
                "[--grid]\n",
                argv0);
    return code;
}

/** --grid: exactness over every paper-grid point. */
int
runGridMode(unsigned scale, unsigned jobs)
{
    PaperGrid grid = buildPaperGrid();
    SweepRunner runner(jobs);
    for (const PaperGridPoint &point : grid.points) {
        SweepJob job{point.workload, point.config, scale,
                     point.experiments.front()};
        job.record = true;
        runner.add(std::move(job));
    }
    std::printf("sdsp_bench_critpath --grid: %zu points, scale %u%%, "
                "%u jobs\n",
                grid.points.size(), scale, runner.jobs());

    // The worker checked each graph exact; drop it on completion so
    // only the in-flight graphs are alive.
    std::size_t failed = 0;
    std::size_t done = 0;
    runner.runAll([&](std::size_t, JobOutcome &outcome) {
        outcome.graph.reset();
        ++done;
        if (!outcome.ok()) {
            ++failed;
            reportFailure(outcome);
        } else if (done % 50 == 0) {
            std::printf("  %zu/%zu exact...\n", done,
                        grid.points.size());
        }
    });

    std::printf("%zu/%zu grid points exact\n",
                grid.points.size() - failed, grid.points.size());
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned scale = benchScale();
    unsigned jobs = 0; // SweepRunner::defaultJobs()
    std::string out_path;
    bool grid_mode = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto strArg = [&](const char *name) -> const char * {
            if (++i >= argc)
                fatal("%s needs a value", name);
            return argv[i];
        };
        if (arg == "--scale") {
            scale = static_cast<unsigned>(
                parseIntOption("--scale", strArg("--scale"), 1, 1000));
        } else if (arg == "--jobs" || arg == "-j") {
            jobs = static_cast<unsigned>(
                parseIntOption("--jobs", strArg("--jobs"), 1, 256));
        } else if (arg == "--out") {
            out_path = strArg("--out");
        } else if (arg == "--grid") {
            grid_mode = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return usage(argv[0], 2);
        }
    }

    if (grid_mode)
        return runGridMode(scale, jobs);

    const auto what_ifs = whatIfGrid();

    // The sweep: Group I + II at 1 and 4 threads.
    std::vector<const Workload *> workloads = groupI();
    for (const Workload *workload : groupII())
        workloads.push_back(workload);
    struct Point
    {
        const Workload *workload;
        unsigned threads;
    };
    std::vector<Point> points;
    for (const Workload *workload : workloads)
        for (unsigned threads : {1u, 4u})
            points.push_back({workload, threads});
    std::vector<SpotCheck> checks = spotCheckList();

    // One sweep: the recorded points, then the spot checks'
    // re-simulations.
    SweepRunner runner(jobs);
    for (const Point &point : points) {
        SweepJob job{&cachedWorkload(*point.workload),
                     paperConfig(point.threads), scale, "record"};
        job.record = true;
        runner.add(std::move(job));
    }
    for (const SpotCheck &check : checks) {
        auto what_if = std::find_if(
            what_ifs.begin(), what_ifs.end(),
            [&](const auto &entry) { return entry.first == check.whatIf; });
        sdsp_assert(what_if != what_ifs.end(),
                    "spot-check what-if %s not in the grid",
                    check.whatIf.c_str());
        runner.add(cachedWorkload(workloadByName(check.workload)),
                   applyWhatIf(what_if->second,
                               paperConfig(check.threads)),
                   scale, "spot " + check.whatIf);
    }

    std::printf("sdsp_bench_critpath: %zu points x %zu what-ifs, "
                "scale %u%%, %u jobs\n",
                points.size(), what_ifs.size(), scale, runner.jobs());

    // Project each recorded point as it completes, so only the
    // in-flight graphs are alive.
    std::vector<PointReport> reports(points.size());
    std::vector<JobOutcome> outcomes =
        runner.runAll([&](std::size_t i, JobOutcome &outcome) {
            if (i < points.size()) {
                reports[i] = analyzePoint(points[i].threads, outcome,
                                          what_ifs);
            }
            if (!outcome.ok())
                reportFailure(outcome);
        });

    // A failed point's critical path was never shown exact, so it
    // counts as inexact; its status and error say why.
    std::size_t inexact = 0;
    std::printf("\n%-10s %3s %10s %6s %9s |", "benchmark", "t",
                "cycles", "exact", "ms/relax");
    for (const auto &[name, what_if] : what_ifs)
        std::printf(" %-12.12s", name.c_str());
    std::printf("\n");
    for (const PointReport &report : reports) {
        if (report.status != JobStatus::Ok) {
            ++inexact;
            std::printf("%-10s %3u %10s %6s | %s: %s\n",
                        report.workload.c_str(), report.threads, "-",
                        "NO", jobStatusName(report.status),
                        report.error.c_str());
            continue;
        }
        std::printf("%-10s %3u %10llu %6s %9.2f |",
                    report.workload.c_str(), report.threads,
                    static_cast<unsigned long long>(report.measured),
                    "yes", report.meanRelaxMs);
        for (const WhatIfProjection &projection : report.projections)
            std::printf(" %-12llu",
                        static_cast<unsigned long long>(
                            projection.result.cycles));
        std::printf("\n");
    }

    // Spot checks: three projections against their re-simulations,
    // gated at every scale with a scale-aware tolerance.
    const double tolerance = scaledTolerancePercent(
        scale, kSpotTolerancePercent, kSpotToleranceCapPercent);
    std::size_t spot_failures = 0;
    for (std::size_t c = 0; c < checks.size(); ++c) {
        SpotCheck &check = checks[c];
        for (const PointReport &report : reports) {
            if (report.workload != check.workload ||
                report.threads != check.threads)
                continue;
            for (const WhatIfProjection &projection :
                 report.projections) {
                if (projection.name == check.whatIf)
                    check.projected = projection.result.cycles;
            }
        }
        const JobOutcome &real = outcomes[points.size() + c];
        if (!check.projected) {
            check.error = "its recorded point failed";
        } else if (!real.ok()) {
            check.error = std::string(jobStatusName(real.status)) +
                          ": " + real.error;
        } else {
            check.resimulated = real.result.cycles;
            check.errorPercent =
                (static_cast<double>(check.projected) -
                 static_cast<double>(check.resimulated)) /
                static_cast<double>(check.resimulated) * 100.0;
            check.pass = check.errorPercent <= tolerance &&
                         check.errorPercent >= -tolerance;
        }
        if (!check.pass)
            ++spot_failures;
    }
    std::printf("\nspot checks (projection vs. re-simulation, gated "
                "at %.1f%% for scale %u):\n",
                tolerance, scale);
    for (const SpotCheck &check : checks) {
        if (!check.error.empty()) {
            std::printf("  %-6s t=%u %-22s FAIL (%s)\n",
                        check.workload.c_str(), check.threads,
                        check.whatIf.c_str(), check.error.c_str());
            continue;
        }
        std::printf("  %-6s t=%u %-22s projected %8llu  real %8llu  "
                    "error %+.2f%%  %s\n",
                    check.workload.c_str(), check.threads,
                    check.whatIf.c_str(),
                    static_cast<unsigned long long>(check.projected),
                    static_cast<unsigned long long>(
                        check.resimulated),
                    check.errorPercent,
                    check.pass ? "ok" : "FAIL");
    }

    // ---- bench_critpath.json ----
    if (out_path.empty()) {
        const char *dir = std::getenv("SDSP_BENCH_JSON");
        if (dir && *dir)
            out_path = std::string(dir) + "/bench_critpath.json";
        else
            out_path = "bench_critpath.json";
    }
    JsonWriter writer;
    writer.beginObject();
    writer.field("schema", "sdsp-bench-critpath-v1");
    writer.field("scale", scale);
    writer.field("spotTolerancePercent", tolerance);
    writer.field("points", std::uint64_t{reports.size()});
    writer.field("inexact", std::uint64_t{inexact});
    writer.field("spot_check_failures", std::uint64_t{spot_failures});
    writer.key("runs").beginArray();
    for (const PointReport &report : reports) {
        writer.beginObject();
        writer.field("workload", report.workload);
        writer.field("threads", report.threads);
        writer.field("measuredCycles", report.measured);
        if (report.status != JobStatus::Ok) {
            writer.field("exact", false);
            writer.field("status", jobStatusName(report.status));
            writer.field("error", report.error);
            writer.endObject();
            continue;
        }
        writer.field("criticalPath", report.baseline.cycles);
        writer.field("exact", true);
        writer.field("nodes",
                     static_cast<std::uint64_t>(report.nodes));
        writer.field("edges",
                     static_cast<std::uint64_t>(report.edges));
        writer.field("buildMs", report.buildMs);
        writer.field("meanRelaxMs", report.meanRelaxMs);
        writer.key("breakdown").beginObject();
        for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
            if (!report.baseline.breakdown[c])
                continue;
            writer.field(edgeClassName(static_cast<EdgeClass>(c)),
                         report.baseline.breakdown[c]);
        }
        writer.endObject();
        writer.key("whatIf").beginArray();
        for (const WhatIfProjection &projection :
             report.projections) {
            writer.beginObject();
            writer.field("name", projection.name);
            writer.field("cycles", projection.result.cycles);
            writer.field("confidence",
                         confidenceName(
                             projection.result.confidence));
            writer.field(
                "speedup",
                projection.result.cycles
                    ? static_cast<double>(report.measured) /
                          static_cast<double>(
                              projection.result.cycles)
                    : 0.0);
            writer.endObject();
        }
        writer.endArray();
        writer.endObject();
    }
    writer.endArray();
    writer.key("spotChecks").beginArray();
    for (const SpotCheck &check : checks) {
        writer.beginObject();
        writer.field("workload", check.workload);
        writer.field("threads", check.threads);
        writer.field("whatIf", check.whatIf);
        writer.field("projected", check.projected);
        writer.field("resimulated", check.resimulated);
        writer.field("errorPercent", check.errorPercent);
        writer.field("gated", true);
        writer.field("scale", scale);
        writer.field("tolerancePercent", tolerance);
        writer.field("pass", check.pass);
        if (!check.error.empty())
            writer.field("error", check.error);
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();

    std::ofstream file(out_path);
    if (!file)
        fatal("cannot write %s", out_path.c_str());
    file << writer.str() << '\n';
    std::printf("(json written to %s)\n", out_path.c_str());

    if (inexact)
        std::fprintf(stderr, "sdsp_bench_critpath: %zu points "
                     "INEXACT\n", inexact);
    if (spot_failures)
        std::fprintf(stderr, "sdsp_bench_critpath: %zu spot checks "
                     "failed or beyond %.1f%%\n", spot_failures,
                     tolerance);
    return inexact == 0 && spot_failures == 0 ? 0 : 1;
}
