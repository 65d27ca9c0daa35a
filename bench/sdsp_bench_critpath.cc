/**
 * @file
 * Critical-path what-if sweep and exactness gate.
 *
 * Default mode runs every Group I/II benchmark at 1 and 4 threads
 * with the DDG recorder attached, requires the dependence-graph
 * critical path to equal the measured cycle count EXACTLY, projects
 * a what-if grid (wider issue, deeper SU, perfect D-cache, infinite
 * store buffer, no bypassing) from each recorded run in milliseconds,
 * and writes bench_critpath.json. Three spot-check projections are
 * re-simulated for real and gated at every scale: within 5% of the
 * projection up to the golden scale (25%), with the tolerance
 * widening linearly for larger scales (recorded in the artifact
 * next to the scale actually run).
 *
 * --grid instead verifies the exactness invariant over every
 * deduplicated point of the paper's figure/table grid (the same
 * enumeration sdsp_bench_all executes), printing each mismatch.
 *
 *     sdsp_bench_critpath [--scale PCT] [--jobs N] [--out FILE]
 *                         [--grid]
 *
 * Exit status is non-zero on any exactness mismatch or gated
 * spot-check failure, so CI can gate on this binary alone.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "critpath/report.hh"

using namespace sdsp;
using namespace sdsp::bench;

namespace
{

/** The golden-reference problem scale the tolerance is anchored at. */
constexpr unsigned kGoldenScale = 25;

/** Spot-check error tolerance at the golden scale, percent. */
constexpr double kSpotTolerancePercent = 5.0;

/**
 * Gate tolerance for spot checks at @p scale. Projection error is
 * schedule-dependent and grows with problem size (a relieved
 * bottleneck reshuffles more memory accesses at larger scales), so
 * the threshold widens linearly past the golden scale, capped at
 * 30%. The gate applies at EVERY scale; the tolerance in force is
 * recorded in the JSON artifact alongside the scale actually run.
 */
double
spotTolerancePercent(unsigned scale)
{
    if (scale <= kGoldenScale)
        return kSpotTolerancePercent;
    return std::min(30.0, kSpotTolerancePercent *
                              (static_cast<double>(scale) /
                               static_cast<double>(kGoldenScale)));
}

/** Fatal unless @p run finished and verified. */
void
requireFinished(const RunResult &run)
{
    if (!run.finished)
        fatal("%s did not finish within the cycle cap",
              run.benchmark.c_str());
    if (!run.verified)
        fatal("%s failed verification: %s", run.benchmark.c_str(),
              run.verifyMessage.c_str());
}

/** Run @p fn(0..n-1) on @p jobs worker threads. */
void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    unsigned count = std::min<std::size_t>(jobs, n);
    workers.reserve(count);
    for (unsigned w = 0; w < count; ++w) {
        workers.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1))
                fn(i);
        });
    }
    for (std::thread &worker : workers)
        worker.join();
}

/** The projected machine changes, one column each. */
std::vector<std::pair<std::string, WhatIf>>
whatIfGrid()
{
    std::vector<std::pair<std::string, WhatIf>> grid;
    auto add = [&](const std::string &spec) {
        WhatIf what_if;
        std::string clause, error;
        std::istringstream clauses(spec);
        while (std::getline(clauses, clause, ',')) {
            if (!what_if.applyKeyValue(clause, &error))
                fatal("bad what-if %s: %s", spec.c_str(),
                      error.c_str());
        }
        grid.emplace_back(spec, what_if);
    };
    add("issueWidth=16");
    add("suEntries=64");
    add("perfectDCache=1");
    add("infiniteStoreBuffer=1");
    add("bypassing=0");
    add("issueWidth=16,suEntries=64");
    return grid;
}

/** One analyzed run of the default mode. */
struct PointReport
{
    std::string workload;
    unsigned threads = 0;
    Cycle measured = 0;
    std::size_t nodes = 0;
    std::size_t edges = 0;
    std::string mismatch; //!< empty = exact
    RelaxResult baseline;
    std::vector<WhatIfProjection> projections;
    double buildMs = 0.0;
    double meanRelaxMs = 0.0;
};

/** Run + record + build + project one (workload, threads) point. */
PointReport
analyzePoint(const Workload &workload, unsigned threads,
             unsigned scale,
             const std::vector<std::pair<std::string, WhatIf>> &grid)
{
    MachineConfig config = paperConfig(threads);
    DdgRecorder recorder;
    RunResult run = runWorkload(cachedWorkload(workload), config,
                                scale, &recorder);
    requireFinished(run);

    PointReport report;
    report.workload = run.benchmark;
    report.threads = threads;
    report.measured = run.cycles;

    auto build_start = std::chrono::steady_clock::now();
    DdgGraph graph(recorder.trace(), config, run.cycles);
    report.mismatch = graph.verifyExact();
    report.baseline = graph.relax(WhatIf{});
    auto build_end = std::chrono::steady_clock::now();
    report.nodes = graph.nodeCount();
    report.edges = graph.edgeCount();
    report.buildMs = std::chrono::duration<double, std::milli>(
                         build_end - build_start)
                         .count();

    auto relax_start = std::chrono::steady_clock::now();
    for (const auto &[name, what_if] : grid) {
        WhatIfProjection projection;
        projection.name = name;
        projection.whatIf = what_if;
        projection.result = graph.relax(what_if);
        report.projections.push_back(std::move(projection));
    }
    auto relax_end = std::chrono::steady_clock::now();
    report.meanRelaxMs = std::chrono::duration<double, std::milli>(
                             relax_end - relax_start)
                             .count() /
                         static_cast<double>(grid.size());
    return report;
}

/** One projection validated against a real re-simulation. */
struct SpotCheck
{
    std::string workload;
    unsigned threads = 4;
    std::string whatIf;
    /** Apply the same change to a MachineConfig for the re-sim. */
    void (*applyToConfig)(MachineConfig &) = nullptr;

    Cycle projected = 0;
    Cycle resimulated = 0;
    double errorPercent = 0.0;
    bool pass = false;
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
    std::vector<SpotCheck> checks;
    checks.push_back({"LL1", 4, "suEntries=64",
                      [](MachineConfig &cfg) { cfg.suEntries = 64; }});
    checks.push_back({"LL5", 4, "issueWidth=16",
                      [](MachineConfig &cfg) {
                          cfg.issueWidth = 16;
                      }});
    checks.push_back({"Sieve", 4, "bypassing=0",
                      [](MachineConfig &cfg) {
                          cfg.bypassing = false;
                      }});
    return checks;
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
    std::printf("sdsp_bench_critpath --grid: %zu points, scale %u%%, "
                "%u jobs\n",
                grid.points.size(), scale, jobs);

    std::mutex mutex;
    std::size_t inexact = 0;
    std::size_t done = 0;
    parallelFor(grid.points.size(), jobs, [&](std::size_t i) {
        const PaperGridPoint &point = grid.points[i];
        DdgRecorder recorder;
        RunResult run = runWorkload(*point.workload, point.config,
                                    scale, &recorder);
        requireFinished(run);
        DdgGraph graph(recorder.trace(), point.config, run.cycles);
        std::string mismatch = graph.verifyExact();

        std::lock_guard<std::mutex> lock(mutex);
        ++done;
        if (!mismatch.empty()) {
            ++inexact;
            std::printf("INEXACT %s (%s): %s\n",
                        point.workload->name().c_str(),
                        point.config.toString().c_str(),
                        mismatch.c_str());
        } else if (done % 50 == 0) {
            std::printf("  %zu/%zu exact...\n", done,
                        grid.points.size());
        }
    });

    std::printf("%zu/%zu grid points exact\n",
                grid.points.size() - inexact, grid.points.size());
    return inexact ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned scale = benchScale();
    unsigned jobs = benchJobs();
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

    std::printf("sdsp_bench_critpath: %zu points x %zu what-ifs, "
                "scale %u%%, %u jobs\n",
                points.size(), what_ifs.size(), scale, jobs);

    std::vector<PointReport> reports(points.size());
    parallelFor(points.size(), jobs, [&](std::size_t i) {
        reports[i] = analyzePoint(*points[i].workload,
                                  points[i].threads, scale, what_ifs);
    });

    std::size_t inexact = 0;
    std::printf("\n%-10s %3s %10s %6s %9s |", "benchmark", "t",
                "cycles", "exact", "ms/relax");
    for (const auto &[name, what_if] : what_ifs)
        std::printf(" %-12.12s", name.c_str());
    std::printf("\n");
    for (const PointReport &report : reports) {
        if (!report.mismatch.empty())
            ++inexact;
        std::printf("%-10s %3u %10llu %6s %9.2f |",
                    report.workload.c_str(), report.threads,
                    static_cast<unsigned long long>(report.measured),
                    report.mismatch.empty() ? "yes" : "NO",
                    report.meanRelaxMs);
        for (const WhatIfProjection &projection : report.projections)
            std::printf(" %-12llu",
                        static_cast<unsigned long long>(
                            projection.result.cycles));
        std::printf("\n");
        if (!report.mismatch.empty())
            std::printf("  INEXACT: %s\n", report.mismatch.c_str());
    }

    // Spot checks: re-simulate three projections for real. Gated at
    // every scale with a scale-aware tolerance.
    std::vector<SpotCheck> checks = spotCheckList();
    const double tolerance = spotTolerancePercent(scale);
    std::size_t spot_failures = 0;
    parallelFor(checks.size(), jobs, [&](std::size_t i) {
        SpotCheck &check = checks[i];
        const PointReport *report = nullptr;
        for (const PointReport &candidate : reports) {
            if (candidate.workload == check.workload &&
                candidate.threads == check.threads)
                report = &candidate;
        }
        sdsp_assert(report, "spot-check workload %s not in sweep",
                    check.workload.c_str());
        for (const WhatIfProjection &projection :
             report->projections) {
            if (projection.name == check.whatIf)
                check.projected = projection.result.cycles;
        }
        sdsp_assert(check.projected, "spot-check what-if %s not in "
                    "the grid", check.whatIf.c_str());

        MachineConfig config = paperConfig(check.threads);
        check.applyToConfig(config);
        RunResult real = runWorkload(
            cachedWorkload(workloadByName(check.workload)), config,
            scale);
        requireFinished(real);
        check.resimulated = real.cycles;
        double error =
            (static_cast<double>(check.projected) -
             static_cast<double>(check.resimulated)) /
            static_cast<double>(check.resimulated) * 100.0;
        check.errorPercent = error;
        check.pass = error <= tolerance && error >= -tolerance;
    });
    std::printf("\nspot checks (projection vs. re-simulation, gated "
                "at %.1f%% for scale %u):\n",
                tolerance, scale);
    for (const SpotCheck &check : checks) {
        if (!check.pass)
            ++spot_failures;
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
        writer.field("criticalPath", report.baseline.cycles);
        writer.field("exact", report.mismatch.empty());
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
                     "beyond %.1f%%\n", spot_failures, tolerance);
    return inexact == 0 && spot_failures == 0 ? 0 : 1;
}
