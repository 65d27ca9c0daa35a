/**
 * @file
 * Design-space lattice exploration gate.
 *
 * Records LL1, LL5, and Sieve once each at 4 threads on the paper
 * baseline, projects the what-if lattice through the critical-path
 * engine, cuts the (hardware cost, projected cycles) Pareto
 * frontier, re-simulates every frontier point for real, and writes
 * the sdsp-explore-v1 artifact as bench_explore.json. The run fails
 * (non-zero exit) unless:
 *
 *   - the frontier is non-empty and every point was re-simulated,
 *   - no re-simulation failed,
 *   - no pure-capacity-increase point projected above its
 *     re-simulated total (optimistic-bound soundness),
 *   - the worst per-point projection error is within
 *     exploreTolerancePercent() for the scale actually run.
 *
 *     sdsp_bench_explore [--scale PCT] [--jobs N] [--out FILE]
 *                        [--reduced | --full]
 *
 * CI runs --reduced at the golden scale; --full covers the whole
 * 3456-point lattice (minutes of re-simulation, same gates).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "explore/explore.hh"

using namespace sdsp;
using namespace sdsp::bench;

namespace
{

int
usage(const char *argv0, int code)
{
    std::printf("usage: %s [--scale PCT] [--jobs N] [--out FILE] "
                "[--reduced | --full]\n",
                argv0);
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned scale = benchScale();
    unsigned jobs = benchJobs();
    std::string out_path;
    bool reduced = true;

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
        } else if (arg == "--reduced") {
            reduced = true;
        } else if (arg == "--full") {
            reduced = false;
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return usage(argv[0], 2);
        }
    }

    const MachineConfig base = paperConfig(4);
    const std::vector<std::string> names = {"LL1", "LL5", "Sieve"};

    std::printf("sdsp_bench_explore: %s lattice, scale %u%%, %u "
                "jobs\n",
                reduced ? "reduced" : "full", scale, jobs);

    std::vector<ExploreRecording> recordings;
    for (const std::string &name : names) {
        ExploreRecording recording = recordBaseline(
            cachedWorkload(workloadByName(name)), base, scale);
        if (!recording.error.empty())
            fatal("%s: %s", name.c_str(), recording.error.c_str());
        std::printf("  %-6s %10llu cycles (%zu nodes)\n",
                    recording.workload.c_str(),
                    static_cast<unsigned long long>(
                        recording.measured),
                    recording.graph->nodeCount());
        recordings.push_back(std::move(recording));
    }

    LatticeAxes axes =
        reduced ? LatticeAxes::reduced() : LatticeAxes::full();
    std::vector<LatticePoint> points = buildLattice(axes, base);
    projectLattice(points, recordings, jobs);
    std::vector<std::size_t> frontier = paretoFrontier(points);

    ExploreReport report;
    report.base = base;
    report.scale = scale;
    report.tolerancePercent = exploreTolerancePercent(scale);
    report.recordings = &recordings;
    report.points = &points;
    report.frontier = &frontier;

    std::vector<FrontierValidation> validations = validateFrontier(
        points, frontier, recordings, base, scale, jobs);
    report.validations = &validations;

    const ExploreSummary summary = summarize(report);
    std::printf("  %zu points projected, %zu-point frontier, %zu "
                "re-simulated\n",
                summary.latticePoints, summary.frontierSize,
                summary.validated);
    std::printf("  max |error| %.2f%% (tolerance %.1f%% at scale "
                "%u), %zu resim failures, %zu optimistic "
                "violations\n",
                summary.maxAbsErrorPercent, report.tolerancePercent,
                scale, summary.resimFailures,
                summary.optimisticViolations);

    if (out_path.empty()) {
        const char *dir = std::getenv("SDSP_BENCH_JSON");
        if (dir && *dir)
            out_path = std::string(dir) + "/bench_explore.json";
        else
            out_path = "bench_explore.json";
    }
    std::ofstream file(out_path);
    if (!file)
        fatal("cannot write %s", out_path.c_str());
    file << exploreJson(report) << '\n';
    std::printf("(json written to %s)\n", out_path.c_str());

    // ---- The gates. ----
    std::size_t failures = 0;
    auto gate = [&](bool ok, const char *what) {
        if (!ok) {
            ++failures;
            std::fprintf(stderr, "sdsp_bench_explore: GATE: %s\n",
                         what);
        }
    };
    gate(summary.frontierSize > 0, "frontier is empty");
    gate(summary.validated == summary.frontierSize,
         "not every frontier point was re-simulated");
    gate(summary.resimFailures == 0, "re-simulation failures");
    gate(summary.optimisticViolations == 0,
         "optimistic-bound violations (capacity increase projected "
         "above its re-simulation)");
    gate(summary.maxAbsErrorPercent <= report.tolerancePercent,
         "projection error beyond the scale tolerance");
    return failures ? 1 : 0;
}
