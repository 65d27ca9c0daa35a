/**
 * @file
 * The consolidated paper-reproduction driver.
 *
 * Enumerates every grid point of the paper's figure/table suite
 * (fetch policies, thread counts, cache organizations, SU depths,
 * functional-unit complements, commit policies — figures 3-14 and
 * tables 3/5.2), deduplicates the points shared between experiments,
 * executes them all concurrently on the sweep engine, and writes one
 * machine-checkable bench_results.json (per-run status, cycles, IPC,
 * hit rates, verify status, wall-clock, host metadata).
 *
 * The sweep is fault tolerant and resumable: a grid point that
 * throws, times out, or fails verification is recorded with its
 * error and the rest of the grid still runs; every completed point
 * is appended to a JSONL checkpoint as it finishes, and --resume
 * reloads that checkpoint, verifies each line's identity key against
 * the current grid, and re-runs only the missing or failed points.
 * A resumed artifact is byte-identical to an uninterrupted one in
 * every deterministic field.
 *
 * Exit status is non-zero if any run fails to finish or verify, so
 * CI can gate on this binary alone.
 *
 *     sdsp_bench_all [--jobs N] [--scale PCT] [--out FILE]
 *                    [--only SUBSTR] [--list] [--timeout SECS]
 *                    [--max-cycles N] [--retries N] [--resume PATH]
 *                    [--checkpoint PATH] [--no-checkpoint]
 *
 * --jobs defaults to SDSP_BENCH_JOBS / hardware_concurrency, --scale
 * to SDSP_BENCH_SCALE / 100; --timeout/--max-cycles/--retries default
 * to SDSP_BENCH_TIMEOUT / SDSP_BENCH_MAX_CYCLES / SDSP_BENCH_RETRIES
 * (fault injection: SDSP_BENCH_FAULT, see fault.hh). The output goes
 * to --out, else to $SDSP_BENCH_JSON/bench_results.json, else
 * ./bench_results.json; the checkpoint defaults to
 * <out>.checkpoint.jsonl and is removed after a fully verified sweep.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <charconv>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/ilp.hh"
#include "bench_util.hh"
#include "common/logging.hh"
#include "harness/artifacts.hh"
#include "harness/checkpoint.hh"

using namespace sdsp;
using namespace sdsp::bench;

namespace
{

/** One deduplicated grid point and the experiments that need it
 *  (enumerated by bench_util's buildPaperGrid). */
using GridPoint = PaperGridPoint;

/**
 * Static IPC upper bound for every grid point, from the sdsp-lint
 * dependence analyzer. The dependence summary is a function of the
 * program text and the FU latency table only, so it is cached per
 * (workload, threads, latency) and combined with each point's machine
 * shape. Every verified run is then gated on
 * measured IPC <= boundAtCycles(cycles); a violation means either the
 * simulator commits faster than the dependence structure allows (a
 * core bug) or the analyzer's bound is unsound (an analysis bug).
 */
std::vector<StaticIpcBound>
computeBounds(const std::vector<GridPoint> &points, unsigned scale)
{
    std::map<std::string, DependenceSummary> cache;
    std::vector<StaticIpcBound> bounds;
    bounds.reserve(points.size());
    for (const GridPoint &point : points) {
        const MachineConfig &config = point.config;
        std::string key = point.workload->name() + "\n" +
                          std::to_string(config.numThreads);
        for (unsigned latency : config.fu.latency) {
            key += ',';
            key += std::to_string(latency);
        }
        auto it = cache.find(key);
        if (it == cache.end()) {
            WorkloadImage image =
                point.workload->build(config.numThreads, scale);
            Cfg cfg = Cfg::build(image.program);
            DependenceSummary dep = analyzeDependence(
                cfg, LatencyModel::fromLatencies(config.fu.latency));
            it = cache.emplace(std::move(key), std::move(dep)).first;
        }
        IpcBoundInputs inputs;
        inputs.numThreads = config.numThreads;
        inputs.blockSize = config.blockSize;
        inputs.issueWidth = config.issueWidth;
        bounds.push_back(staticIpcBound(it->second, inputs));
    }
    return bounds;
}

bool
matchesFilter(const GridPoint &point, const std::string &filter)
{
    if (filter.empty())
        return true;
    for (const std::string &experiment : point.experiments) {
        if (experiment.find(filter) != std::string::npos)
            return true;
    }
    return point.workload->name().find(filter) != std::string::npos;
}

int
usage(const char *argv0, int code)
{
    std::printf(
        "usage: %s [--jobs N] [--scale PCT] [--out FILE]\n"
        "       [--only SUBSTR] [--list] [--timeout SECS]\n"
        "       [--max-cycles N] [--retries N] [--resume PATH]\n"
        "       [--checkpoint PATH] [--no-checkpoint]\n",
        argv0);
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0; // 0 = SweepRunner::defaultJobs()
    unsigned scale = benchScale();
    std::string out_path;
    std::string filter;
    std::string resume_path;
    std::string checkpoint_path;
    bool checkpointing = true;
    bool list_only = false;
    SweepOptions options = SweepOptions::fromEnvironment();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto strArg = [&](const char *name) -> const char * {
            if (++i >= argc)
                fatal("%s needs a value", name);
            return argv[i];
        };
        auto intArg = [&](const char *name, long min_value) -> long {
            const char *text = strArg(name);
            char *end = nullptr;
            long value = std::strtol(text, &end, 10);
            if (*end || value < min_value)
                fatal("bad %s value: %s", name, text);
            return value;
        };
        if (arg == "--jobs" || arg == "-j") {
            long value = intArg("--jobs", 1);
            if (value > 256)
                fatal("--jobs out of range: %ld", value);
            jobs = static_cast<unsigned>(value);
        } else if (arg == "--scale") {
            long value = intArg("--scale", 1);
            if (value > 1000)
                fatal("--scale out of range: %ld", value);
            scale = static_cast<unsigned>(value);
        } else if (arg == "--out") {
            out_path = strArg("--out");
        } else if (arg == "--only") {
            filter = strArg("--only");
        } else if (arg == "--timeout") {
            const char *text = strArg("--timeout");
            const char *end = text + std::strlen(text);
            double value = 0.0;
            auto [ptr, ec] = std::from_chars(text, end, value);
            if (ec != std::errc() || ptr != end || value < 0.0)
                fatal("bad --timeout value: %s", text);
            options.timeoutSeconds = value;
        } else if (arg == "--max-cycles") {
            const char *text = strArg("--max-cycles");
            const char *end = text + std::strlen(text);
            std::uint64_t value = 0;
            auto [ptr, ec] = std::from_chars(text, end, value);
            if (ec != std::errc() || ptr != end)
                fatal("bad --max-cycles value: %s", text);
            options.maxCycles = value;
        } else if (arg == "--retries") {
            long value = intArg("--retries", 0);
            if (value > 100)
                fatal("--retries out of range: %ld", value);
            options.retries = static_cast<unsigned>(value);
        } else if (arg == "--resume") {
            resume_path = strArg("--resume");
        } else if (arg == "--checkpoint") {
            checkpoint_path = strArg("--checkpoint");
        } else if (arg == "--no-checkpoint") {
            checkpointing = false;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return usage(argv[0], 2);
        }
    }

    PaperGrid suite = buildPaperGrid();
    std::vector<GridPoint> points;
    for (GridPoint &point : suite.points) {
        if (matchesFilter(point, filter))
            points.push_back(std::move(point));
    }

    if (list_only) {
        for (const GridPoint &point : points) {
            std::string tags;
            for (const std::string &experiment : point.experiments)
                tags += (tags.empty() ? "" : ",") + experiment;
            std::printf("%-10s %-14s %s\n",
                        point.workload->name().c_str(), tags.c_str(),
                        point.config.toString().c_str());
        }
        std::printf("%zu grid points (%zu before deduplication)\n",
                    points.size(), suite.submitted);
        return 0;
    }
    if (points.empty())
        fatal("no grid points match --only %s", filter.c_str());

    // Static IPC ceilings (one per point) that every verified run
    // must respect.
    std::vector<StaticIpcBound> bounds = computeBounds(points, scale);

    if (out_path.empty()) {
        const char *dir = std::getenv("SDSP_BENCH_JSON");
        if (dir && *dir && ensureOutputDir(dir))
            out_path = std::string(dir) + "/bench_results.json";
        else
            out_path = "bench_results.json";
    }
    if (checkpoint_path.empty()) {
        checkpoint_path = resume_path.empty()
                              ? out_path + ".checkpoint.jsonl"
                              : resume_path;
    }

    const std::string suite_name = "sdsp_bench_all";

    // Resume: reload verified results and mark their points skipped,
    // keyed by the full (benchmark, configKey) identity so a stale
    // checkpoint from a different grid can never be replayed.
    std::vector<const CheckpointEntry *> restored(points.size(),
                                                  nullptr);
    CheckpointLog resumed;
    std::size_t restored_count = 0;
    std::size_t stale_entries = 0;
    if (!resume_path.empty()) {
        resumed = loadCheckpoint(resume_path, suite_name, scale);
        std::map<std::string, const CheckpointEntry *> verified;
        for (const CheckpointEntry &entry : resumed.entries) {
            // Last ok wins: a point retried across sweeps keeps its
            // most recent verified result; failed lines never skip.
            if (entry.ok())
                verified[entry.benchmark + "\n" + entry.configKey] =
                    &entry;
        }
        std::size_t matched = 0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::string key = points[i].workload->name() + "\n" +
                              configKey(points[i].config);
            auto it = verified.find(key);
            if (it == verified.end())
                continue;
            restored[i] = it->second;
            ++matched;
        }
        restored_count = matched;
        stale_entries = verified.size() - matched;
        if (stale_entries) {
            warn("checkpoint %s: %zu verified entries do not match "
                 "any current grid point (different --only filter?)",
                 resume_path.c_str(), stale_entries);
        }
    }

    std::vector<SweepJob> grid_jobs;
    grid_jobs.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SweepJob job;
        job.workload = points[i].workload;
        job.config = points[i].config;
        job.scale = scale;
        job.label = points[i].experiments.front();
        job.skip = restored[i] != nullptr;
        grid_jobs.push_back(std::move(job));
    }

    SweepRunner runner(jobs, options);
    for (const SweepJob &job : grid_jobs)
        runner.add(job);

    std::printf("sdsp_bench_all: %zu grid points (%zu before "
                "deduplication), scale %u%%, %u jobs\n",
                points.size(), suite.submitted, scale, runner.jobs());
    if (!resume_path.empty()) {
        std::printf("resuming from %s: %zu points restored, "
                    "%zu to run\n",
                    resume_path.c_str(), restored_count,
                    points.size() - restored_count);
    }

    std::unique_ptr<CheckpointWriter> checkpoint;
    if (checkpointing) {
        checkpoint = std::make_unique<CheckpointWriter>(
            checkpoint_path, suite_name, scale,
            /*append=*/!resume_path.empty());
    }

    // As each point completes, persist it (so a crash loses at most
    // the in-flight points) and surface failures immediately.
    auto on_complete = [&](std::size_t index,
                           const JobOutcome &outcome) {
        if (outcome.status == JobStatus::Skipped)
            return;
        if (checkpoint)
            checkpoint->record(grid_jobs[index], outcome);
        if (!outcome.ok()) {
            std::fprintf(stderr, "FAIL [%s] %s (%s): %s\n",
                         jobStatusName(outcome.status),
                         grid_jobs[index].workload->name().c_str(),
                         grid_jobs[index].config.toString().c_str(),
                         outcome.error.c_str());
        }
    };

    auto start = std::chrono::steady_clock::now();
    std::vector<JobOutcome> outcomes = runner.runAll(on_complete);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    // Aggregate. Restored points contribute their checkpointed
    // deterministic numbers so a resumed sweep's totals match an
    // uninterrupted one exactly.
    std::size_t failures = 0;
    std::size_t bound_violations = 0;
    double sim_seconds = 0.0;
    double sim_loop_seconds = 0.0;
    std::uint64_t sim_cycles = 0;
    std::uint64_t sim_insts = 0;

    // A verified run must not out-commit its static dependence bound;
    // if it does, the simulator or the analyzer is broken. The bound
    // is a count comparison (committed vs bound * cycles) with a tiny
    // relative slack for the floating-point bound arithmetic.
    auto checkBound = [&](std::size_t i, std::uint64_t cycles,
                          std::uint64_t committed) {
        if (cycles == 0)
            return;
        double limit = bounds[i].boundAtCycles(cycles) *
                       static_cast<double>(cycles);
        if (static_cast<double>(committed) <= limit * (1.0 + 1e-9))
            return;
        ++bound_violations;
        std::fprintf(stderr,
                     "IPC BOUND VIOLATION: %s (%s): committed %llu "
                     "in %llu cycles (ipc %.4f) exceeds static bound "
                     "%.4f\n",
                     points[i].workload->name().c_str(),
                     points[i].config.toString().c_str(),
                     static_cast<unsigned long long>(committed),
                     static_cast<unsigned long long>(cycles),
                     static_cast<double>(committed) /
                         static_cast<double>(cycles),
                     bounds[i].boundAtCycles(cycles));
    };

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (restored[i]) {
            sim_cycles += restored[i]->cycles;
            sim_insts += restored[i]->committed;
            checkBound(i, restored[i]->cycles,
                       restored[i]->committed);
            continue;
        }
        const RunResult &result = outcomes[i].result;
        sim_seconds += result.wallSeconds;
        sim_loop_seconds += result.simSeconds;
        sim_cycles += result.cycles;
        sim_insts += result.committed;
        if (!outcomes[i].ok())
            ++failures;
        else
            checkBound(i, result.cycles, result.committed);
    }

    JsonWriter writer;
    writer.beginObject();
    writer.field("schema_version", 1);
    writer.field("suite", suite_name);
    writer.key("host");
    appendHostJson(writer);
    writer.field("scale", scale);
    writer.field("jobs", runner.jobs());
    writer.field("grid_points", std::uint64_t{outcomes.size()});
    writer.field("failures", std::uint64_t{failures});
    writer.field("ipc_bound_violations",
                 std::uint64_t{bound_violations});
    writer.field("wall_seconds", elapsed);
    writer.field("serial_seconds", sim_seconds);
    writer.field("sim_cycles_total", sim_cycles);
    writer.field("sim_insts_total", sim_insts);
    writer.field("sim_cycles_per_second",
                 sim_loop_seconds > 0
                     ? static_cast<double>(sim_cycles) / sim_loop_seconds
                     : 0.0);
    writer.field("sim_insts_per_second",
                 sim_loop_seconds > 0
                     ? static_cast<double>(sim_insts) / sim_loop_seconds
                     : 0.0);
    writer.key("runs").beginArray();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        writer.beginObject();
        writer.key("experiments").beginArray();
        for (const std::string &experiment : points[i].experiments)
            writer.value(experiment);
        writer.endArray();
        // A pure function of the grid point (program text + machine
        // shape), so restored and fresh runs emit it identically and
        // resumed artifacts stay byte-identical.
        writer.field("static_ipc_bound", bounds[i].asymptotic());
        if (restored[i]) {
            // Splice the checkpointed result verbatim: the resumed
            // artifact stays byte-identical to an uninterrupted one.
            writer.field("status", restored[i]->status);
            writer.key("result").rawValue(restored[i]->resultRaw);
        } else {
            const JobOutcome &outcome = outcomes[i];
            writer.field("status", jobStatusName(outcome.status));
            if (!outcome.error.empty())
                writer.field("error", outcome.error);
            writer.key("result");
            appendJson(writer, outcome.result, /*include_stats=*/false);
        }
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();

    std::ofstream file(out_path);
    if (!file)
        fatal("cannot write %s", out_path.c_str());
    file << writer.str() << '\n';
    file.close();

    // Aggregate failure report: every failed point by name, so a
    // 253-point sweep with three bad points names all three.
    if (failures) {
        std::fprintf(stderr,
                     "sdsp_bench_all: %zu of %zu points failed:\n",
                     failures, outcomes.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (restored[i] || outcomes[i].ok())
                continue;
            std::fprintf(stderr, "  [%s] %s (%s): %s\n",
                         jobStatusName(outcomes[i].status),
                         points[i].workload->name().c_str(),
                         points[i].config.toString().c_str(),
                         outcomes[i].error.c_str());
        }
        if (checkpoint && checkpoint->ok()) {
            std::fprintf(stderr,
                         "rerun with --resume %s to retry only the "
                         "failed points\n",
                         checkpoint_path.c_str());
        }
    } else if (checkpoint && checkpoint->ok()) {
        // Fully verified: the checkpoint has served its purpose.
        std::remove(checkpoint_path.c_str());
    }
    if (bound_violations) {
        std::fprintf(stderr,
                     "sdsp_bench_all: %zu run(s) exceed their static "
                     "IPC bound\n",
                     bound_violations);
    }

    std::printf("wall %.2fs, serial-equivalent %.2fs (%.1fx), "
                "%zu/%zu verified (%zu restored from checkpoint), "
                "%zu IPC-bound violations\n",
                elapsed, sim_seconds,
                elapsed > 0 ? sim_seconds / elapsed : 0.0,
                outcomes.size() - failures, outcomes.size(),
                restored_count, bound_violations);
    std::printf("(json written to %s)\n", out_path.c_str());
    return failures == 0 && bound_violations == 0 ? 0 : 1;
}
