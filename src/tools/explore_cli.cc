#include "tools/explore_cli.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "harness/sweep.hh"
#include "tools/cli_util.hh"
#include "workloads/workload.hh"

namespace sdsp
{

namespace
{

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> items;
    std::istringstream stream(list);
    std::string item;
    while (std::getline(stream, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

/** Parse one --axis spec "KEY=V1,V2,..." and validate every value
 *  against WhatIf::applyKeyValue. */
bool
parseAxisSpec(const std::string &spec, LatticeAxis *axis,
              std::string *error)
{
    std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        *error = "expected KEY=V1,V2,..., got '" + spec + "'";
        return false;
    }
    axis->key = spec.substr(0, eq);
    axis->values.clear();
    for (const std::string &item : splitCommas(spec.substr(eq + 1))) {
        char *end = nullptr;
        errno = 0;
        long value = std::strtol(item.c_str(), &end, 10);
        if (end != item.c_str() + item.size()) {
            *error = "axis value '" + item + "' is not an integer";
            return false;
        }
        if (errno == ERANGE) {
            *error = "axis value '" + item + "' is out of range";
            return false;
        }
        WhatIf probe;
        if (!probe.applyKeyValue(
                format("%s=%ld", axis->key.c_str(), value), error))
            return false;
        axis->values.push_back(value);
    }
    if (axis->values.empty()) {
        *error = "axis '" + axis->key + "' has no values";
        return false;
    }
    return true;
}

} // namespace

std::string
exploreCliUsage()
{
    return "usage: sdsp-explore [options]\n"
           "  --workloads LIST     comma list of recordings "
           "(default LL1,LL5,Sieve; max 12)\n"
           "  --list               list built-in benchmarks\n"
           "  -t N                 resident threads (default 4)\n"
           "  --scale N            workload problem scale percent "
           "(default 25)\n"
           "  --jobs N             worker threads (default: "
           "SDSP_BENCH_JOBS or all cores)\n"
           "  --reduced            24-point smoke lattice instead of "
           "the full 3456\n"
           "  --axis KEY=V1,V2,..  override one lattice axis; may "
           "repeat\n"
           "  --no-resim           skip frontier re-simulation\n"
           "  --include-points     dump every lattice point into the "
           "JSON\n"
           "  --json PATH          write the sdsp-explore-v1 report\n";
}

ExploreCliOptions
parseExploreCliOptions(const std::vector<std::string> &args)
{
    ExploreCliOptions options;

    auto fail = [&](const std::string &why) {
        options.ok = false;
        options.error = why;
        return options;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next_value = [&]() -> std::optional<std::string> {
            if (i + 1 >= args.size())
                return std::nullopt;
            return args[++i];
        };

        if (arg == "--workloads" || arg == "-t" || arg == "--scale" ||
            arg == "--jobs" || arg == "--axis" || arg == "--json") {
            auto value = next_value();
            if (!value)
                return fail(arg + " needs a value");

            if (arg == "--workloads") {
                options.workloads = splitCommas(*value);
                if (options.workloads.empty())
                    return fail("--workloads list is empty");
            } else if (arg == "-t") {
                auto n = parseNumber(*value, 1, 16);
                if (!n)
                    return fail("bad thread count: " + *value);
                options.threads = static_cast<unsigned>(*n);
            } else if (arg == "--scale") {
                auto n = parseNumber(*value, 1, 1000);
                if (!n)
                    return fail("bad scale: " + *value);
                options.scale = static_cast<unsigned>(*n);
            } else if (arg == "--jobs") {
                auto n = parseNumber(*value, 1, 256);
                if (!n)
                    return fail("bad job count: " + *value);
                options.jobs = static_cast<unsigned>(*n);
            } else if (arg == "--axis") {
                options.axisSpecs.push_back(*value);
            } else { // --json
                options.jsonPath = *value;
            }
        } else if (arg == "--reduced") {
            options.reduced = true;
        } else if (arg == "--no-resim") {
            options.noResim = true;
        } else if (arg == "--include-points") {
            options.includePoints = true;
        } else if (arg == "--list") {
            options.list = true;
        } else {
            return fail("unknown option: " + arg);
        }
    }

    if (options.workloads.size() > 12) {
        return fail(format("%zu recordings requested; the explorer "
                           "projects thousands of points from at "
                           "most 12",
                           options.workloads.size()));
    }
    // Validate the axis specs at parse time (cheap failure first).
    for (const std::string &spec : options.axisSpecs) {
        LatticeAxis axis;
        std::string error;
        if (!parseAxisSpec(spec, &axis, &error))
            return fail("--axis " + spec + ": " + error);
    }
    return options;
}

int
runExploreCli(const ExploreCliOptions &options, std::ostream &out)
{
    if (options.list) {
        for (const Workload *workload : allWorkloads())
            out << workload->name() << "\n";
        for (const Workload *workload : extensionWorkloads())
            out << workload->name() << "\n";
        return 0;
    }

    const unsigned jobs =
        options.jobs ? options.jobs : SweepRunner::defaultJobs();

    MachineConfig base;
    base.numThreads = options.threads;
    base.finalize();

    // ---- Record the baselines (one real simulation each). ----
    std::vector<const Workload *> sources;
    for (const std::string &name : options.workloads) {
        const Workload *workload = findWorkload(name);
        if (!workload) {
            out << "sdsp-explore: no benchmark named '" << name
                << "' (see --list)\n";
            return 1;
        }
        sources.push_back(workload);
    }

    auto record_start = std::chrono::steady_clock::now();
    std::vector<ExploreRecording> recordings(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i)
        recordings[i] = recordBaseline(*sources[i], base,
                                       options.scale);
    auto record_end = std::chrono::steady_clock::now();

    Cycle baselineTotal = 0;
    out << "machine    : " << base.toString() << "\n";
    out << format("recordings : %zu workloads, t=%u, scale %u%%\n",
                  recordings.size(), options.threads, options.scale);
    for (const ExploreRecording &recording : recordings) {
        if (!recording.error.empty()) {
            out << "sdsp-explore: " << recording.workload << ": "
                << recording.error << "\n";
            return recording.error.rfind("did not finish", 0) == 0
                       ? 2
                       : 1;
        }
        baselineTotal += recording.measured;
        out << format("  %-10s %10llu cycles  %9llu insts  "
                      "(%zu nodes, %zu edges)\n",
                      recording.workload.c_str(),
                      static_cast<unsigned long long>(
                          recording.measured),
                      static_cast<unsigned long long>(
                          recording.committed),
                      recording.graph->nodeCount(),
                      recording.graph->edgeCount());
    }
    out << format("  recorded in %.1f ms (exact critical paths)\n",
                  std::chrono::duration<double, std::milli>(
                      record_end - record_start)
                      .count());

    // ---- Enumerate and project the lattice. ----
    LatticeAxes axes = options.reduced ? LatticeAxes::reduced()
                                       : LatticeAxes::full();
    for (const std::string &spec : options.axisSpecs) {
        LatticeAxis axis;
        std::string error;
        if (!parseAxisSpec(spec, &axis, &error)) {
            out << "sdsp-explore: --axis " << spec << ": " << error
                << "\n";
            return 1;
        }
        axes.overrideAxis(std::move(axis));
    }

    std::vector<LatticePoint> points = buildLattice(axes, base);
    auto project_start = std::chrono::steady_clock::now();
    projectLattice(points, recordings, jobs);
    auto project_end = std::chrono::steady_clock::now();
    const double projectMs =
        std::chrono::duration<double, std::milli>(project_end -
                                                  project_start)
            .count();

    std::vector<std::size_t> frontier = paretoFrontier(points);

    ExploreReport report;
    report.base = base;
    report.scale = options.scale;
    report.tolerancePercent = exploreTolerancePercent(options.scale);
    report.includeAllPoints = options.includePoints;
    report.recordings = &recordings;
    report.points = &points;
    report.frontier = &frontier;

    std::vector<FrontierValidation> validations;
    if (!options.noResim) {
        validations = validateFrontier(points, frontier, recordings,
                                       base, options.scale, jobs);
        report.validations = &validations;
    }
    const ExploreSummary summary = summarize(report);

    out << format("lattice    : %zu points x %zu recordings "
                  "projected in %.0f ms (%.0f projections/s)\n",
                  points.size(), recordings.size(), projectMs,
                  projectMs > 0.0
                      ? static_cast<double>(points.size() *
                                            recordings.size()) *
                            1000.0 / projectMs
                      : 0.0);
    out << format("confidence : %zu exact, %zu optimistic-bound, "
                  "%zu pessimistic-bound (excluded from frontier)\n",
                  summary.exact, summary.optimistic,
                  summary.pessimistic);

    // ---- The frontier. ----
    out << format("frontier   : %zu Pareto-optimal points "
                  "(cost vs. projected cycles)\n",
                  frontier.size());
    out << format("  %10s %14s %8s %-18s %s\n", "cost", "projected",
                  "speedup", "confidence", "what-if");
    for (std::size_t idx : frontier) {
        const LatticePoint &point = points[idx];
        out << format("  %10.1f %14llu %7.3fx %-18s %s\n", point.cost,
                      static_cast<unsigned long long>(
                          point.projectedTotal),
                      point.projectedTotal
                          ? static_cast<double>(baselineTotal) /
                                static_cast<double>(
                                    point.projectedTotal)
                          : 0.0,
                      confidenceName(point.confidence),
                      point.name.c_str());
    }

    // ---- Validation against real re-simulations. ----
    if (!options.noResim) {
        out << format("validation : %zu frontier points re-simulated "
                      "(tolerance %.1f%% at scale %u)\n",
                      validations.size(), report.tolerancePercent,
                      options.scale);
        for (const FrontierValidation &validation : validations) {
            const LatticePoint &point = points[validation.point];
            if (!validation.allOk) {
                std::string detail;
                for (std::size_t r = 0;
                     r < validation.errors.size(); ++r) {
                    if (validation.errors[r].empty())
                        continue;
                    detail += detail.empty() ? "" : "; ";
                    detail += recordings[r].workload + ": " +
                              validation.errors[r];
                }
                out << format("  %-44s RESIM FAILED (%s)\n",
                              point.name.c_str(), detail.c_str());
                continue;
            }
            out << format(
                "  %-44s projected %12llu  real %12llu  "
                "error %+.2f%%%s%s\n",
                point.name.c_str(),
                static_cast<unsigned long long>(
                    point.projectedTotal),
                static_cast<unsigned long long>(
                    validation.resimTotal),
                validation.errorPercent,
                validation.soundnessGated ? "  [sound bound]" : "",
                validation.optimisticViolation ? "  VIOLATION"
                                               : "");
        }
        out << format("summary    : max |error| %.2f%%, %zu resim "
                      "failures, %zu optimistic-bound violations\n",
                      summary.maxAbsErrorPercent,
                      summary.resimFailures,
                      summary.optimisticViolations);
        if (summary.maxAbsErrorPercent > report.tolerancePercent) {
            out << format("warning    : max projection error exceeds "
                          "the %.1f%% tolerance\n",
                          report.tolerancePercent);
        }
    }

    if (!options.jsonPath.empty()) {
        std::ofstream json(options.jsonPath);
        if (!json) {
            out << "sdsp-explore: cannot open " << options.jsonPath
                << "\n";
            return 1;
        }
        json << exploreJson(report) << "\n";
        out << "(json written to " << options.jsonPath << ")\n";
    }

    if (summary.resimFailures || summary.optimisticViolations)
        return 1;
    return 0;
}

} // namespace sdsp
