#include "explore/explore.hh"

#include <algorithm>
#include <cmath>

#include "common/json.hh"
#include "harness/sweep.hh"

namespace sdsp
{

namespace
{

Confidence
worse(Confidence a, Confidence b)
{
    return static_cast<unsigned>(a) >= static_cast<unsigned>(b) ? a
                                                                : b;
}

} // namespace

ExploreRecording
recordBaseline(const Workload &workload, const MachineConfig &config,
               unsigned scale)
{
    return std::move(recordBaselines({&workload}, config, scale, 1).front());
}

std::vector<ExploreRecording>
recordBaselines(const std::vector<const Workload *> &workloads,
                const MachineConfig &config, unsigned scale,
                unsigned jobs)
{
    SweepRunner runner(jobs);
    for (const Workload *workload : workloads) {
        SweepJob job{workload, config, scale, "baseline"};
        job.record = true;
        runner.add(std::move(job));
    }
    std::vector<JobOutcome> outcomes = runner.runAll();

    std::vector<ExploreRecording> recordings(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        ExploreRecording &recording = recordings[i];
        recording.source = workloads[i];
        recording.workload = workloads[i]->name();
        recording.threads = config.numThreads;

        JobOutcome &outcome = outcomes[i];
        const RunResult &run = outcome.result;
        if (outcome.ok()) {
            recording.measured = run.cycles;
            recording.committed = run.committed;
            recording.buildSeconds = outcome.graphSeconds;
            recording.graph = std::move(outcome.graph);
        } else if (run.finished && !run.verified) {
            recording.error = "failed verification: " + outcome.error;
        } else if (!run.finished && run.cycles) {
            // Stopped at a cycle cap or budget; a thrown attempt never
            // simulated a cycle.
            recording.error = "did not finish: " + outcome.error;
        } else {
            // Thrown, or "inexact critical path: ..." from the sweep.
            recording.error = outcome.error;
        }
    }
    return recordings;
}

void
projectLattice(std::vector<LatticePoint> &points,
               const std::vector<ExploreRecording> &recordings,
               unsigned jobs)
{
    parallelFor(points.size(), jobs, [&](std::size_t i) {
        LatticePoint &point = points[i];
        point.projected.clear();
        point.projected.reserve(recordings.size());
        point.projectedTotal = 0;
        for (const ExploreRecording &recording : recordings) {
            RelaxResult result =
                recording.graph->relax(point.whatIf);
            point.projected.push_back(result.cycles);
            point.projectedTotal += result.cycles;
            point.confidence =
                worse(point.confidence, result.confidence);
        }
    });
}

std::vector<FrontierValidation>
validateFrontier(const std::vector<LatticePoint> &points,
                 const std::vector<std::size_t> &frontier,
                 const std::vector<ExploreRecording> &recordings,
                 const MachineConfig &base, unsigned scale,
                 unsigned jobs)
{
    SweepRunner runner(jobs);
    for (std::size_t idx : frontier) {
        const LatticePoint &point = points[idx];
        MachineConfig config = applyWhatIf(point.whatIf, base);
        for (const ExploreRecording &recording : recordings) {
            runner.add(*recording.source, config, scale,
                       point.name + "/" + recording.workload);
        }
    }
    std::vector<JobOutcome> outcomes = runner.runAll();

    std::vector<FrontierValidation> validations;
    validations.reserve(frontier.size());
    const std::size_t R = recordings.size();
    for (std::size_t f = 0; f < frontier.size(); ++f) {
        const LatticePoint &point = points[frontier[f]];
        FrontierValidation validation;
        validation.point = frontier[f];
        validation.allOk = true;
        validation.soundnessGated =
            point.whatIf.isPureCapacityIncrease(base);
        for (std::size_t r = 0; r < R; ++r) {
            const JobOutcome &outcome = outcomes[f * R + r];
            if (outcome.ok()) {
                validation.resimulated.push_back(
                    outcome.result.cycles);
                validation.errors.emplace_back();
                validation.resimTotal += outcome.result.cycles;
            } else {
                validation.resimulated.push_back(0);
                validation.errors.push_back(
                    outcome.error.empty()
                        ? std::string(jobStatusName(outcome.status))
                        : outcome.error);
                validation.allOk = false;
            }
        }
        if (validation.allOk && validation.resimTotal) {
            validation.errorPercent =
                (static_cast<double>(point.projectedTotal) -
                 static_cast<double>(validation.resimTotal)) /
                static_cast<double>(validation.resimTotal) * 100.0;
            // The bound is gated on the point's total — the same
            // coordinate the frontier was cut on. Individual
            // recordings can wobble a few percent either way at
            // small scales (the re-simulated machine reschedules
            // fetch interleaving the recorded dispatch order cannot
            // express); the per-recording arrays in the artifact
            // keep that visible without tripping the gate on noise.
            validation.optimisticViolation =
                validation.soundnessGated &&
                point.projectedTotal > validation.resimTotal;
        }
        validations.push_back(std::move(validation));
    }
    return validations;
}

double
scaledTolerancePercent(unsigned scale, double base_percent,
                       double cap_percent)
{
    if (scale <= kGoldenScale)
        return base_percent;
    return std::min(cap_percent,
                    base_percent * (static_cast<double>(scale) /
                                    static_cast<double>(kGoldenScale)));
}

ExploreSummary
summarize(const ExploreReport &report)
{
    ExploreSummary summary;
    summary.latticePoints = report.points->size();
    for (const LatticePoint &point : *report.points) {
        switch (point.confidence) {
          case Confidence::Exact:
            ++summary.exact;
            break;
          case Confidence::OptimisticBound:
            ++summary.optimistic;
            break;
          case Confidence::PessimisticBound:
            ++summary.pessimistic;
            break;
        }
    }
    summary.frontierSize = report.frontier->size();
    summary.resimulated = report.validations != nullptr;
    if (report.validations) {
        summary.validated = report.validations->size();
        for (const FrontierValidation &validation :
             *report.validations) {
            if (!validation.allOk) {
                ++summary.resimFailures;
                continue;
            }
            if (validation.optimisticViolation)
                ++summary.optimisticViolations;
            summary.maxAbsErrorPercent =
                std::max(summary.maxAbsErrorPercent,
                         std::fabs(validation.errorPercent));
        }
    }
    return summary;
}

std::vector<std::string>
exploreGateFailures(const ExploreSummary &summary,
                    double tolerance_percent)
{
    std::vector<std::string> failures;
    if (summary.frontierSize == 0)
        failures.emplace_back("the frontier is empty");
    if (!summary.resimulated)
        return failures;
    if (summary.validated != summary.frontierSize)
        failures.emplace_back("not every frontier point was "
                              "re-simulated");
    if (summary.resimFailures)
        failures.emplace_back("re-simulation failures");
    if (summary.optimisticViolations)
        failures.emplace_back("optimistic-bound violations (a "
                              "capacity increase projected above its "
                              "re-simulation)");
    if (summary.maxAbsErrorPercent > tolerance_percent)
        failures.emplace_back("projection error beyond the scale "
                              "tolerance");
    return failures;
}

std::string
exploreJson(const ExploreReport &report)
{
    const ExploreSummary summary = summarize(report);

    JsonWriter w;
    w.beginObject();
    w.field("schema", "sdsp-explore-v1");
    w.field("scale", report.scale);
    w.field("tolerancePercent", report.tolerancePercent);

    w.key("config")
        .beginObject()
        .field("numThreads", report.base.numThreads)
        .field("issueWidth", report.base.issueWidth)
        .field("suEntries", report.base.suEntries)
        .field("bypassing", report.base.bypassing)
        .field("numRegisters", report.base.numRegisters)
        .endObject();

    w.key("summary")
        .beginObject()
        .field("latticePoints",
               static_cast<std::uint64_t>(summary.latticePoints))
        .field("exact", static_cast<std::uint64_t>(summary.exact))
        .field("optimisticBound",
               static_cast<std::uint64_t>(summary.optimistic))
        .field("pessimisticBound",
               static_cast<std::uint64_t>(summary.pessimistic))
        .field("frontierSize",
               static_cast<std::uint64_t>(summary.frontierSize))
        .field("validated",
               static_cast<std::uint64_t>(summary.validated))
        .field("resimFailures",
               static_cast<std::uint64_t>(summary.resimFailures))
        .field("optimisticViolations",
               static_cast<std::uint64_t>(
                   summary.optimisticViolations))
        .field("maxAbsErrorPercent", summary.maxAbsErrorPercent)
        .endObject();

    w.key("recordings").beginArray();
    for (const ExploreRecording &recording : *report.recordings) {
        w.beginObject();
        w.field("workload", recording.workload);
        w.field("threads", recording.threads);
        w.field("measuredCycles", recording.measured);
        w.field("committed", recording.committed);
        if (recording.graph) {
            w.field("nodes", static_cast<std::uint64_t>(
                                 recording.graph->nodeCount()));
            w.field("edges", static_cast<std::uint64_t>(
                                 recording.graph->edgeCount()));
        }
        w.endObject();
    }
    w.endArray();

    // The frontier, each point with its per-recording projections
    // and (when re-simulation ran) per-point projection error.
    std::vector<const FrontierValidation *> byPoint(
        report.points->size(), nullptr);
    if (report.validations) {
        for (const FrontierValidation &validation :
             *report.validations)
            byPoint[validation.point] = &validation;
    }
    w.key("frontier").beginArray();
    for (std::size_t idx : *report.frontier) {
        const LatticePoint &point = (*report.points)[idx];
        w.beginObject();
        w.field("name", point.name);
        w.field("cost", point.cost);
        w.field("confidence", confidenceName(point.confidence));
        w.field("projectedTotal", point.projectedTotal);
        w.key("projected").beginArray();
        for (Cycle cycles : point.projected)
            w.value(cycles);
        w.endArray();
        if (const FrontierValidation *validation = byPoint[idx]) {
            w.key("validation").beginObject();
            w.field("allOk", validation->allOk);
            w.field("resimTotal", validation->resimTotal);
            w.field("errorPercent", validation->errorPercent);
            w.field("soundnessGated", validation->soundnessGated);
            w.field("optimisticViolation",
                    validation->optimisticViolation);
            w.key("resimulated").beginArray();
            for (Cycle cycles : validation->resimulated)
                w.value(cycles);
            w.endArray();
            bool anyError = false;
            for (const std::string &error : validation->errors)
                anyError = anyError || !error.empty();
            if (anyError) {
                w.key("errors").beginArray();
                for (const std::string &error : validation->errors)
                    w.value(error);
                w.endArray();
            }
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();

    if (report.includeAllPoints) {
        w.key("points").beginArray();
        for (const LatticePoint &point : *report.points) {
            w.beginObject();
            w.field("name", point.name);
            w.field("cost", point.cost);
            w.field("confidence", confidenceName(point.confidence));
            w.field("projectedTotal", point.projectedTotal);
            w.endObject();
        }
        w.endArray();
    }

    w.endObject();
    return w.str();
}

} // namespace sdsp
