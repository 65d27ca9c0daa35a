/**
 * @file
 * The paper's evaluation as one registry of experiments.
 *
 * Every figure, table and design-alternative ablation is an entry:
 * an id to select it by, the banner printHeader prints, the
 * (workload x machine variant) points it needs, and a report that
 * prints its tables from their results. sdsp_bench_all runs any
 * selection of the registry through the sweep engine (verification,
 * the static IPC-bound gate, checkpoint/resume and fault injection
 * apply to every point), and buildPaperGrid() enumerates its figure
 * entries, so the golden grid, perfbench, the recorded exactness
 * sweep (sdsp_bench_all --record) and the printed figures all read
 * one definition. A report can also fail the run and write an
 * artifact object: crit_whatif records its points, projects what-ifs
 * from their dependence graphs and gates three projections on their
 * re-simulations. DESIGN.md section 3 maps the entries to the paper.
 */

#ifndef SDSP_BENCH_EXPERIMENTS_HH
#define SDSP_BENCH_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "bench_util.hh"
#include "critpath/report.hh"

namespace sdsp
{
namespace bench
{

/** The runs of one experiment: results[workload][variant]. */
using ExperimentResults = std::vector<std::vector<RunResult>>;

/** A machine change an entry projects its recorded graphs under. */
struct NamedWhatIf
{
    std::string name; //!< its column and JSON name, e.g. "issueWidth=16"
    WhatIf whatIf;
};

/**
 * How the sweep classified one point, and for a point of a recorded
 * variant what its dependence graph showed: the graph's critical path
 * is walked at baseline and the graph relaxed under its entry's
 * what-ifs as the point completes, then released.
 */
struct PointOutcome
{
    JobStatus status = JobStatus::Ok;
    std::string error;
    std::size_t nodes = 0;
    std::size_t edges = 0;
    CriticalPath baseline;
    /** One per what-if of the entry, in its order. */
    std::vector<RelaxResult> projections;
    /** Host ms to build and check the graph and walk its baseline
     *  critical path, and per projection. */
    double buildMs = 0.0;
    double meanRelaxMs = 0.0;
};

/** One experiment's points after the sweep, as its report reads them. */
struct ExperimentRun
{
    ExperimentResults results;
    /** outcomes[workload][variant]. */
    std::vector<std::vector<PointOutcome>> outcomes;
    /** Problem scale in percent; entries without sweep points measure
     *  in their report at this scale. */
    unsigned scale = 100;
};

/** What a report returns besides the tables it prints. */
struct ReportOutput
{
    /** Gate failures: each is printed and makes the run exit 1. */
    std::vector<std::string> failures;
    /** The entry's artifact object, written under reports.<id> in
     *  bench_results.json; empty for none. */
    std::string json;
};

struct Experiment;

/** Print @p experiment's tables from @p run. */
using Report = ReportOutput (*)(const Experiment &experiment,
                                const ExperimentRun &run);

/** One figure, table or ablation of the paper's evaluation. */
struct Experiment
{
    /** Selection id: the grid tag (fig03..fig14) for figures, the
     *  table or ablation name (tab03_hit_rates, abl_bypassing, ...)
     *  otherwise. */
    std::string id;
    /** printHeader's arguments: banner name (also the CSV file
     *  stem), title and what the paper reports. */
    std::string banner;
    std::string title;
    std::string expectation;
    /** The sweep points: every workload under every variant. Both
     *  are empty for entries that are not workload x config grids. */
    std::vector<const Workload *> workloads;
    std::vector<Variant> variants;
    Report report;
    /** Projected from each recorded variant's graph. An entry with
     *  what-ifs reports its failed points itself; any other entry
     *  prints no tables when a point failed. */
    std::vector<NamedWhatIf> whatIfs{};
};

/**
 * Every experiment, in print order: the Group I figures, the Group II
 * figures, the tables, the ablations, then crit_whatif. No workload
 * image is built to make it.
 */
const std::vector<Experiment> &experiments();

/** One selected experiment and where its points sit in the grid. */
struct SelectedExperiment
{
    const Experiment *experiment = nullptr;
    /** Selection::grid.points index of each point, [workload][variant]. */
    std::vector<std::vector<std::size_t>> points;
};

/** What sdsp_bench_all runs and reports for one --only filter. */
struct Selection
{
    std::vector<SelectedExperiment> experiments;
    PaperGrid grid;
};

/**
 * The experiments and points that --only @p filter selects. An empty
 * filter selects the 12 figures, whose points are the paper grid.
 * Otherwise the grid keeps every paper-grid point with an experiment
 * tag or benchmark name containing @p filter, every experiment whose
 * id contains @p filter is selected, and the selected non-figure
 * experiments add their points, deduplicated against those.
 */
Selection selectExperiments(const std::string &filter);

} // namespace bench
} // namespace sdsp

#endif // SDSP_BENCH_EXPERIMENTS_HH
