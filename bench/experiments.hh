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
 * entries, so the golden grid, perfbench, sdsp_bench_critpath and
 * the printed figures all read one definition. DESIGN.md section 3
 * maps the entries to the paper.
 */

#ifndef SDSP_BENCH_EXPERIMENTS_HH
#define SDSP_BENCH_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "bench_util.hh"

namespace sdsp
{
namespace bench
{

/** The runs of one experiment: results[workload][variant]. */
using ExperimentResults = std::vector<std::vector<RunResult>>;

struct Experiment;

/**
 * Print @p experiment's tables under its banner from @p results.
 * Entries without sweep points measure here themselves, at problem
 * scale @p scale.
 */
using Report = void (*)(const Experiment &experiment,
                        const ExperimentResults &results,
                        unsigned scale);

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
};

/**
 * Every experiment, in print order: the Group I figures, the Group II
 * figures, the tables, then the ablations. No workload image is built
 * to make it.
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
