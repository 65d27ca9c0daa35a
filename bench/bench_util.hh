/**
 * @file
 * Shared infrastructure for the paper-reproduction bench binaries.
 *
 * Every figure and table from the paper's evaluation section has one
 * binary (see DESIGN.md section 3 for the index). They all print an
 * experiment header (what the paper reports, what shape to expect), a
 * measurement table, and exit non-zero if any run fails verification
 * — so the bench suite doubles as an end-to-end regression test at
 * full problem scale.
 *
 * The problem-size scale (percent) can be overridden with the
 * SDSP_BENCH_SCALE environment variable (default 100), and every
 * printed table is also written as CSV into the directory named by
 * SDSP_BENCH_CSV (if set) for plotting. Grid experiments execute
 * their points concurrently on the sweep engine (SDSP_BENCH_JOBS
 * workers, default hardware_concurrency); setting SDSP_BENCH_JSON to
 * a directory additionally exports every grid's raw runs as JSON.
 */

#ifndef SDSP_BENCH_BENCH_UTIL_HH
#define SDSP_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "common/table.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "workloads/workload.hh"

namespace sdsp
{
namespace bench
{

/** Problem-size scale in percent (SDSP_BENCH_SCALE, default 100). */
unsigned benchScale();

/** Sweep workers (SDSP_BENCH_JOBS, default hardware_concurrency). */
unsigned benchJobs();

/** The paper's default machine (Table 2) for @p threads threads. */
MachineConfig paperConfig(unsigned threads = 4);

/** Group I (Livermore loops). */
std::vector<const Workload *> groupI();

/** Group II (Laplace, MPD, Matrix, Sieve, Water). */
std::vector<const Workload *> groupII();

/** Print the experiment banner (also names any CSV exports). */
void printHeader(const std::string &experiment_id,
                 const std::string &title,
                 const std::string &paper_expectation);

/**
 * Write @p table as CSV into $SDSP_BENCH_CSV/<experiment><suffix>.csv
 * when that environment variable is set (the directory is created if
 * missing); otherwise a no-op. The experiment name comes from the
 * last printHeader call.
 */
void exportCsv(const Table &table, const std::string &suffix = "");

/**
 * A process-lifetime cached view of @p workload: build(num_threads,
 * scale) assembles the program once per distinct (threads, scale) key
 * and returns copies of the cached image afterwards. Workload
 * generators are deterministic const objects, so the copy is
 * bit-identical to a fresh build. The returned reference is stable for
 * the life of the process, and the cache is thread-safe, so sweep
 * workers that hit the same benchmark concurrently assemble it once.
 */
const Workload &cachedWorkload(const Workload &workload);

/** Run one benchmark, fatal unless it finishes and verifies. */
RunResult runChecked(const Workload &workload,
                     const MachineConfig &config);

/** A named machine configuration (one table column). */
struct Variant
{
    std::string name;
    MachineConfig config;
};

/** One deduplicated paper-grid point and the experiments needing it. */
struct PaperGridPoint
{
    const Workload *workload = nullptr;
    MachineConfig config;
    std::vector<std::string> experiments;
};

/** The deduplicated figure/table grid of the paper's evaluation. */
struct PaperGrid
{
    std::vector<PaperGridPoint> points;
    /** Grid points before deduplication, for reporting. */
    std::size_t submitted = 0;
};

/**
 * Enumerate every grid point of the paper's figure/table suite
 * (fetch policies, thread counts, cache organizations, SU depths,
 * functional-unit complements, commit policies — figures 3-14 and
 * tables 3/5.2), deduplicated across experiments. Workloads are
 * routed through cachedWorkload() so all consumers share one
 * assembly per (benchmark, threads, scale). This is the single
 * definition of "the paper grid": sdsp_bench_all executes it and
 * sdsp_bench_critpath verifies the critical-path engine against it.
 */
PaperGrid buildPaperGrid();

/**
 * Run every (workload x variant) grid point concurrently on the
 * sweep engine at benchScale(), fatal unless each run finishes and
 * verifies.
 *
 * @return results[workload][variant], independent of the schedule.
 */
std::vector<std::vector<RunResult>>
runGrid(const std::vector<const Workload *> &workloads,
        const std::vector<Variant> &variants);

/**
 * Export @p grid (as returned by runGrid) into
 * $SDSP_BENCH_JSON/<experiment><suffix>.json when that environment
 * variable is set; otherwise a no-op.
 */
void exportRunsJson(const std::vector<Variant> &variants,
                    const std::vector<std::vector<RunResult>> &grid,
                    const std::string &suffix = "_runs");

/**
 * Run each workload under each variant (concurrently, via runGrid)
 * and print a cycles table (rows: benchmarks; columns: variants),
 * followed by a row of means.
 *
 * @return cycles[workload][variant].
 */
std::vector<std::vector<Cycle>>
printCyclesTable(const std::vector<const Workload *> &workloads,
                 const std::vector<Variant> &variants);

/**
 * As above, but over precomputed @p grid results — for experiments
 * that also report other columns of the same runs.
 */
std::vector<std::vector<Cycle>>
printCyclesTable(const std::vector<const Workload *> &workloads,
                 const std::vector<Variant> &variants,
                 const std::vector<std::vector<RunResult>> &grid);

/**
 * Print a speedup table relative to a baseline column, using the
 * paper's formula (section 5.2).
 *
 * @param cycles    As returned by printCyclesTable.
 * @param base_col  Index of the single-threaded baseline column.
 */
void printSpeedupTable(
    const std::vector<const Workload *> &workloads,
    const std::vector<Variant> &variants,
    const std::vector<std::vector<Cycle>> &cycles,
    std::size_t base_col);

} // namespace bench
} // namespace sdsp

#endif // SDSP_BENCH_BENCH_UTIL_HH
