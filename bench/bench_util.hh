/**
 * @file
 * Shared infrastructure of the bench drivers: sdsp_bench_all, which
 * runs the paper's figures, tables and ablations (the registry in
 * experiments.hh; DESIGN.md section 3 maps them to the paper),
 * sdsp_bench_critpath and sdsp_bench_explore.
 *
 * Each experiment prints a header (what the paper reports, what shape
 * to expect) and its measurement tables. Every printed table is also
 * written as CSV into the directory named by SDSP_BENCH_CSV (if set)
 * for plotting. The problem-size scale (percent) defaults to the
 * SDSP_BENCH_SCALE environment variable (default 100), and sweeps run
 * SDSP_BENCH_JOBS workers (default hardware_concurrency).
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

/** Print the experiment banner for problem scale @p scale (also
 *  names any CSV exports). */
void printHeader(const std::string &experiment_id,
                 const std::string &title,
                 const std::string &paper_expectation, unsigned scale);

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
 * Enumerate every grid point of the paper's figures 3-14 (fetch
 * policies, thread counts, cache organizations, SU depths,
 * functional-unit complements, commit policies): the points of the
 * registry's figure entries (experiments.hh), deduplicated across
 * experiments. Workloads are routed through cachedWorkload() so all
 * consumers share one assembly per (benchmark, threads, scale). This
 * is the single definition of "the paper grid": sdsp_bench_all
 * executes it and sdsp_bench_critpath verifies the critical-path
 * engine against it.
 */
PaperGrid buildPaperGrid();

/**
 * Print a cycles table of @p grid (rows: benchmarks; columns:
 * variants), followed by a row of means.
 *
 * @param grid  results[workload][variant].
 * @return cycles[workload][variant].
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

/**
 * The value of command-line option (or environment variable) @p name:
 * @p text as a whole decimal number in [@p min_value, @p max_value].
 * Fatal otherwise, naming the option.
 */
long parseIntOption(const char *name, const char *text, long min_value,
                    long max_value);

} // namespace bench
} // namespace sdsp

#endif // SDSP_BENCH_BENCH_UTIL_HH
