/**
 * @file
 * The sdsp-explore design-space lattice explorer.
 *
 * From a handful of per-workload recordings (one real simulation
 * each), projects a what-if lattice of thousands of machine
 * variants through the critical-path engine, cuts the Pareto
 * frontier of (hardware cost, projected cycles), re-simulates ONLY
 * the frontier for real, and reports per-point projection error:
 *
 *     sdsp-explore                             # 3456-point lattice
 *     sdsp-explore --workloads LL1,LL5 -t 4 --scale 25
 *     sdsp-explore --reduced --no-resim --json out.json
 *     sdsp-explore --axis suEntries=16,32,64,128
 *
 * Pessimistic-bound points (capacity decreases) are projected and
 * reported but never enter the frontier. The JSON artifact is
 * sdsp-explore-v1 (see DESIGN.md §11). A run that fails one of the
 * five gates of exploreGateFailures exits 1, so CI's explore gate is
 *
 *     sdsp-explore --reduced --scale 25 --json bench_explore.json
 */

#ifndef SDSP_TOOLS_EXPLORE_CLI_HH
#define SDSP_TOOLS_EXPLORE_CLI_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "explore/explore.hh"

namespace sdsp
{

/** Parsed sdsp-explore invocation. */
struct ExploreCliOptions
{
    /** Workloads to record, one recording each (<= 12). */
    std::vector<std::string> workloads = {"LL1", "LL5", "Sieve"};
    unsigned threads = 4;
    /** Problem scale in percent. Defaults to the golden scale so an
     *  interactive run stays snappy. */
    unsigned scale = 25;
    /** Worker threads for projection and re-simulation (0 = the
     *  SweepRunner default). */
    unsigned jobs = 0;
    /** Use the reduced (24-point) lattice instead of the full one. */
    bool reduced = false;
    /** The --axis overrides ("KEY=V1,V2,..." each), parsed and
     *  checked, in command-line order. */
    std::vector<LatticeAxis> axes;
    /** Skip frontier re-simulation (projection + frontier only). */
    bool noResim = false;
    /** Serialize every lattice point into the JSON artifact. */
    bool includePoints = false;
    /** Write the sdsp-explore-v1 JSON document here (empty = off). */
    std::string jsonPath;
    /** List the built-in workloads and exit. */
    bool list = false;
    /** Set when parsing failed; message explains why. */
    bool ok = true;
    std::string error;
};

/** Parse argv. Never exits; reports problems via options.error. */
ExploreCliOptions
parseExploreCliOptions(const std::vector<std::string> &args);

/** The --help text. */
std::string exploreCliUsage();

/**
 * Record, project, cut the frontier, validate, report. @return 0 on
 * success, 1 on a setup error or a failed gate (see
 * exploreGateFailures), 2 when a recording run did not finish.
 */
int runExploreCli(const ExploreCliOptions &options,
                  std::ostream &out);

} // namespace sdsp

#endif // SDSP_TOOLS_EXPLORE_CLI_HH
