/**
 * @file
 * The sdsp-critpath command-line analyzer.
 *
 * Runs a workload (built-in benchmark, assembly file, or recorded
 * trace replay) once with the DDG recorder attached, builds the
 * dynamic dependence graph, verifies the critical path against the
 * measured cycle count, and projects what-if machine changes without
 * re-simulating. A built-in benchmark runs as a recorded sweep job
 * (recordBaseline), so SDSP_BENCH_TIMEOUT, SDSP_BENCH_FAULT and the
 * other sweep budgets apply to it:
 *
 *     sdsp-critpath --workload ll1 -t 4
 *     sdsp-critpath program.s --what-if issueWidth=16
 *     sdsp-critpath --trace run.strace --json out.json
 *
 * The machine flags are sdsp-run's, read from the same table
 * (parseMachineFlag). Each --what-if takes a comma list of KEY=VAL
 * clauses (issueWidth, suEntries, perfectDCache, infiniteStoreBuffer,
 * bypassing, fuLat.<class>) and adds one projection; the flag may
 * repeat.
 */

#ifndef SDSP_TOOLS_CRITPATH_CLI_HH
#define SDSP_TOOLS_CRITPATH_CLI_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hh"
#include "critpath/ddg.hh"

namespace sdsp
{

/** Parsed sdsp-critpath invocation. */
struct CritpathCliOptions
{
    MachineConfig config;
    /** Built-in benchmark name (exclusive with the other modes). */
    std::string workload;
    /** Workload problem scale in percent. */
    unsigned scale = 100;
    /** Assembly file to assemble and run. */
    std::string programPath;
    /** Recorded trace to exact-replay instead of running. */
    std::string tracePath;
    /** One projection per --what-if, parsed (and so validated)
     *  before anything runs. */
    std::vector<WhatIf> whatIfs;
    /** Write the sdsp-critpath-v1 JSON document here (empty = off). */
    std::string jsonPath;
    /** Print the per-class slack summary. */
    bool slack = false;
    /** List the built-in workloads and exit. */
    bool list = false;
    /** Set when parsing failed; message explains why. */
    bool ok = true;
    std::string error;
};

/** Parse argv. Never exits; reports problems via options.error. */
CritpathCliOptions
parseCritpathCliOptions(const std::vector<std::string> &args);

/** Human-readable usage text. */
std::string critpathCliUsage();

/**
 * Analyze per @p options, writing the report to @p out.
 * @return Process exit code: 0 on success, 1 on input or exactness
 *         errors, 2 when the run did not finish.
 */
int runCritpathCli(const CritpathCliOptions &options,
                   std::ostream &out);

} // namespace sdsp

#endif // SDSP_TOOLS_CRITPATH_CLI_HH
