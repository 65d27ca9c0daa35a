/**
 * @file
 * The sdsp-run command-line simulator.
 *
 * Runs one source on a configurable machine:
 *
 *     sdsp-run [options] program.s
 *     sdsp-run [options] --workload LL1 --scale 25
 *     sdsp-run [options] --replay run.trace
 *     sdsp-run [options] --replay-stream a.trace:0,b.trace:1
 *
 * An assembly file, a built-in benchmark's image (verified against
 * its C++ reference after the run) and a stream cocktail's flattened
 * program all run the same way; an exact replay re-runs a recording
 * and checks its committed stream. Every source but a cocktail can
 * explain its cycle count: --critpath (implied by --what-if, --slack
 * and --critpath-json) records the dependence graph through the same
 * sink tee as the trace and record flags, checks its critical path
 * exact and projects what-if machines from it.
 *
 * cliUsage() lists the options. The machine flags (-t, -f, -s, the
 * cache flags, ...) come from the table behind parseMachineFlag()
 * (cli_util.hh).
 *
 * Parsing and execution live behind a testable interface; main() is
 * a thin wrapper.
 */

#ifndef SDSP_TOOLS_CLI_HH
#define SDSP_TOOLS_CLI_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hh"
#include "critpath/ddg.hh"

namespace sdsp
{

/** Parsed sdsp-run invocation. */
struct CliOptions
{
    MachineConfig config;
    std::string programPath;
    /** Run this built-in benchmark instead of a program file. */
    std::string workload;
    /** Workload problem scale in percent. */
    unsigned scale = 100;
    /** List the built-in benchmarks and exit. */
    bool list = false;
    bool trace = false;
    /** Write the text trace here (empty = off). */
    std::string traceFile;
    /** Write the Chrome-trace-event (Perfetto) trace here. */
    std::string traceJson;
    bool stats = false;
    bool disasmOnly = false;
    bool align = false;
    /** Record the run as a replayable trace (empty = off). */
    std::string recordPath;
    /** Exact-replay this trace instead of running a program. */
    std::string replayPath;
    /** Stream-replay cocktail: comma list of TRACE[:tid] items. */
    std::string replayStream;
    /** Write a machine-readable run summary here (empty = off). */
    std::string summaryJson;
    /** Record the dependence graph and print the critical-path
     *  report after the run. */
    bool critpath = false;
    /** One projection per --what-if, parsed (and so validated)
     *  before anything runs. */
    std::vector<WhatIf> whatIfs;
    /** Print the per-class slack summary. */
    bool slack = false;
    /** Write the sdsp-critpath-v1 JSON document here (empty = off). */
    std::string critpathJson;
    /** Wall-clock budget in seconds; 0 = unlimited. A run stopped by
     *  this budget exits with code 3 (cycle cap stays code 2). */
    double timeoutSeconds = 0.0;
    /** Set when parsing failed; message explains why. */
    bool ok = true;
    std::string error;
};

/** Parse argv. Never exits; reports problems via CliOptions::error. */
CliOptions parseCliOptions(const std::vector<std::string> &args);

/** Human-readable usage text. */
std::string cliUsage();

/**
 * Run per @p options, writing output to @p out (and the trace, if
 * enabled, to @p trace_out).
 *
 * @return Process exit code: 0 on success, 1 on input, verification
 *         or exactness errors, 2 when the cycle cap stopped the run,
 *         3 when --timeout did.
 */
int runCli(const CliOptions &options, std::ostream &out,
           std::ostream &trace_out);

} // namespace sdsp

#endif // SDSP_TOOLS_CLI_HH
