/**
 * @file
 * The sdsp-run command-line simulator.
 *
 * Assembles an SDSP-MT assembly file and runs it on a configurable
 * machine:
 *
 *     sdsp-run [options] program.s
 *
 * cliUsage() lists the options. The machine flags (-t, -f, -s, the
 * cache flags, ...) come from the table behind parseMachineFlag()
 * (cli_util.hh), which sdsp-critpath reads too.
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

namespace sdsp
{

/** Parsed sdsp-run invocation. */
struct CliOptions
{
    MachineConfig config;
    std::string programPath;
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
     *  breakdown after the run. */
    bool critpath = false;
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
 * Assemble and run per @p options, writing output to @p out (and the
 * trace, if enabled, to @p trace_out).
 *
 * @return Process exit code: 0 on success, 1 on input errors, 2 when
 *         the cycle cap stopped the run, 3 when --timeout did.
 */
int runCli(const CliOptions &options, std::ostream &out,
           std::ostream &trace_out);

} // namespace sdsp

#endif // SDSP_TOOLS_CLI_HH
