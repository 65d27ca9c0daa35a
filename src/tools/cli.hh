/**
 * @file
 * The sdsp-run command-line simulator.
 *
 * Assembles an SDSP-MT assembly file and runs it on a configurable
 * machine:
 *
 *     sdsp-run [options] program.s
 *
 * Options (see parseCliOptions for the full list):
 *     -t N                 resident threads (default 4)
 *     -f POLICY            truerr | maskedrr | cswitch | adaptive
 *                          | weightedrr
 *     -w W0,W1,...         fetch weights for weightedrr
 *     -s N                 scheduling unit entries (default 32)
 *     --commit MODE        flexible | lowest
 *     --rename MODE        full | scoreboard
 *     --no-bypass          disable result bypassing
 *     --cache-ways N       data cache associativity (1 = direct)
 *     --cache-size BYTES   data cache capacity
 *     --cache-partitions N per-thread cache partitions
 *     --btb-banks N        private per-thread BTBs
 *     --finite-icache      model a finite instruction cache
 *     --max-cycles N       simulation cap
 *     --timeout SECS       wall-clock budget (exit code 3 when hit)
 *     --align              apply the section-6.1 layout optimization
 *     --trace              per-cycle pipeline event trace
 *     --trace-file PATH    write the text trace to PATH
 *     --trace-json PATH    write a Chrome-trace-event (Perfetto)
 *                          trace to PATH
 *     --stats              dump all statistics after the run
 *                          (scalars, latency histograms, and the
 *                          per-thread stall attribution with
 *                          percent-of-total columns)
 *     --critpath           build the dynamic dependence graph and
 *                          print the critical-path breakdown
 *                          (verified exact against the cycle count)
 *     --disasm             print the disassembly and exit
 *     --record PATH        record the committed-instruction stream
 *                          as a replayable trace file
 *     --replay PATH        exact-replay a recorded trace instead of
 *                          running a program, verifying the committed
 *                          stream against the recording
 *     --replay-stream LIST stream-replay a "trace cocktail": a comma
 *                          list of TRACE[:tid] items, one hardware
 *                          thread per item
 *     --summary-json PATH  write a machine-readable run summary
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
