/**
 * @file
 * Value parsers and helpers shared by the command-line tools
 * (sdsp-run, sdsp-lint, sdsp-explore, sdsp-fuzz), so every tool
 * accepts and rejects a value the same way: the integer and seconds
 * readers (common/number.hh), the one table of machine flags, and the
 * workload lookup and list.
 */

#ifndef SDSP_TOOLS_CLI_UTIL_HH
#define SDSP_TOOLS_CLI_UTIL_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/number.hh"
#include "core/config.hh"
#include "workloads/workload.hh"

namespace sdsp
{

/**
 * Apply @p args[@p i] to @p config when it is one of the machine flags
 * machineFlagUsage() lists, consuming the value that follows a flag
 * which takes one (@p i then indexes it). @return nullopt when
 * @p args[@p i] is not a machine flag; otherwise the empty string on
 * success or the error text.
 */
std::optional<std::string>
parseMachineFlag(const std::vector<std::string> &args, std::size_t &i,
                 MachineConfig &config);

/** The usage lines of the machine flags, one block in table order. */
std::string machineFlagUsage();

/** A built-in benchmark or extension by name; nullptr if unknown. */
const Workload *findWorkload(const std::string &name);

/** --list: the built-in benchmarks, then the extensions, one name a
 *  line. */
void printWorkloadNames(std::ostream &out);

/** Locale-safe "12.34%" via integer basis points (printf %f would
 *  follow LC_NUMERIC for the decimal point; integers never do). */
std::string percentOf(std::uint64_t part, std::uint64_t whole);

} // namespace sdsp

#endif // SDSP_TOOLS_CLI_UTIL_HH
