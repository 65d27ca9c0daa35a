/**
 * @file
 * Value parsers and helpers shared by the command-line tools
 * (sdsp-run, sdsp-lint, sdsp-critpath, sdsp-explore, sdsp-fuzz), so
 * every tool accepts and rejects a value the same way.
 */

#ifndef SDSP_TOOLS_CLI_UTIL_HH
#define SDSP_TOOLS_CLI_UTIL_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "core/config.hh"
#include "workloads/workload.hh"

namespace sdsp
{

/** The largest value an integer field of type @p Field holds. */
template <typename Field>
constexpr std::uint64_t kFieldMax = std::numeric_limits<Field>::max();

/**
 * Parse @p text as a whole unsigned integer (decimal, or 0x-hex and
 * 0-octal as strtoull with base 0) in [@p min_value, @p max_value].
 * nullopt for an empty string, a sign or leading blank, trailing
 * characters, overflow, or a value out of range, so a value too wide
 * for its field is an error instead of silently wrapping.
 */
std::optional<std::uint64_t> parseNumber(const std::string &text,
                                         std::uint64_t min_value,
                                         std::uint64_t max_value);

/** truerr | maskedrr | cswitch | adaptive | weightedrr. */
std::optional<FetchPolicy> parsePolicy(const std::string &name);

/** A built-in benchmark or extension by name; nullptr if unknown. */
const Workload *findWorkload(const std::string &name);

/** Locale-safe "12.34%" via integer basis points (printf %f would
 *  follow LC_NUMERIC for the decimal point; integers never do). */
std::string percentOf(std::uint64_t part, std::uint64_t whole);

} // namespace sdsp

#endif // SDSP_TOOLS_CLI_UTIL_HH
