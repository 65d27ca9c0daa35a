/**
 * @file
 * The one integer reader of the tools' flags, what-if clauses and
 * lattice axes, and the one reader of their seconds, so every value
 * is accepted and rejected the same way.
 */

#ifndef SDSP_COMMON_NUMBER_HH
#define SDSP_COMMON_NUMBER_HH

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <system_error>

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
inline std::optional<std::uint64_t>
parseNumber(const std::string &text, std::uint64_t min_value,
            std::uint64_t max_value)
{
    // strtoull would accept a leading blank or sign (and wrap "-1").
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(text.c_str(), &end, 0);
    if (end != text.c_str() + text.size() || errno == ERANGE ||
        value < min_value || value > max_value)
        return std::nullopt;
    return value;
}

/** The longest budget parseSeconds() accepts: 10^9 s (31 years) is
 *  10^18 ns, so steady_clock::now() plus it stays inside the int64
 *  nanosecond count that every deadline is converted to. */
inline constexpr double kMaxSeconds = 1e9;

/**
 * Parse @p text as a decimal number of seconds in [0, kMaxSeconds],
 * with '.' as the decimal point whatever the process locale. nullopt
 * for an empty string, a leading blank or '+', trailing characters,
 * inf, nan, or a value out of range, so every accepted value converts
 * to a deadline without overflow.
 */
inline std::optional<double>
parseSeconds(const std::string &text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    // The negated test also refuses nan, which compares false.
    if (ec != std::errc() || ptr != end ||
        !(value >= 0.0 && value <= kMaxSeconds))
        return std::nullopt;
    return value;
}

} // namespace sdsp

#endif // SDSP_COMMON_NUMBER_HH
