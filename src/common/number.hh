/**
 * @file
 * The one integer reader of the tools' flags, what-if clauses and
 * lattice axes, so every value is accepted and rejected the same way.
 */

#ifndef SDSP_COMMON_NUMBER_HH
#define SDSP_COMMON_NUMBER_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

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

} // namespace sdsp

#endif // SDSP_COMMON_NUMBER_HH
