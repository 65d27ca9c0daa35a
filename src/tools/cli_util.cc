#include "tools/cli_util.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace sdsp
{

std::optional<std::uint64_t>
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

std::optional<FetchPolicy>
parsePolicy(const std::string &name)
{
    if (name == "truerr")
        return FetchPolicy::TrueRoundRobin;
    if (name == "maskedrr")
        return FetchPolicy::MaskedRoundRobin;
    if (name == "cswitch")
        return FetchPolicy::ConditionalSwitch;
    if (name == "adaptive")
        return FetchPolicy::Adaptive;
    if (name == "weightedrr")
        return FetchPolicy::WeightedRoundRobin;
    return std::nullopt;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload *workload : allWorkloads())
        if (workload->name() == name)
            return workload;
    for (const Workload *workload : extensionWorkloads())
        if (workload->name() == name)
            return workload;
    return nullptr;
}

std::string
percentOf(std::uint64_t part, std::uint64_t whole)
{
    if (!whole)
        return "0.00%";
    std::uint64_t bp = (part * 10000 + whole / 2) / whole;
    return format("%llu.%02llu%%",
                  static_cast<unsigned long long>(bp / 100),
                  static_cast<unsigned long long>(bp % 100));
}

} // namespace sdsp
