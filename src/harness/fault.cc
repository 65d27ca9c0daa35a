#include "harness/fault.hh"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"
#include "common/number.hh"

namespace sdsp
{

namespace
{

/** Parse an unsigned integer as parseNumber reads it; fatal with
 *  context on failure. */
std::uint64_t
parseCount(const std::string &text, const char *what)
{
    if (text.empty())
        fatal("SDSP_BENCH_FAULT: missing %s", what);
    auto value = parseNumber(text, 0, kFieldMax<std::uint64_t>);
    if (!value)
        fatal("SDSP_BENCH_FAULT: bad %s: %s", what, text.c_str());
    return *value;
}

FaultRule
parseRule(const std::string &text)
{
    std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("SDSP_BENCH_FAULT: rule needs 'match=action': %s",
              text.c_str());

    FaultRule rule;
    rule.match = text.substr(0, eq);
    std::string action = text.substr(eq + 1);

    std::size_t star = action.rfind('*');
    if (star != std::string::npos) {
        std::uint64_t n =
            parseCount(action.substr(star + 1), "attempt count");
        if (n < 1 || n > 1000)
            fatal("SDSP_BENCH_FAULT: attempt count out of range: %s",
                  action.c_str());
        rule.attemptLimit = static_cast<unsigned>(n);
        action.erase(star);
    }

    if (action == "throw") {
        rule.action = FaultAction::Throw;
    } else if (action.rfind("delay:", 0) == 0) {
        rule.action = FaultAction::Delay;
        std::uint64_t ms =
            parseCount(action.substr(6), "delay milliseconds");
        if (ms > 600'000)
            fatal("SDSP_BENCH_FAULT: delay too long: %s",
                  action.c_str());
        rule.delayMillis = static_cast<unsigned>(ms);
    } else if (action.rfind("exit:", 0) == 0) {
        rule.action = FaultAction::Exit;
        std::uint64_t code =
            parseCount(action.substr(5), "exit code");
        if (code > 255)
            fatal("SDSP_BENCH_FAULT: exit code out of range: %s",
                  action.c_str());
        rule.exitCode = static_cast<int>(code);
    } else {
        fatal("SDSP_BENCH_FAULT: unknown action '%s' (want throw, "
              "delay:<ms>, or exit:<code>)",
              action.c_str());
    }
    return rule;
}

bool
ruleMatches(const FaultRule &rule, const std::string &id,
            unsigned attempt)
{
    if (rule.attemptLimit && attempt >= rule.attemptLimit)
        return false;
    return rule.match == "*" ||
           id.find(rule.match) != std::string::npos;
}

} // namespace

FaultPlan
FaultPlan::fromSpec(const std::string &spec)
{
    FaultPlan plan;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        std::size_t end = spec.find(';', begin);
        if (end == std::string::npos)
            end = spec.size();
        std::string rule = spec.substr(begin, end - begin);
        if (!rule.empty())
            plan.rules_.push_back(parseRule(rule));
        begin = end + 1;
    }
    return plan;
}

FaultPlan
FaultPlan::fromEnvironment()
{
    const char *env = std::getenv("SDSP_BENCH_FAULT");
    if (!env || !*env)
        return FaultPlan{};
    return fromSpec(env);
}

void
FaultPlan::inject(const std::string &id, unsigned attempt) const
{
    for (const FaultRule &rule : rules_) {
        if (!ruleMatches(rule, id, attempt))
            continue;
        switch (rule.action) {
        case FaultAction::Delay:
            std::this_thread::sleep_for(
                std::chrono::milliseconds(rule.delayMillis));
            break;
        case FaultAction::Throw:
            throw std::runtime_error(
                format("injected fault: %s (attempt %u)", id.c_str(),
                       attempt));
        case FaultAction::Exit:
            // Simulates a hard kill mid-grid: no stack unwinding, no
            // atexit flushing — exactly what checkpoint resume must
            // survive.
            std::_Exit(rule.exitCode);
        }
    }
}

bool
FaultPlan::matches(const std::string &id, unsigned attempt) const
{
    for (const FaultRule &rule : rules_) {
        if (ruleMatches(rule, id, attempt))
            return true;
    }
    return false;
}

} // namespace sdsp
