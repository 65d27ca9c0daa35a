#include "spans.hh"

#include <algorithm>
#include <fstream>

#include "common/json.hh"

namespace perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2.0;
}

SpanLog::SpanLog()
{
    // A traced run records a few tens of thousands of spans; reserve
    // up front so appending stays out of the timed calls' way.
    spans_.reserve(1u << 16);
}

std::size_t
SpanLog::begin(const char *name, std::int64_t op)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1
                                : static_cast<std::int32_t>(open_.back());
    span.op = op;
    span.round = round_;
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    spans_.back().start = Clock::now();
    return spans_.size() - 1;
}

void
SpanLog::end(std::size_t index)
{
    spans_[index].end = Clock::now();
    open_.pop_back();
}

std::vector<const Span *>
SpanLog::named(const std::string &name) const
{
    std::vector<const Span *> out;
    for (const Span &span : spans_) {
        if (name == span.name)
            out.push_back(&span);
    }
    return out;
}

double
SpanLog::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span *span : named(name))
        total += span->seconds();
    return total;
}

double
fastest(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

double
SpanLog::perPassSeconds(const std::string &name) const
{
    std::map<std::int64_t, std::map<std::int32_t, double>> by_op;
    for (const Span *span : named(name)) {
        if (span->round >= 0)
            by_op[span->op][span->round] += span->seconds();
    }
    double total = 0.0;
    for (const auto &[op, rounds] : by_op) {
        std::vector<double> values;
        for (const auto &[round, seconds] : rounds)
            values.push_back(seconds);
        total += fastest(values);
    }
    return total;
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    // Children run sequentially inside their parent on one thread, so
    // the part of a parent they cover is the sum of their durations.
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] += spans_[i].seconds();
        if (spans_[i].parent >= 0)
            self[spans_[i].parent] -= spans_[i].seconds();
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        by_name[spans_[i].name] += self[i];
    return by_name;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<NamedLog> &logs,
                 Clock::time_point origin)
{
    auto micros = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    };
    sdsp::JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (std::size_t pid = 0; pid < logs.size(); ++pid) {
        w.beginObject()
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", static_cast<std::uint64_t>(pid + 1))
            .key("args")
            .beginObject()
            .field("name", logs[pid].workload)
            .endObject()
            .endObject();
        const std::vector<Span> &spans = logs[pid].log->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            w.beginObject()
                .field("name", span.name)
                .field("ph", "X")
                .field("pid", static_cast<std::uint64_t>(pid + 1))
                .field("tid", 1)
                .field("ts", micros(span.start))
                .field("dur", micros(span.end) - micros(span.start))
                .key("args")
                .beginObject()
                .field("id", static_cast<std::uint64_t>(i))
                .field("parent", static_cast<std::int64_t>(span.parent))
                .field("op", static_cast<std::int64_t>(span.op))
                .field("round", static_cast<std::int64_t>(span.round))
                .endObject()
                .endObject();
        }
    }
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.endObject();

    std::ofstream file(path);
    file << w.str() << '\n';
    return static_cast<bool>(file);
}

} // namespace perfbench
