/**
 * @file
 * In-memory span log for the benchmark's traced run.
 *
 * A span is one timed call into a layer of the simulator: its name
 * ("core.run", "critpath.relax", ...), start and end, the span that
 * encloses it, and the id of the benchmark op it belongs to. Spans
 * are appended to a preallocated vector while the run is going and
 * written out once at the end as Chrome trace-event JSON, which
 * ui.perfetto.dev opens directly. A layer's self time is its spans'
 * duration minus the part their child spans cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Smallest of @p values (0 when empty). */
double fastest(const std::vector<double> &values);

/** One recorded span. */
struct Span
{
    /** Layer-qualified name; always a string literal. */
    const char *name = "";
    /** Index of the enclosing span in the log, or -1. */
    std::int32_t parent = -1;
    /** Benchmark op the span belongs to, or -1 (set-up, per round). */
    std::int64_t op = -1;
    /** Round of the op loop (-1 during set-up). */
    std::int32_t round = -1;
    Clock::time_point start;
    Clock::time_point end;

    double seconds() const { return secondsBetween(start, end); }
};

/** The spans of one workload, nested by a stack of open spans. */
class SpanLog
{
  public:
    SpanLog();

    /** Open a span as a child of the innermost open one.
     *  @return its index, for end(). */
    std::size_t begin(const char *name, std::int64_t op);
    /** Close span @p index (must be the innermost open one). */
    void end(std::size_t index);

    /** Stamp spans opened from now on with round @p round. */
    void setRound(std::int32_t round) { round_ = round; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Every span named @p name, in order. */
    std::vector<const Span *> named(const std::string &name) const;

    /** Total seconds of the spans named @p name. */
    double totalSeconds(const std::string &name) const;

    /**
     * Seconds one pass spends in the spans named @p name: for each op
     * (set-up spans excluded) the fastest across rounds of its spans'
     * total in that round, summed over ops.
     */
    double perPassSeconds(const std::string &name) const;

    /** Self seconds per span name (duration minus children). */
    std::map<std::string, double> selfSeconds() const;

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::int32_t round_ = -1;
};

/** Opens a span on construction and closes it on destruction; does
 *  nothing when the log is null (the untraced run). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::int64_t op)
        : log_(log), index_(log ? log->begin(name, op) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    std::size_t index_;
};

/** One workload's spans, tagged for the trace file. */
struct NamedLog
{
    std::string workload;
    const SpanLog *log = nullptr;
};

/**
 * Write @p logs as one Chrome trace-event JSON document (one
 * process track per workload, times in microseconds from @p origin).
 * @return false when the file cannot be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<NamedLog> &logs,
                      Clock::time_point origin);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
