/**
 * @file
 * Structured pipeline tracing.
 *
 * The simulator's observability layer is built on typed pipeline
 * events rather than printf calls: every stage of the cycle model
 * describes what happened (fetch, dispatch, issue, writeback, commit,
 * squash, cache miss, stall span, counter sample) as a TraceEvent,
 * and a TraceSink decides what to do with it. Three backends ship:
 *
 *  - TextTraceSink reproduces the classic `--trace` line format
 *    byte-for-byte (it prints the event kinds the old printf trace
 *    printed and ignores the rest), so existing scripts keep working;
 *  - JsonTraceSink writes Chrome-trace-event records, one JSON object
 *    per line inside a strictly valid JSON array, so the file loads
 *    directly in ui.perfetto.dev / chrome://tracing AND each line can
 *    be parsed on its own (strip the trailing comma);
 *  - NullTraceSink swallows everything (useful as a test double).
 *
 * Cost model: the processor holds a `TraceSink *` that is nullptr when
 * tracing is off, so the disabled hot path pays one pointer test per
 * event site and performs no allocation — test_allocfree enforces
 * this, and perfbench's `grid` workload measures the loop's speed.
 */

#ifndef SDSP_COMMON_TRACE_HH
#define SDSP_COMMON_TRACE_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/types.hh"

namespace sdsp
{

/** What happened. See TraceEvent for the per-kind payload layout. */
enum class TraceEventKind : std::uint8_t
{
    Fetch,       //!< a block entered the fetch latch
    Dispatch,    //!< a decoded block entered the scheduling unit
    Issue,       //!< one instruction left for a functional unit
    Writeback,   //!< one result returned to the scheduling unit
    CommitInst,  //!< one instruction retired (carries its lifecycle)
    CommitHalt,  //!< a HALT retired; the thread is done
    CommitBlock, //!< a whole block left the scheduling unit
    Squash,      //!< a mispredict squashed younger same-thread work
    CacheMiss,   //!< an issued load missed in the data cache
    Stall,       //!< a completed span of cycles charged to one reason
    Counter,     //!< a sampled counter value (SU occupancy, IPC)
};

/** Number of event kinds (for per-kind tables in tests/sinks). */
inline constexpr unsigned kNumTraceEventKinds = 11;

/** Stable lowercase name of @p kind (JSON `name` field). */
const char *traceEventName(TraceEventKind kind);

/**
 * Why a ready instruction most recently failed to issue. Recorded on
 * the SU entry at every failed issue attempt together with the cycle
 * of the attempt, and published on the CommitInst event; the
 * critical-path builder uses it to classify issue-side residual edges
 * (DESIGN.md "Critical-path analysis").
 */
enum class IssueBlockCause : std::uint8_t
{
    None,            //!< never failed an issue attempt
    FuBusy,          //!< no free functional unit of its class
    MemOrder,        //!< conservative load/store disambiguation
    StoreBufferFull, //!< no store-buffer slot available
    CachePort,       //!< data-cache port rejection
};

/** Number of IssueBlockCause values. */
inline constexpr unsigned kNumIssueBlockCauses = 5;

/** Stable camelCase name of @p cause (JSON / stats key). */
const char *issueBlockCauseName(IssueBlockCause cause);

/**
 * Why a fetched block sat in the fetch latch before dispatching.
 * Recorded while the latch is blocked and stamped on every entry of
 * the block when it finally dispatches.
 */
enum class DispatchWaitCause : std::uint8_t
{
    None,       //!< dispatched on its first opportunity
    SuFull,     //!< the scheduling unit had no free block
    Scoreboard, //!< 1-bit scoreboard WAW serialization
};

/** Number of DispatchWaitCause values. */
inline constexpr unsigned kNumDispatchWaitCauses = 3;

/** Stable camelCase name of @p cause (JSON / stats key). */
const char *dispatchWaitCauseName(DispatchWaitCause cause);

/**
 * One pipeline event. The fixed fields are meaningful for almost
 * every kind; `args` carries the kind-specific payload:
 *
 *  kind        seq        pc          args[0..3]
 *  ----        ---        --          ----------
 *  Fetch       -          first pc    count
 *  Dispatch    block seq  first pc    count
 *  Issue       entry seq  pc          -
 *  Writeback   entry seq  pc          -
 *  CommitInst  entry seq  pc          fetched, dispatched, issued,
 *                                     completed (commit = cycle)
 *  CommitHalt  entry seq  pc          -
 *  CommitBlock block seq  -           window slot committed from
 *  Squash      entry seq  resolved pc resumed pc, squashed count
 *  CacheMiss   entry seq  pc          byte address, ready cycle
 *  Stall       -          -           reason index, span length
 *                                     (cycle = span start)
 *  Counter     -          -           integer value (or fval)
 *
 * `label` (when set) points at static storage: an opcode mnemonic,
 * a stall-reason name, or a counter name.
 */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::Fetch;
    Cycle cycle = 0;
    ThreadId tid = 0;
    Tag seq = 0;
    InstAddr pc = 0;
    std::array<std::uint64_t, 4> args{};
    const char *label = nullptr;
    /** Counter kinds may carry a floating-point value instead. */
    double fval = 0.0;
    bool hasFval = false;

    // ---- CommitInst architectural payload (trace recording) ----
    /** The committed instruction's 32-bit encoding. */
    std::uint32_t word = 0;
    /** Effective byte address (loads/stores; valid iff hasMemAddr). */
    std::uint64_t memAddr = 0;
    bool hasMemAddr = false;
    /** Resolved outcome of a conditional branch. */
    bool taken = false;

    // ---- CommitInst dependence evidence (critical-path analysis).
    // Every shipped sink ignores these; the DdgRecorder in
    // src/critpath consumes them to build the dynamic dependence
    // graph. ----
    /** Cycle the entry's last pending operand arrived (== dispatch
     *  cycle when all operands were present at rename time). */
    Cycle readyAt = 0;
    /** Producer tag whose broadcast completed the operands (0 when
     *  the entry was ready at dispatch). */
    Tag wakeupSeq = 0;
    /** Producer tags still in flight when this entry renamed
     *  (0 = operand was ready); the register RAW edges. */
    std::array<Tag, 2> waitSeq{};
    /** Load miss cycles beyond the FU latency (0 on hit/forward). */
    Cycle missExtra = 0;
    /** Last failed issue attempt: why and when. */
    IssueBlockCause issueBlockCause = IssueBlockCause::None;
    Cycle issueBlockCycle = 0;
    /** Why the block waited in the fetch latch before dispatch. */
    DispatchWaitCause dispatchWaitCause = DispatchWaitCause::None;
    /** The instruction was a resolved-mispredicted control
     *  transfer (its squash triggered a same-thread refetch). */
    bool mispredicted = false;
};

/** Consumer of pipeline events. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Receive one event. Events of one cycle arrive in pipeline
     *  stage order; Stall spans arrive when the span *ends*. */
    virtual void emit(const TraceEvent &event) = 0;

    /** Finish the output document (idempotent; JSON closer). */
    virtual void finish() {}
};

/** Discards everything. */
class NullTraceSink final : public TraceSink
{
  public:
    void emit(const TraceEvent &) override {}
};

/**
 * The classic text trace. Prints exactly the lines the original
 * printf trace printed — Fetch, CommitHalt, CommitBlock, and Squash —
 * in the original format, and ignores every other kind, so `--trace`
 * output is unchanged by the structured-event rework.
 */
class TextTraceSink final : public TraceSink
{
  public:
    explicit TextTraceSink(std::ostream &out) : out_(out) {}

    void emit(const TraceEvent &event) override;

  private:
    std::ostream &out_;
};

/**
 * Chrome-trace-event writer (the format ui.perfetto.dev and
 * chrome://tracing load natively).
 *
 * Layout: the whole file is one strict JSON array with one record per
 * line (`[`, then `{...},` lines, then a final `{...}` and `]`), so
 * a consumer may either parse the file wholesale or stream it
 * line-wise after stripping the trailing comma.
 *
 * Track mapping:
 *  - pid 1 "pipeline": one duration track per thread. Committed
 *    instructions appear as complete ("X") slices spanning fetch to
 *    commit with the full lifecycle in args; fetch/dispatch/issue/
 *    writeback/squash/cache-miss appear as instant ("i") events.
 *  - pid 2 "stall attribution": one track per thread of "X" slices,
 *    one per attributed non-Active stall span.
 *  - counter ("C") events on pid 1: su_occupancy, ipc.
 */
class JsonTraceSink final : public TraceSink
{
  public:
    explicit JsonTraceSink(std::ostream &out);
    ~JsonTraceSink() override;

    void emit(const TraceEvent &event) override;
    void finish() override;

  private:
    /** Write one raw record line (handles separators). */
    void record(const std::string &json);
    /** Emit thread_name metadata once per (pid, tid). */
    void ensureThread(int pid, ThreadId tid);

    std::ostream &out_;
    bool opened_ = false;
    bool finished_ = false;
    bool processesNamed_ = false;
    /** (pid - 1) * kMaxTracks + tid marks an announced track. */
    std::vector<bool> announced_;
};

/** Forwards every event to each registered sink, in order. */
class TeeTraceSink final : public TraceSink
{
  public:
    void add(TraceSink *sink);

    void emit(const TraceEvent &event) override;
    void finish() override;

  private:
    std::vector<TraceSink *> sinks_;
};

} // namespace sdsp

#endif // SDSP_COMMON_TRACE_HH
