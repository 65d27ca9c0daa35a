#include "common/trace.hh"

#include <ostream>

#include "common/json.hh"
#include "common/logging.hh"

namespace sdsp
{

namespace
{

/** pid of the pipeline-event tracks in the Chrome trace. */
constexpr int kPipelinePid = 1;
/** pid of the stall-attribution tracks. */
constexpr int kStallPid = 2;
/** ThreadId is 8 bits, so 256 tracks per pid bound the bitmap. */
constexpr std::size_t kMaxTracks = 256;

} // namespace

const char *
traceEventName(TraceEventKind kind)
{
    switch (kind) {
    case TraceEventKind::Fetch: return "fetch";
    case TraceEventKind::Dispatch: return "dispatch";
    case TraceEventKind::Issue: return "issue";
    case TraceEventKind::Writeback: return "writeback";
    case TraceEventKind::CommitInst: return "commit_inst";
    case TraceEventKind::CommitHalt: return "commit_halt";
    case TraceEventKind::CommitBlock: return "commit_block";
    case TraceEventKind::Squash: return "squash";
    case TraceEventKind::CacheMiss: return "cache_miss";
    case TraceEventKind::Stall: return "stall";
    case TraceEventKind::Counter: return "counter";
    }
    return "unknown";
}

const char *
issueBlockCauseName(IssueBlockCause cause)
{
    switch (cause) {
    case IssueBlockCause::None: return "none";
    case IssueBlockCause::FuBusy: return "fuBusy";
    case IssueBlockCause::MemOrder: return "memOrder";
    case IssueBlockCause::StoreBufferFull: return "storeBufferFull";
    case IssueBlockCause::CachePort: return "cachePort";
    }
    return "unknown";
}

const char *
dispatchWaitCauseName(DispatchWaitCause cause)
{
    switch (cause) {
    case DispatchWaitCause::None: return "none";
    case DispatchWaitCause::SuFull: return "suFull";
    case DispatchWaitCause::Scoreboard: return "scoreboard";
    }
    return "unknown";
}

// --------------------------------------------------------------------
// TextTraceSink
// --------------------------------------------------------------------

void
TextTraceSink::emit(const TraceEvent &event)
{
    auto line = [&](const std::string &msg) {
        out_ << format("[%8llu] ",
                       static_cast<unsigned long long>(event.cycle))
             << msg << "\n";
    };

    switch (event.kind) {
    case TraceEventKind::Fetch:
        line(format("fetch: tid=%u pc=%u n=%zu", unsigned{event.tid},
                    event.pc, static_cast<std::size_t>(event.args[0])));
        break;
    case TraceEventKind::CommitHalt:
        line(format("commit: thread %u HALT", unsigned{event.tid}));
        break;
    case TraceEventKind::CommitBlock:
        line(format("commit: block seq=%llu tid=%u from slot %zu",
                    static_cast<unsigned long long>(event.seq),
                    unsigned{event.tid},
                    static_cast<std::size_t>(event.args[0])));
        break;
    case TraceEventKind::Squash:
        line(format("squash: tid=%u pc=%u -> %u (%u entries)",
                    unsigned{event.tid}, event.pc,
                    static_cast<InstAddr>(event.args[0]),
                    static_cast<unsigned>(event.args[1])));
        break;
    default:
        // The classic trace never printed the other kinds; stay
        // byte-identical.
        break;
    }
}

TraceKindMask
TextTraceSink::kinds() const
{
    return traceKindBit(TraceEventKind::Fetch) |
           traceKindBit(TraceEventKind::CommitHalt) |
           traceKindBit(TraceEventKind::CommitBlock) |
           traceKindBit(TraceEventKind::Squash);
}

// --------------------------------------------------------------------
// JsonTraceSink
// --------------------------------------------------------------------

JsonTraceSink::JsonTraceSink(std::ostream &out)
    : out_(out), announced_(2 * kMaxTracks, false)
{
}

JsonTraceSink::~JsonTraceSink()
{
    finish();
}

void
JsonTraceSink::record(const std::string &json)
{
    if (!opened_) {
        out_ << "[\n" << json;
        opened_ = true;
    } else {
        out_ << ",\n" << json;
    }
}

void
JsonTraceSink::ensureThread(int pid, ThreadId tid)
{
    std::size_t index =
        static_cast<std::size_t>(pid - 1) * kMaxTracks + tid;
    if (announced_[index])
        return;
    announced_[index] = true;

    if (!processesNamed_) {
        processesNamed_ = true;
        // Name the two processes once, before the first real track.
        for (int p : {kPipelinePid, kStallPid}) {
            JsonWriter meta;
            meta.beginObject()
                .field("name", "process_name")
                .field("ph", "M")
                .field("ts", std::uint64_t{0})
                .field("pid", p)
                .key("args")
                .beginObject()
                .field("name", p == kPipelinePid
                                   ? "sdsp pipeline"
                                   : "stall attribution")
                .endObject()
                .endObject();
            record(meta.str());
        }
    }

    JsonWriter meta;
    meta.beginObject()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("ts", std::uint64_t{0})
        .field("pid", pid)
        .field("tid", unsigned{tid})
        .key("args")
        .beginObject()
        .field("name", format("thread %u", unsigned{tid}))
        .endObject()
        .endObject();
    record(meta.str());
}

void
JsonTraceSink::emit(const TraceEvent &event)
{
    sdsp_assert(!finished_, "trace event after finish()");

    JsonWriter w;
    switch (event.kind) {
    case TraceEventKind::Counter:
        // Counters live on the pipeline process; no thread track.
        w.beginObject()
            .field("name", event.label ? event.label : "counter")
            .field("ph", "C")
            .field("ts", event.cycle)
            .field("pid", kPipelinePid)
            .key("args")
            .beginObject();
        if (event.hasFval)
            w.field("value", event.fval);
        else
            w.field("value", event.args[0]);
        w.endObject().endObject();
        break;

    case TraceEventKind::CommitInst:
        ensureThread(kPipelinePid, event.tid);
        w.beginObject()
            .field("name", event.label ? event.label : "inst")
            .field("cat", "instruction")
            .field("ph", "X")
            .field("ts", event.args[0])
            .field("dur", event.cycle - event.args[0])
            .field("pid", kPipelinePid)
            .field("tid", unsigned{event.tid})
            .key("args")
            .beginObject()
            .field("seq", event.seq)
            .field("pc", event.pc)
            .field("fetch", event.args[0])
            .field("dispatch", event.args[1])
            .field("issue", event.args[2])
            .field("complete", event.args[3])
            .field("commit", event.cycle)
            .endObject()
            .endObject();
        break;

    case TraceEventKind::Stall:
        ensureThread(kStallPid, event.tid);
        w.beginObject()
            .field("name", event.label ? event.label : "stall")
            .field("cat", "stall")
            .field("ph", "X")
            .field("ts", event.cycle)
            .field("dur", event.args[1])
            .field("pid", kStallPid)
            .field("tid", unsigned{event.tid})
            .key("args")
            .beginObject()
            .field("reason", event.label ? event.label : "stall")
            .field("cycles", event.args[1])
            .endObject()
            .endObject();
        break;

    default:
        // Everything else is an instant on the thread's pipeline
        // track.
        ensureThread(kPipelinePid, event.tid);
        w.beginObject()
            .field("name", traceEventName(event.kind))
            .field("cat", "pipeline")
            .field("ph", "i")
            .field("s", "t")
            .field("ts", event.cycle)
            .field("pid", kPipelinePid)
            .field("tid", unsigned{event.tid})
            .key("args")
            .beginObject()
            .field("seq", event.seq)
            .field("pc", event.pc);
        if (event.label)
            w.field("op", event.label);
        switch (event.kind) {
        case TraceEventKind::Fetch:
        case TraceEventKind::Dispatch:
            w.field("count", event.args[0]);
            break;
        case TraceEventKind::Squash:
            w.field("resume_pc", event.args[0]);
            w.field("squashed", event.args[1]);
            break;
        case TraceEventKind::CommitBlock:
            w.field("slot", event.args[0]);
            break;
        case TraceEventKind::CacheMiss:
            w.field("address", event.args[0]);
            w.field("ready", event.args[1]);
            break;
        default:
            break;
        }
        w.endObject().endObject();
        break;
    }
    record(w.str());
}

void
JsonTraceSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (!opened_)
        out_ << "[\n";
    out_ << "\n]\n";
    out_.flush();
}

// --------------------------------------------------------------------
// TeeTraceSink
// --------------------------------------------------------------------

void
TeeTraceSink::add(TraceSink *sink)
{
    if (!sink)
        return;
    sinks_.push_back({sink, sink->kinds()});
    kinds_ |= sinks_.back().kinds;
}

void
TeeTraceSink::emit(const TraceEvent &event)
{
    const TraceKindMask bit = traceKindBit(event.kind);
    for (const Entry &entry : sinks_) {
        if (entry.kinds & bit)
            entry.sink->emit(event);
    }
}

void
TeeTraceSink::finish()
{
    for (const Entry &entry : sinks_)
        entry.sink->finish();
}

} // namespace sdsp
