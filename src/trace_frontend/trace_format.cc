#include "trace_frontend/trace_format.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>

#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/logging.hh"
#include "isa/opcode.hh"

namespace sdsp
{

namespace
{

/** Words per "code" record line. */
constexpr std::size_t kCodeChunk = 32;
/** Bytes per "data" record line. */
constexpr std::size_t kDataChunk = 64;

/** Copy the literal @p text to @p at; returns the end of the copy. */
template <std::size_t N>
char *
putLiteral(char *at, const char (&text)[N])
{
    std::memcpy(at, text, N - 1);
    return at + (N - 1);
}

} // namespace

const char *
traceErrorKindName(TraceErrorKind kind)
{
    switch (kind) {
      case TraceErrorKind::IoError:
        return "io-error";
      case TraceErrorKind::EmptyTrace:
        return "empty-trace";
      case TraceErrorKind::TornFinalLine:
        return "torn-final-line";
      case TraceErrorKind::BadJson:
        return "bad-json";
      case TraceErrorKind::MissingField:
        return "missing-field";
      case TraceErrorKind::BadValue:
        return "bad-value";
      case TraceErrorKind::MissingHeader:
        return "missing-header";
      case TraceErrorKind::BadVersion:
        return "bad-version";
      case TraceErrorKind::UnknownOpcode:
        return "unknown-opcode";
      case TraceErrorKind::BadThreadId:
        return "bad-thread-id";
      case TraceErrorKind::BadPc:
        return "bad-pc";
      case TraceErrorKind::MissingEnd:
        return "missing-end";
    }
    return "unknown";
}

std::string
TraceError::toString() const
{
    std::string text = traceErrorKindName(kind);
    if (line)
        text += format(" at line %u", line);
    if (!message.empty())
        text += ": " + message;
    return text;
}

Program
RecordedTrace::toProgram() const
{
    Program program;
    program.code = code;
    program.data = data;
    program.memorySize = memorySize;
    program.entry = entry;
    return program;
}

std::uint64_t
RecordedTrace::totalInsts() const
{
    std::uint64_t total = 0;
    for (const auto &stream : perThread)
        total += stream.size();
    return total;
}

// --------------------------------------------------------------------
// Recording
// --------------------------------------------------------------------

TraceRecorder::TraceRecorder(std::ostream &out, const Program &program,
                             const MachineConfig &config,
                             const std::string &source_name)
    : out_(out),
      threads_(config.numThreads),
      perThreadCommitted_(config.numThreads, 0)
{
    {
        JsonWriter w;
        w.beginObject()
            .field("kind", "header")
            .field("version", kTraceFormatVersion)
            .field("threads", config.numThreads)
            .field("entry", std::uint64_t{program.entry})
            .field("memory", std::uint64_t{program.memorySize})
            .field("source", source_name)
            .field("machine", config.toString())
            .endObject();
        out_ << w.str() << "\n";
    }

    for (std::size_t base = 0; base < program.code.size();
         base += kCodeChunk) {
        std::size_t end =
            std::min(base + kCodeChunk, program.code.size());
        JsonWriter w;
        w.beginObject()
            .field("kind", "code")
            .field("base", static_cast<std::uint64_t>(base))
            .key("words")
            .beginArray();
        for (std::size_t i = base; i < end; ++i)
            w.value(std::uint64_t{program.code[i]});
        w.endArray().endObject();
        out_ << w.str() << "\n";
    }

    for (std::size_t base = 0; base < program.data.size();
         base += kDataChunk) {
        std::size_t end =
            std::min(base + kDataChunk, program.data.size());
        bool all_zero = true;
        for (std::size_t i = base; i < end && all_zero; ++i)
            all_zero = program.data[i] == 0;
        if (all_zero)
            continue;
        JsonWriter w;
        w.beginObject()
            .field("kind", "data")
            .field("base", static_cast<std::uint64_t>(base))
            .key("bytes")
            .beginArray();
        for (std::size_t i = base; i < end; ++i)
            w.value(unsigned{program.data[i]});
        w.endArray().endObject();
        out_ << w.str() << "\n";
    }
}

void
TraceRecorder::emit(const TraceEvent &event)
{
    if (event.kind != TraceEventKind::CommitInst)
        return;

    // The same bytes JsonWriter would produce for the record, built
    // in place: this runs once per committed instruction.
    char *const end = line_.data() + line_.size();
    char *at = putLiteral(line_.data(), "{\"kind\":\"inst\",\"tid\":");
    at = std::to_chars(at, end, unsigned{event.tid}).ptr;
    at = putLiteral(at, ",\"pc\":");
    at = std::to_chars(at, end, event.pc).ptr;
    at = putLiteral(at, ",\"word\":");
    at = std::to_chars(at, end, event.word).ptr;
    if (event.hasMemAddr) {
        at = putLiteral(at, ",\"addr\":");
        at = std::to_chars(at, end, event.memAddr).ptr;
    }
    // Conditional branches carry their outcome; the opcode table says
    // which words are (an undefined opcode byte is not one).
    const auto opcode = static_cast<std::uint8_t>(event.word >> (32 - 8));
    if (isValidOpcode(opcode) &&
        (kOpInfoTable[opcode].flags & kIsCondBr)) {
        at = event.taken ? putLiteral(at, ",\"taken\":true")
                         : putLiteral(at, ",\"taken\":false");
    }
    at = putLiteral(at, "}\n");
    out_.write(line_.data(), at - line_.data());

    if (event.tid < perThreadCommitted_.size())
        ++perThreadCommitted_[event.tid];
    ++committed_;
    lastCycle_ = std::max(lastCycle_, event.cycle);
}

void
TraceRecorder::noteResult(const SimResult &result)
{
    haveResult_ = true;
    result_ = result;
}

void
TraceRecorder::finish()
{
    if (finished_)
        return;
    finished_ = true;

    JsonWriter w;
    w.beginObject()
        .field("kind", "end")
        .field("cycles",
               haveResult_ ? std::uint64_t{result_.cycles} : lastCycle_)
        .field("committed", haveResult_
                                ? result_.committedInstructions
                                : committed_)
        .key("threads")
        .beginArray();
    for (std::uint64_t count : perThreadCommitted_)
        w.value(count);
    w.endArray().endObject();
    out_ << w.str() << "\n";
    out_.flush();
}

// --------------------------------------------------------------------
// Reading
// --------------------------------------------------------------------

namespace
{

/** Parser state threaded through the per-record handlers. */
struct ReadState
{
    TraceReadResult result;
    bool sawHeader = false;
    bool sawEnd = false;

    bool
    fail(TraceErrorKind kind, unsigned line, std::string message)
    {
        result.ok = false;
        result.error = {kind, line, std::move(message)};
        return false;
    }
};

/** Fetch an integer field; records MissingField/BadValue on failure. */
bool
uintField(ReadState &state, const JsonValue &record,
          const std::string &key, unsigned line, std::uint64_t max,
          std::uint64_t &out)
{
    const JsonValue *value = record.find(key);
    if (!value) {
        return state.fail(TraceErrorKind::MissingField, line,
                          "record lacks \"" + key + "\"");
    }
    auto parsed = value->toUint64();
    if (!parsed || *parsed > max) {
        return state.fail(TraceErrorKind::BadValue, line,
                          "bad \"" + key + "\": " + value->raw());
    }
    out = *parsed;
    return true;
}

bool
handleHeader(ReadState &state, const JsonValue &record, unsigned line)
{
    RecordedTrace &trace = state.result.trace;

    std::uint64_t version = 0;
    if (!uintField(state, record, "version", line, ~0ull, version))
        return false;
    if (version != kTraceFormatVersion) {
        return state.fail(
            TraceErrorKind::BadVersion, line,
            format("trace version %llu, reader supports %u",
                   static_cast<unsigned long long>(version),
                   kTraceFormatVersion));
    }
    trace.version = static_cast<unsigned>(version);

    std::uint64_t threads = 0;
    if (!uintField(state, record, "threads", line, 128, threads))
        return false;
    if (threads < 1) {
        return state.fail(TraceErrorKind::BadValue, line,
                          "header names zero threads");
    }
    trace.threads = static_cast<unsigned>(threads);
    trace.perThread.assign(trace.threads, {});

    std::uint64_t entry = 0;
    if (!uintField(state, record, "entry", line, ~InstAddr{0}, entry))
        return false;
    trace.entry = static_cast<InstAddr>(entry);

    std::uint64_t memory = 0;
    if (!uintField(state, record, "memory", line,
                   ~std::uint32_t{0}, memory)) {
        return false;
    }
    trace.memorySize = static_cast<std::uint32_t>(memory);

    if (const JsonValue *source = record.find("source")) {
        if (auto text = source->toString())
            trace.source = *text;
    }
    if (const JsonValue *machine = record.find("machine")) {
        if (auto text = machine->toString())
            trace.machine = *text;
    }
    return true;
}

bool
handleCode(ReadState &state, const JsonValue &record, unsigned line)
{
    RecordedTrace &trace = state.result.trace;

    std::uint64_t base = 0;
    if (!uintField(state, record, "base", line, ~0ull, base))
        return false;
    if (base != trace.code.size()) {
        return state.fail(
            TraceErrorKind::BadValue, line,
            format("code record base %llu, expected %zu",
                   static_cast<unsigned long long>(base),
                   trace.code.size()));
    }

    const JsonValue *words = record.find("words");
    if (!words) {
        return state.fail(TraceErrorKind::MissingField, line,
                          "code record lacks \"words\"");
    }
    if (!words->isArray()) {
        return state.fail(TraceErrorKind::BadValue, line,
                          "\"words\" is not an array");
    }
    for (const JsonValue &item : words->items()) {
        auto word = item.toUint64();
        if (!word || *word > ~InstWord{0}) {
            return state.fail(TraceErrorKind::BadValue, line,
                              "bad code word: " + item.raw());
        }
        auto opcode =
            static_cast<std::uint8_t>(*word >> (32 - 8));
        if (!isValidOpcode(opcode)) {
            return state.fail(
                TraceErrorKind::UnknownOpcode, line,
                format("code word 0x%08llx names opcode %u "
                       "(only %u defined)",
                       static_cast<unsigned long long>(*word),
                       unsigned{opcode}, kNumOpcodes));
        }
        trace.code.push_back(static_cast<InstWord>(*word));
    }
    return true;
}

bool
handleData(ReadState &state, const JsonValue &record, unsigned line)
{
    RecordedTrace &trace = state.result.trace;

    std::uint64_t base = 0;
    if (!uintField(state, record, "base", line, ~0ull, base))
        return false;
    if (base < trace.data.size()) {
        return state.fail(TraceErrorKind::BadValue, line,
                          "data record overlaps earlier data");
    }

    const JsonValue *bytes = record.find("bytes");
    if (!bytes) {
        return state.fail(TraceErrorKind::MissingField, line,
                          "data record lacks \"bytes\"");
    }
    if (!bytes->isArray()) {
        return state.fail(TraceErrorKind::BadValue, line,
                          "\"bytes\" is not an array");
    }
    // Written so that a huge base cannot wrap the sum past the check.
    if (base > trace.memorySize ||
        bytes->items().size() > trace.memorySize - base) {
        return state.fail(TraceErrorKind::BadValue, line,
                          "data record runs past the memory size");
    }
    trace.data.resize(base, 0); // zero-fill skipped all-zero chunks
    for (const JsonValue &item : bytes->items()) {
        auto byte = item.toUint64();
        if (!byte || *byte > 255) {
            return state.fail(TraceErrorKind::BadValue, line,
                              "bad data byte: " + item.raw());
        }
        trace.data.push_back(static_cast<std::uint8_t>(*byte));
    }
    return true;
}

bool
handleInst(ReadState &state, const JsonValue &record, unsigned line)
{
    RecordedTrace &trace = state.result.trace;
    TraceInst inst;

    std::uint64_t tid = 0;
    if (!uintField(state, record, "tid", line, 255, tid))
        return false;
    if (tid >= trace.threads) {
        return state.fail(
            TraceErrorKind::BadThreadId, line,
            format("inst record names thread %llu but the header "
                   "declared %u threads",
                   static_cast<unsigned long long>(tid),
                   trace.threads));
    }
    inst.tid = static_cast<ThreadId>(tid);

    std::uint64_t pc = 0;
    if (!uintField(state, record, "pc", line, ~InstAddr{0}, pc))
        return false;
    if (pc >= trace.code.size()) {
        return state.fail(
            TraceErrorKind::BadPc, line,
            format("inst record pc %llu outside the %zu-word "
                   "code image",
                   static_cast<unsigned long long>(pc),
                   trace.code.size()));
    }
    inst.pc = static_cast<InstAddr>(pc);

    std::uint64_t word = 0;
    if (!uintField(state, record, "word", line, ~InstWord{0}, word))
        return false;
    auto opcode = static_cast<std::uint8_t>(word >> (32 - 8));
    if (!isValidOpcode(opcode)) {
        return state.fail(
            TraceErrorKind::UnknownOpcode, line,
            format("inst word 0x%08llx names opcode %u "
                   "(only %u defined)",
                   static_cast<unsigned long long>(word),
                   unsigned{opcode}, kNumOpcodes));
    }
    inst.word = static_cast<InstWord>(word);

    if (record.find("addr")) {
        std::uint64_t addr = 0;
        if (!uintField(state, record, "addr", line, ~Addr{0}, addr))
            return false;
        inst.addr = static_cast<Addr>(addr);
        inst.hasAddr = true;
    }
    if (const JsonValue *taken = record.find("taken")) {
        if (!taken->isBool()) {
            return state.fail(TraceErrorKind::BadValue, line,
                              "\"taken\" is not a boolean");
        }
        inst.taken = taken->asBool();
        inst.hasTaken = true;
    }

    trace.perThread[inst.tid].push_back(inst);
    return true;
}

/** A cursor over one line for the inst fast path. */
struct LineCursor
{
    const char *at;
    const char *end;

    /** Consume @p text if the line continues with it. */
    bool
    literal(std::string_view text)
    {
        if (static_cast<std::size_t>(end - at) < text.size() ||
            std::memcmp(at, text.data(), text.size()) != 0) {
            return false;
        }
        at += text.size();
        return true;
    }

    /** Consume an unsigned integer in JSON's grammar (no sign,
     *  fraction, exponent or leading zero) that fits 64 bits. A
     *  leading zero parses as the number 0, and the digits after it
     *  then fail the next literal(). */
    bool
    number(std::uint64_t &out)
    {
        if (at == end || *at < '0' || *at > '9')
            return false;
        if (*at == '0') {
            out = 0;
            ++at;
            return true;
        }
        auto [ptr, ec] = std::from_chars(at, end, out);
        at = ptr;
        return ec == std::errc();
    }
};

/**
 * The fast path for `inst` lines: parses exactly the layout
 * TraceRecorder writes and applies handleInst's checks. It returns
 * false, leaving the trace untouched, on any other byte sequence and
 * on any value handleInst would reject; the caller then hands the
 * line to the generic parser, which reports the same error (kind,
 * line and message) it always did.
 */
bool
fastInst(ReadState &state, std::string_view line)
{
    LineCursor cur{line.data(), line.data() + line.size()};
    std::uint64_t tid = 0;
    std::uint64_t pc = 0;
    std::uint64_t word = 0;
    std::uint64_t addr = 0;
    if (!cur.literal("{\"kind\":\"inst\",\"tid\":") ||
        !cur.number(tid) || !cur.literal(",\"pc\":") ||
        !cur.number(pc) || !cur.literal(",\"word\":") ||
        !cur.number(word)) {
        return false;
    }
    TraceInst inst;
    if (cur.literal(",\"addr\":")) {
        if (!cur.number(addr))
            return false;
        inst.hasAddr = true;
    }
    if (cur.literal(",\"taken\":")) {
        if (cur.literal("true"))
            inst.taken = true;
        else if (!cur.literal("false"))
            return false;
        inst.hasTaken = true;
    }
    if (!cur.literal("}") || cur.at != cur.end)
        return false;

    RecordedTrace &trace = state.result.trace;
    if (tid >= trace.threads || pc > ~InstAddr{0} ||
        pc >= trace.code.size() || word > ~InstWord{0} ||
        !isValidOpcode(static_cast<std::uint8_t>(word >> (32 - 8))) ||
        addr > ~Addr{0}) {
        return false;
    }
    inst.tid = static_cast<ThreadId>(tid);
    inst.pc = static_cast<InstAddr>(pc);
    inst.word = static_cast<InstWord>(word);
    inst.addr = static_cast<Addr>(addr);
    trace.perThread[inst.tid].push_back(inst);
    return true;
}

bool
handleEnd(ReadState &state, const JsonValue &record, unsigned line)
{
    RecordedTrace &trace = state.result.trace;

    std::uint64_t cycles = 0;
    if (!uintField(state, record, "cycles", line, ~0ull, cycles))
        return false;
    trace.cycles = cycles;

    std::uint64_t committed = 0;
    if (!uintField(state, record, "committed", line, ~0ull, committed))
        return false;
    trace.committed = committed;
    if (committed != trace.totalInsts()) {
        return state.fail(
            TraceErrorKind::BadValue, line,
            format("end record claims %llu committed instructions "
                   "but the trace carries %llu",
                   static_cast<unsigned long long>(committed),
                   static_cast<unsigned long long>(
                       trace.totalInsts())));
    }

    if (const JsonValue *counts = record.find("threads")) {
        if (!counts->isArray() ||
            counts->items().size() != trace.threads) {
            return state.fail(TraceErrorKind::BadValue, line,
                              "end record \"threads\" does not match "
                              "the header thread count");
        }
        for (unsigned t = 0; t < trace.threads; ++t) {
            auto count = counts->items()[t].toUint64();
            if (!count || *count != trace.perThread[t].size()) {
                return state.fail(
                    TraceErrorKind::BadValue, line,
                    format("end record thread %u count disagrees "
                           "with its %zu-instruction stream",
                           t, trace.perThread[t].size()));
            }
        }
    }

    state.sawEnd = true;
    return true;
}

/** The bytes left to read in @p in when its buffer can seek (a
 *  string, a regular file), else 0 (a pipe). The read position does
 *  not move. */
std::size_t
remainingBytes(std::istream &in)
{
    std::streambuf *buf = in.rdbuf();
    if (!buf)
        return 0;
    const std::streampos here =
        buf->pubseekoff(0, std::ios::cur, std::ios::in);
    if (here == std::streampos(-1))
        return 0;
    const std::streampos end =
        buf->pubseekoff(0, std::ios::end, std::ios::in);
    buf->pubseekpos(here, std::ios::in);
    return end > here ? static_cast<std::size_t>(end - here) : 0;
}

} // namespace

TraceReadResult
readTrace(std::istream &in)
{
    ReadState state;

    // One pass over the stream into one buffer, sized once when the
    // stream can tell how much is left; lines are views of it.
    std::string text;
    text.reserve(remainingBytes(in));
    {
        char chunk[1 << 16];
        while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
            text.append(chunk, static_cast<std::size_t>(in.gcount()));
    }

    // Trailing blank lines are tolerated (but blank lines inside the
    // document are not — the recorder never writes them). The
    // document ends with the line that holds its last non-blank byte.
    const std::size_t last = text.find_last_not_of(" \t\r\n");
    if (last == std::string::npos) {
        state.fail(TraceErrorKind::EmptyTrace, 0,
                   "trace contains no records");
        return state.result;
    }
    const std::string_view document(
        text.data(), std::min(text.find('\n', last), text.size()));

    unsigned line_no = 0;
    for (std::size_t begin = 0; begin <= document.size();) {
        std::size_t newline = document.find('\n', begin);
        bool is_final = newline == std::string_view::npos;
        if (is_final)
            newline = document.size();
        std::string_view line =
            document.substr(begin, newline - begin);
        begin = newline + 1;
        ++line_no;

        if (state.sawHeader && !state.sawEnd && fastInst(state, line))
            continue;

        std::string json_error;
        auto record = parseJson(line, &json_error);
        if (!record) {
            // A torn final line is the signature of an interrupted
            // recording; earlier lines failing to parse is corruption.
            state.fail(is_final ? TraceErrorKind::TornFinalLine
                                : TraceErrorKind::BadJson,
                       line_no, json_error);
            return state.result;
        }
        if (!record->isObject()) {
            state.fail(TraceErrorKind::BadJson, line_no,
                       "record is not a JSON object");
            return state.result;
        }

        const JsonValue *kind = record->find("kind");
        if (!kind || !kind->isString()) {
            state.fail(TraceErrorKind::MissingField, line_no,
                       "record lacks a \"kind\" string");
            return state.result;
        }
        const std::string &name = kind->asString();

        if (!state.sawHeader && name != "header") {
            state.fail(TraceErrorKind::MissingHeader, line_no,
                       "first record is \"" + name +
                           "\", not a header");
            return state.result;
        }
        if (state.sawEnd) {
            state.fail(TraceErrorKind::BadValue, line_no,
                       "record after the end record");
            return state.result;
        }

        bool ok;
        if (name == "header") {
            if (state.sawHeader) {
                state.fail(TraceErrorKind::BadValue, line_no,
                           "duplicate header record");
                return state.result;
            }
            ok = handleHeader(state, *record, line_no);
            state.sawHeader = ok;
        } else if (name == "code") {
            ok = handleCode(state, *record, line_no);
        } else if (name == "data") {
            ok = handleData(state, *record, line_no);
        } else if (name == "inst") {
            ok = handleInst(state, *record, line_no);
        } else if (name == "end") {
            ok = handleEnd(state, *record, line_no);
        } else {
            ok = state.fail(TraceErrorKind::BadValue, line_no,
                            "unknown record kind \"" + name + "\"");
        }
        if (!ok)
            return state.result;
    }

    if (!state.sawEnd) {
        state.fail(TraceErrorKind::MissingEnd, line_no,
                   "trace does not finish with an end record");
        return state.result;
    }

    state.result.ok = true;
    return state.result;
}

TraceReadResult
readTraceFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file) {
        TraceReadResult result;
        result.error = {TraceErrorKind::IoError, 0,
                        "cannot open " + path};
        return result;
    }
    return readTrace(file);
}

} // namespace sdsp
