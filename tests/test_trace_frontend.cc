/**
 * @file
 * Tests for the trace frontend: record → read round trips, exact
 * replay (bit-identical timing), stream-replay cocktails, and the
 * reader's named error paths — a malformed trace must always be a
 * TraceError, never a crash.
 */

#include <algorithm>
#include <iterator>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "common/random.hh"
#include "core/processor.hh"
#include "isa/opcode.hh"
#include "trace_frontend/replay.hh"
#include "trace_frontend/trace_format.hh"

namespace sdsp
{
namespace
{

/** A small per-thread-disjoint workload: each thread sums a short
 *  countdown into its own 16-byte slot. */
const char *kDemoSource = R"(
.space scratch 64
    tid r1
    slli r1, r1, 4
    ldi r2, 5
    ldi r3, 0
top:
    add r3, r3, r2
    st r3, 0(r1)
    addi r2, r2, -1
    bne r2, r0, top
    ld r4, 0(r1)
    halt
)";

/** Each thread adds a table entry to a shared constant. Its image
 *  carries data records, and skips an all-zero chunk between them. */
const char *kDataSource = R"(
.words table 3 1 4 1 5 9 2 6 5 3 5 8 9 7 9 3
.space gap 64
.words tail 2 7 1 8
.space out 64
    tid r1
    slli r1, r1, 3
    la r2, table
    add r2, r2, r1
    ld r3, 0(r2)
    la r4, tail
    ld r5, 0(r4)
    add r3, r3, r5
    la r6, out
    add r6, r6, r1
    st r3, 0(r6)
    halt
)";

MachineConfig
demoConfig(unsigned threads)
{
    MachineConfig cfg;
    cfg.numThreads = threads;
    cfg.maxCycles = 1'000'000;
    return cfg;
}

/** Run the demo program (or @p source) with a TraceRecorder
 *  attached; returns the trace text and the run's result. */
std::string
recordDemo(const MachineConfig &cfg, SimResult *result_out = nullptr,
           const char *source = kDemoSource)
{
    Program prog = assemble(source).program;
    std::ostringstream out;
    TraceRecorder recorder(out, prog, cfg, "demo.s");
    Processor cpu(cfg, prog);
    cpu.setTraceSink(&recorder);
    SimResult result = cpu.run();
    EXPECT_TRUE(result.finished);
    recorder.noteResult(result);
    recorder.finish();
    if (result_out)
        *result_out = result;
    return out.str();
}

TraceReadResult
readText(const std::string &text)
{
    std::istringstream in(text);
    return readTrace(in);
}

TEST(TraceFormat, RecordReadRoundTrip)
{
    MachineConfig cfg = demoConfig(2);
    SimResult run;
    std::string text = recordDemo(cfg, &run);

    TraceReadResult loaded = readText(text);
    ASSERT_TRUE(loaded.ok) << loaded.error.toString();
    const RecordedTrace &trace = loaded.trace;

    EXPECT_EQ(trace.version, kTraceFormatVersion);
    EXPECT_EQ(trace.threads, 2u);
    EXPECT_EQ(trace.cycles, run.cycles);
    EXPECT_EQ(trace.committed, run.committedInstructions);
    EXPECT_EQ(trace.totalInsts(), run.committedInstructions);
    EXPECT_EQ(trace.source, "demo.s");
    EXPECT_EQ(trace.machine, cfg.toString());

    Program prog = assemble(kDemoSource).program;
    Program rebuilt = trace.toProgram();
    EXPECT_EQ(rebuilt.code, prog.code);
    EXPECT_EQ(rebuilt.memorySize, prog.memorySize);
    EXPECT_EQ(rebuilt.entry, prog.entry);
}

TEST(TraceFormat, RecorderWritesExactInstLines)
{
    Program prog = assemble(kDemoSource).program;
    std::ostringstream out;
    TraceRecorder recorder(out, prog, demoConfig(2), "demo.s");
    const std::size_t preamble = out.str().size();

    auto commit = [&](ThreadId tid, InstAddr pc, InstWord word,
                      std::optional<std::uint64_t> addr, bool taken) {
        TraceEvent ev;
        ev.kind = TraceEventKind::CommitInst;
        ev.tid = tid;
        ev.pc = pc;
        ev.word = word;
        ev.hasMemAddr = addr.has_value();
        ev.memAddr = addr.value_or(0);
        ev.taken = taken;
        recorder.emit(ev);
    };
    auto word = [](Opcode op, InstWord fields) {
        return static_cast<InstWord>(op) << 24 | fields;
    };
    const InstWord add = word(Opcode::ADD, 0x10203);
    const InstWord ld = word(Opcode::LD, 0x123);
    const InstWord bne = word(Opcode::BNE, 0xffffff);

    // Every addr/taken combination: "taken" only on conditional
    // branches, "addr" whenever the event carries one.
    commit(0, 1, add, std::nullopt, true);
    commit(1, 2, ld, 64, false);
    commit(0, 3, bne, std::nullopt, true);
    commit(1, 4, bne, std::nullopt, false);
    commit(0, 5, bne, 8, true);
    commit(1, 6, bne, 16, false);
    // Extremes: opcode byte 255 names no instruction, so no "taken".
    commit(127, 4294967295u, 4294967295u, 4294967295u, true);

    const std::string a = std::to_string(add);
    const std::string l = std::to_string(ld);
    const std::string b = std::to_string(bne);
    EXPECT_EQ(
        out.str().substr(preamble),
        R"({"kind":"inst","tid":0,"pc":1,"word":)" + a + "}\n" +
            R"({"kind":"inst","tid":1,"pc":2,"word":)" + l +
            R"(,"addr":64})" + "\n" +
            R"({"kind":"inst","tid":0,"pc":3,"word":)" + b +
            R"(,"taken":true})" + "\n" +
            R"({"kind":"inst","tid":1,"pc":4,"word":)" + b +
            R"(,"taken":false})" + "\n" +
            R"({"kind":"inst","tid":0,"pc":5,"word":)" + b +
            R"(,"addr":8,"taken":true})" + "\n" +
            R"({"kind":"inst","tid":1,"pc":6,"word":)" + b +
            R"(,"addr":16,"taken":false})" + "\n" +
            R"({"kind":"inst","tid":127,"pc":4294967295,)"
            R"("word":4294967295,"addr":4294967295})" + "\n");
}

TEST(TraceFormat, ExactReplayIsBitIdentical)
{
    MachineConfig cfg = demoConfig(2);
    SimResult run;
    std::string text = recordDemo(cfg, &run);

    TraceReadResult loaded = readText(text);
    ASSERT_TRUE(loaded.ok) << loaded.error.toString();

    ExactReplayResult replay = replayExact(loaded.trace, cfg);
    EXPECT_TRUE(replay.verified) << replay.firstMismatch;
    EXPECT_EQ(replay.mismatches, 0u);
    EXPECT_TRUE(replay.sim.finished);
    EXPECT_EQ(replay.sim.cycles, run.cycles);
    EXPECT_EQ(replay.sim.committedInstructions,
              run.committedInstructions);
}

TEST(TraceFormat, ExactReplayDetectsTamperedStream)
{
    MachineConfig cfg = demoConfig(1);
    std::string text = recordDemo(cfg);
    // Flip a recorded pc on some inst line: replay must notice.
    const std::string needle = R"("kind":"inst","tid":0,"pc":2,)";
    std::size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    std::string tampered = text;
    tampered.replace(at, needle.size(),
                     R"("kind":"inst","tid":0,"pc":3,)");

    TraceReadResult loaded = readText(tampered);
    ASSERT_TRUE(loaded.ok) << loaded.error.toString();
    ExactReplayResult replay = replayExact(loaded.trace, cfg);
    EXPECT_FALSE(replay.verified);
    EXPECT_GT(replay.mismatches, 0u);
    EXPECT_FALSE(replay.firstMismatch.empty());
}

TEST(TraceReplay, StreamCocktailRunsToCompletion)
{
    // Record two runs and mix their streams: thread 0 of each.
    MachineConfig rec_cfg = demoConfig(2);
    std::string text = recordDemo(rec_cfg);
    TraceReadResult a = readText(text);
    TraceReadResult b = readText(text);
    ASSERT_TRUE(a.ok && b.ok);

    std::vector<StreamSource> sources;
    sources.push_back({&a.trace, 0});
    sources.push_back({&b.trace, 1});

    MachineConfig cfg = demoConfig(2);
    StreamReplay cocktail;
    std::string error;
    ASSERT_TRUE(buildStreamReplay(sources, cfg.regsPerThread(), {},
                                  cocktail, &error))
        << error;
    ASSERT_EQ(cocktail.numThreads, 2u);
    ASSERT_EQ(cocktail.program.threadEntries.size(), 2u);

    cfg.numThreads = cocktail.numThreads;
    Processor cpu(cfg, cocktail.program);
    cpu.setReplayAddresses(&cocktail.addresses);
    SimResult result = cpu.run();
    EXPECT_TRUE(result.finished);
    for (unsigned t = 0; t < cocktail.numThreads; ++t) {
        EXPECT_EQ(cpu.committedInstructions(static_cast<ThreadId>(t)),
                  cocktail.streamLengths[t])
            << "thread " << t;
    }
}

// --------------------------------------------------------------------
// Reader error paths: every malformed input is a named error.
// --------------------------------------------------------------------

/** A minimal valid trace, line by line, for mutation tests. */
std::vector<std::string>
validLines()
{
    InstWord halt = assemble("    halt").program.code.at(0);
    std::string word = std::to_string(halt);
    return {
        R"({"kind":"header","version":1,"threads":1,"entry":0,)"
        R"("memory":64,"source":"t.s","machine":"m"})",
        R"({"kind":"code","base":0,"words":[)" + word + "]}",
        R"({"kind":"inst","tid":0,"pc":0,"word":)" + word + "}",
        R"({"kind":"end","cycles":3,"committed":1,"threads":[1]})",
    };
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string text;
    for (const std::string &line : lines)
        text += line + "\n";
    return text;
}

TEST(TraceReader, ValidMinimalTraceLoads)
{
    TraceReadResult result = readText(joinLines(validLines()));
    ASSERT_TRUE(result.ok) << result.error.toString();
    EXPECT_EQ(result.trace.threads, 1u);
    EXPECT_EQ(result.trace.code.size(), 1u);
    EXPECT_EQ(result.trace.perThread[0].size(), 1u);
}

TEST(TraceReader, EmptyTrace)
{
    TraceReadResult result = readText("");
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::EmptyTrace);
}

TEST(TraceReader, TornFinalLine)
{
    std::vector<std::string> lines = validLines();
    lines.pop_back();
    lines.push_back(R"({"kind":"inst","tid":0,"pc)");
    TraceReadResult result = readText(joinLines(lines));
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::TornFinalLine);
    EXPECT_EQ(result.error.line, static_cast<unsigned>(lines.size()));
}

TEST(TraceReader, BadJsonMidStream)
{
    std::vector<std::string> lines = validLines();
    lines[1] = "not json at all";
    TraceReadResult result = readText(joinLines(lines));
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::BadJson);
    EXPECT_EQ(result.error.line, 2u);
}

TEST(TraceReader, MissingHeader)
{
    std::vector<std::string> lines = validLines();
    lines.erase(lines.begin());
    TraceReadResult result = readText(joinLines(lines));
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::MissingHeader);
    EXPECT_EQ(result.error.line, 1u);
}

TEST(TraceReader, BadVersion)
{
    std::vector<std::string> lines = validLines();
    std::size_t at = lines[0].find("\"version\":1");
    ASSERT_NE(at, std::string::npos);
    lines[0].replace(at, 11, "\"version\":99");
    TraceReadResult result = readText(joinLines(lines));
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::BadVersion);
}

TEST(TraceReader, UnknownOpcodeInCode)
{
    std::vector<std::string> lines = validLines();
    // 0xFF000000: opcode byte 255, far beyond the defined set.
    lines[1] = R"({"kind":"code","base":0,"words":[4278190080]})";
    TraceReadResult result = readText(joinLines(lines));
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::UnknownOpcode);
    EXPECT_EQ(result.error.line, 2u);
}

TEST(TraceReader, OutOfRangeThreadId)
{
    std::vector<std::string> lines = validLines();
    std::size_t at = lines[2].find("\"tid\":0");
    ASSERT_NE(at, std::string::npos);
    lines[2].replace(at, 7, "\"tid\":5");
    TraceReadResult result = readText(joinLines(lines));
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::BadThreadId);
    EXPECT_EQ(result.error.line, 3u);
}

TEST(TraceReader, OutOfRangePc)
{
    std::vector<std::string> lines = validLines();
    std::size_t at = lines[2].find("\"pc\":0");
    ASSERT_NE(at, std::string::npos);
    lines[2].replace(at, 6, "\"pc\":7");
    TraceReadResult result = readText(joinLines(lines));
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::BadPc);
}

TEST(TraceReader, MissingEnd)
{
    std::vector<std::string> lines = validLines();
    lines.pop_back();
    TraceReadResult result = readText(joinLines(lines));
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::MissingEnd);
}

TEST(TraceReader, MissingFieldAndBadValue)
{
    std::vector<std::string> lines = validLines();
    lines[2] = R"({"kind":"inst","tid":0,"pc":0})"; // no "word"
    TraceReadResult result = readText(joinLines(lines));
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::MissingField);

    lines = validLines();
    std::size_t at = lines[3].find("\"committed\":1");
    ASSERT_NE(at, std::string::npos);
    lines[3].replace(at, 13, "\"committed\":9");
    result = readText(joinLines(lines));
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::BadValue);
}

TEST(TraceReader, DataRecordPastTheAddressSpaceIsBadValue)
{
    // base + size wraps to 0 in 64 bits; the reader must still see
    // that the record runs past the memory size.
    std::vector<std::string> lines = validLines();
    lines.insert(lines.begin() + 2,
                 R"({"kind":"data","base":18446744073709551615,)"
                 R"("bytes":[1]})");
    TraceReadResult result = readText(joinLines(lines));
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.error.kind, TraceErrorKind::BadValue);
    EXPECT_EQ(result.error.line, 3u);
    EXPECT_EQ(result.error.message,
              "data record runs past the memory size");
}

// --------------------------------------------------------------------
// The reader's inst fast path against its generic parser.
// --------------------------------------------------------------------

/** @p text with a space after the `{` that opens each line. No such
 *  line matches the reader's inst fast path, so every line of the
 *  result takes the generic JSON parser. */
std::string
genericOnly(const std::string &text)
{
    std::string out;
    bool line_start = true;
    for (char c : text) {
        out += c;
        if (line_start && c == '{')
            out += ' ';
        line_start = c == '\n';
    }
    return out;
}

/** @p message with the byte offsets of JSON syntax errors removed
 *  (the inserted space shifts them). */
std::string
withoutOffsets(std::string message)
{
    const std::string marker = "at byte ";
    std::size_t at = message.find(marker);
    if (at != std::string::npos) {
        std::size_t end = at + marker.size();
        while (end < message.size() && message[end] >= '0' &&
               message[end] <= '9')
            ++end;
        message.erase(at + marker.size(), end - at - marker.size());
    }
    return message;
}

void
expectSameTrace(const RecordedTrace &a, const RecordedTrace &b,
                const std::string &where)
{
    EXPECT_EQ(a.version, b.version) << where;
    EXPECT_EQ(a.threads, b.threads) << where;
    EXPECT_EQ(a.entry, b.entry) << where;
    EXPECT_EQ(a.memorySize, b.memorySize) << where;
    EXPECT_EQ(a.source, b.source) << where;
    EXPECT_EQ(a.machine, b.machine) << where;
    EXPECT_EQ(a.code, b.code) << where;
    EXPECT_EQ(a.data, b.data) << where;
    EXPECT_EQ(a.cycles, b.cycles) << where;
    EXPECT_EQ(a.committed, b.committed) << where;
    ASSERT_EQ(a.perThread.size(), b.perThread.size()) << where;
    for (std::size_t t = 0; t < a.perThread.size(); ++t) {
        ASSERT_EQ(a.perThread[t].size(), b.perThread[t].size())
            << where;
        for (std::size_t i = 0; i < a.perThread[t].size(); ++i) {
            const TraceInst &x = a.perThread[t][i];
            const TraceInst &y = b.perThread[t][i];
            EXPECT_TRUE(x.tid == y.tid && x.pc == y.pc &&
                        x.word == y.word && x.addr == y.addr &&
                        x.hasAddr == y.hasAddr && x.taken == y.taken &&
                        x.hasTaken == y.hasTaken)
                << where << ": thread " << t << " inst " << i;
        }
    }
}

/** One seeded corruption of a recorded trace @p text. */
std::string
mutate(std::string text, Xorshift64 &rng)
{
    static const std::string kBytes = "0123456789{}[]\",:. -+eEtruefalsn"
                                      "\\x\n\r\t";
    static const char *const kExtremes[] = {
        "0",        "4294967295",           "4294967296",
        "18446744073709551615", "18446744073709551616",
        "007",      "00",                   "-1",
        "-0",       "1.5",                  "1e3",
        "4294967295.0"};
    if (text.empty())
        return text;
    switch (rng.nextBelow(6)) {
      case 0: // flip one byte
        text[rng.nextBelow(text.size())] =
            rng.nextBelow(8) == 0
                ? static_cast<char>(rng.nextBelow(256))
                : kBytes[rng.nextBelow(kBytes.size())];
        break;
      case 1: // insert one byte
        text.insert(rng.nextBelow(text.size() + 1), 1,
                    kBytes[rng.nextBelow(kBytes.size())]);
        break;
      case 2: // delete one byte
        text.erase(rng.nextBelow(text.size()), 1);
        break;
      case 3: // truncate
        text.resize(rng.nextBelow(text.size()));
        break;
      case 4: { // swap two lines
        std::vector<std::string> lines;
        std::istringstream in(text);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
        std::swap(lines[rng.nextBelow(lines.size())],
                  lines[rng.nextBelow(lines.size())]);
        text = joinLines(lines);
        break;
      }
      default: { // an extreme in one integer field or array item
        // Pick the record kind first, so the few header, data and
        // end records are hit as often as the many inst records.
        std::vector<std::string> lines;
        std::istringstream in(text);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
        std::vector<std::string> kinds;
        std::vector<std::vector<std::size_t>> linesOfKind;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            std::size_t at = lines[i].find("\"kind\":\"");
            std::string kind =
                at == std::string::npos
                    ? ""
                    : lines[i].substr(at + 8,
                                      lines[i].find('"', at + 8) - at -
                                          8);
            std::size_t k = 0;
            while (k < kinds.size() && kinds[k] != kind)
                ++k;
            if (k == kinds.size()) {
                kinds.push_back(kind);
                linesOfKind.emplace_back();
            }
            linesOfKind[k].push_back(i);
        }
        const auto &pick = linesOfKind[rng.nextBelow(kinds.size())];
        std::string &line = lines[pick[rng.nextBelow(pick.size())]];

        // Half the time a named field, else any number token.
        const bool named = rng.nextBelow(2) == 0;
        std::vector<std::size_t> numbers;
        for (std::size_t i = 1; i < line.size(); ++i) {
            char prev = line[i - 1];
            bool starts = line[i] == '-' ||
                          (line[i] >= '0' && line[i] <= '9');
            if (starts && (prev == ':' ||
                           (!named && (prev == '[' || prev == ','))))
                numbers.push_back(i);
        }
        if (numbers.empty())
            break;
        std::size_t at = numbers[rng.nextBelow(numbers.size())];
        std::size_t end = at + 1;
        while (end < line.size() &&
               std::string_view("0123456789.eE+-").find(line[end]) !=
                   std::string_view::npos)
            ++end;
        line.replace(at, end - at,
                     kExtremes[rng.nextBelow(std::size(kExtremes))]);
        text = joinLines(lines);
        break;
      }
    }
    return text;
}

TEST(TraceReader, FastPathAgreesWithGenericParser)
{
    std::vector<std::string> recordings;
    for (unsigned threads : {1u, 2u, 4u}) {
        recordings.push_back(recordDemo(demoConfig(threads)));
        recordings.push_back(
            recordDemo(demoConfig(threads), nullptr, kDataSource));
    }

    Xorshift64 rng(20240917);
    for (std::size_t r = 0; r < recordings.size(); ++r) {
        const std::string &recorded = recordings[r];
        for (unsigned n = 0; n < 1000; ++n) {
            std::string text = recorded;
            for (unsigned k = 1 + rng.nextBelow(2); k > 0; --k)
                text = mutate(std::move(text), rng);

            TraceReadResult fast = readText(text);
            TraceReadResult generic = readText(genericOnly(text));
            const std::string where = "recording " + std::to_string(r) +
                                      ", case " + std::to_string(n) +
                                      ": " + fast.error.toString();
            ASSERT_EQ(fast.ok, generic.ok) << where;
            if (fast.ok) {
                expectSameTrace(fast.trace, generic.trace, where);
                continue;
            }
            EXPECT_EQ(fast.error.kind, generic.error.kind) << where;
            EXPECT_EQ(fast.error.line, generic.error.line) << where;
            EXPECT_EQ(withoutOffsets(fast.error.message),
                      withoutOffsets(generic.error.message))
                << where;
        }
    }
}

/** A stream buffer that hands out @p text a few bytes at a time and
 *  cannot seek, as a pipe does. */
class PipeBuf : public std::streambuf
{
  public:
    explicit PipeBuf(std::string text) : text_(std::move(text)) {}

  protected:
    int_type
    underflow() override
    {
        if (at_ == text_.size())
            return traits_type::eof();
        const std::size_t n = std::min(sizeof piece_, text_.size() - at_);
        text_.copy(piece_, n, at_);
        at_ += n;
        setg(piece_, piece_, piece_ + n);
        return traits_type::to_int_type(piece_[0]);
    }

  private:
    std::string text_;
    std::size_t at_ = 0;
    char piece_[7];
};

TEST(TraceReader, NonSeekableStreamReadsTheSame)
{
    // A pipe cannot tell readTrace how much is left, so its buffer
    // grows as it reads; the trace, and every error, come out as from
    // a string, whose length is known up front.
    std::vector<std::string> torn = validLines();
    torn.back() = R"({"kind":"inst","tid":0,"pc)";
    std::vector<std::string> unended = validLines();
    unended.pop_back();
    const std::pair<std::string, std::optional<TraceErrorKind>> cases[] = {
        {recordDemo(demoConfig(2), nullptr, kDataSource), std::nullopt},
        {joinLines(torn), TraceErrorKind::TornFinalLine},
        {joinLines(unended), TraceErrorKind::MissingEnd},
    };
    for (const auto &[text, error] : cases) {
        PipeBuf pipe(text);
        std::istream in(&pipe);
        ASSERT_EQ(in.rdbuf()->pubseekoff(0, std::ios::cur, std::ios::in),
                  std::streampos(-1));
        const TraceReadResult piped = readTrace(in);
        const TraceReadResult whole = readText(text);
        ASSERT_EQ(whole.ok, !error) << whole.error.toString();
        ASSERT_EQ(piped.ok, whole.ok) << piped.error.toString();
        if (whole.ok) {
            expectSameTrace(piped.trace, whole.trace, "piped");
            continue;
        }
        EXPECT_EQ(whole.error.kind, *error);
        EXPECT_EQ(piped.error.kind, whole.error.kind);
        EXPECT_EQ(piped.error.line, whole.error.line);
        EXPECT_EQ(piped.error.message, whole.error.message);
    }
}

TEST(TraceReader, ErrorKindNamesAreStable)
{
    EXPECT_STREQ(traceErrorKindName(TraceErrorKind::TornFinalLine),
                 "torn-final-line");
    EXPECT_STREQ(traceErrorKindName(TraceErrorKind::UnknownOpcode),
                 "unknown-opcode");
    EXPECT_STREQ(traceErrorKindName(TraceErrorKind::BadThreadId),
                 "bad-thread-id");
    EXPECT_STREQ(traceErrorKindName(TraceErrorKind::EmptyTrace),
                 "empty-trace");
}

} // namespace
} // namespace sdsp
