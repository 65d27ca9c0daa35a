/**
 * @file
 * Tests for the structured trace layer: text-sink format fidelity,
 * event ordering out of the pipeline, tee fan-out, and the JSON
 * (Chrome-trace-event) writer's syntax and schema.
 */

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "common/trace.hh"
#include "core/processor.hh"

namespace sdsp
{
namespace
{

// ---- A minimal JSON syntax checker (the simulator's own JSON
// support is write-only, so the test brings its own reader). ----

bool parseValue(const std::string &text, std::size_t &pos);

void
skipSpace(const std::string &text, std::size_t &pos)
{
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' ||
            text[pos] == '\n' || text[pos] == '\r')) {
        ++pos;
    }
}

bool
parseString(const std::string &text, std::size_t &pos)
{
    if (pos >= text.size() || text[pos] != '"')
        return false;
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
        if (text[pos] == '\\')
            ++pos;
        ++pos;
    }
    if (pos >= text.size())
        return false;
    ++pos; // closing quote
    return true;
}

bool
parseContainer(const std::string &text, std::size_t &pos, char close,
               bool keyed)
{
    ++pos; // opening bracket
    skipSpace(text, pos);
    if (pos < text.size() && text[pos] == close) {
        ++pos;
        return true;
    }
    while (true) {
        skipSpace(text, pos);
        if (keyed) {
            if (!parseString(text, pos))
                return false;
            skipSpace(text, pos);
            if (pos >= text.size() || text[pos] != ':')
                return false;
            ++pos;
        }
        if (!parseValue(text, pos))
            return false;
        skipSpace(text, pos);
        if (pos >= text.size())
            return false;
        if (text[pos] == ',') {
            ++pos;
            continue;
        }
        if (text[pos] == close) {
            ++pos;
            return true;
        }
        return false;
    }
}

bool
parseValue(const std::string &text, std::size_t &pos)
{
    skipSpace(text, pos);
    if (pos >= text.size())
        return false;
    char c = text[pos];
    if (c == '{')
        return parseContainer(text, pos, '}', true);
    if (c == '[')
        return parseContainer(text, pos, ']', false);
    if (c == '"')
        return parseString(text, pos);
    if (text.compare(pos, 4, "true") == 0) {
        pos += 4;
        return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
        pos += 5;
        return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
        pos += 4;
        return true;
    }
    // Number.
    std::size_t start = pos;
    if (c == '-')
        ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
        ++pos;
    }
    return pos > start;
}

bool
isValidJson(const std::string &text)
{
    std::size_t pos = 0;
    if (!parseValue(text, pos))
        return false;
    skipSpace(text, pos);
    return pos == text.size();
}

// ---- Shared fixtures ----

/** Records every event for inspection. */
class RecordingSink final : public TraceSink
{
  public:
    void
    emit(const TraceEvent &event) override
    {
        events.push_back(event);
    }

    std::vector<TraceEvent> events;
};

/** A two-thread loop with stores: exercises fetch, dispatch, issue,
 *  writeback, commit, squash (loop branch mispredicts), and the
 *  cache. */
Program
loopProgram(int iterations = 20)
{
    ProgramBuilder b;
    b.dword("out", 0);
    b.ldi(1, iterations);
    b.ldi(2, 0);
    b.label("top");
    b.add(2, 2, 1);
    b.addi(1, 1, -1);
    b.bne(1, 0, "top");
    b.la(3, "out");
    b.st(2, 0, 3);
    b.halt();
    return b.finish();
}

MachineConfig
traceConfig(unsigned threads)
{
    MachineConfig cfg;
    cfg.numThreads = threads;
    cfg.maxCycles = 1'000'000;
    return cfg;
}

TraceEvent
makeEvent(TraceEventKind kind)
{
    TraceEvent ev;
    ev.kind = kind;
    return ev;
}

// ---- Text sink ----

TEST(TextSink, LegacyLineFormats)
{
    std::ostringstream out;
    TextTraceSink sink(out);

    TraceEvent fetch = makeEvent(TraceEventKind::Fetch);
    fetch.cycle = 7;
    fetch.tid = 1;
    fetch.pc = 12;
    fetch.args[0] = 4;
    sink.emit(fetch);

    TraceEvent halt = makeEvent(TraceEventKind::CommitHalt);
    halt.cycle = 9;
    halt.tid = 2;
    sink.emit(halt);

    TraceEvent block = makeEvent(TraceEventKind::CommitBlock);
    block.cycle = 10;
    block.tid = 1;
    block.seq = 5;
    block.args[0] = 2;
    sink.emit(block);

    TraceEvent squash = makeEvent(TraceEventKind::Squash);
    squash.cycle = 11;
    squash.tid = 0;
    squash.pc = 3;
    squash.args[0] = 8;
    squash.args[1] = 6;
    sink.emit(squash);

    EXPECT_EQ(out.str(),
              "[       7] fetch: tid=1 pc=12 n=4\n"
              "[       9] commit: thread 2 HALT\n"
              "[      10] commit: block seq=5 tid=1 from slot 2\n"
              "[      11] squash: tid=0 pc=3 -> 8 (6 entries)\n");
}

TEST(TextSink, IgnoresStructuredOnlyKinds)
{
    std::ostringstream out;
    TextTraceSink sink(out);
    for (TraceEventKind kind :
         {TraceEventKind::Dispatch, TraceEventKind::Issue,
          TraceEventKind::Writeback, TraceEventKind::CommitInst,
          TraceEventKind::CacheMiss, TraceEventKind::Stall,
          TraceEventKind::Counter}) {
        sink.emit(makeEvent(kind));
    }
    EXPECT_EQ(out.str(), "");
}

// ---- Null sink and tee ----

TEST(NullSink, SwallowsEverything)
{
    NullTraceSink sink;
    for (unsigned k = 0; k < kNumTraceEventKinds; ++k)
        sink.emit(makeEvent(static_cast<TraceEventKind>(k)));
    sink.finish(); // default no-op
}

TEST(TeeSink, ForwardsToEverySinkInOrder)
{
    RecordingSink a, b;
    TeeTraceSink tee;
    tee.add(&a);
    tee.add(&b);
    tee.add(nullptr); // ignored

    TraceEvent ev = makeEvent(TraceEventKind::Issue);
    ev.seq = 42;
    tee.emit(ev);

    ASSERT_EQ(a.events.size(), 1u);
    ASSERT_EQ(b.events.size(), 1u);
    EXPECT_EQ(a.events[0].seq, 42u);
    EXPECT_EQ(b.events[0].seq, 42u);
}

// ---- Pipeline event stream ----

TEST(PipelineEvents, OrderedAndLifecycleConsistent)
{
    RecordingSink sink;
    Program prog = loopProgram();
    MachineConfig cfg = traceConfig(2);
    Processor cpu(cfg, prog);
    cpu.setTraceSink(&sink);
    SimResult sim = cpu.run();
    ASSERT_TRUE(sim.finished);

    // Cycle numbers never go backwards for live pipeline events.
    // (Stall spans are reported when they *end* and carry their
    // start cycle, so they are exempt.)
    Cycle last = 0;
    std::uint64_t commits = 0;
    bool saw_fetch = false, saw_dispatch = false, saw_issue = false,
         saw_writeback = false, saw_squash = false;
    for (const TraceEvent &ev : sink.events) {
        if (ev.kind != TraceEventKind::Stall) {
            EXPECT_GE(ev.cycle, last);
            last = ev.cycle;
        }
        switch (ev.kind) {
          case TraceEventKind::Fetch:
            saw_fetch = true;
            EXPECT_GT(ev.args[0], 0u); // nonempty block
            break;
          case TraceEventKind::Dispatch:
            saw_dispatch = true;
            break;
          case TraceEventKind::Issue:
            saw_issue = true;
            EXPECT_NE(ev.label, nullptr);
            break;
          case TraceEventKind::Writeback:
            saw_writeback = true;
            break;
          case TraceEventKind::Squash:
            saw_squash = true;
            break;
          case TraceEventKind::CommitInst: {
            ++commits;
            // fetch <= dispatch <= issue <= complete <= commit.
            EXPECT_LE(ev.args[0], ev.args[1]);
            EXPECT_LE(ev.args[1], ev.args[2]);
            EXPECT_LE(ev.args[2], ev.args[3]);
            EXPECT_LE(ev.args[3], ev.cycle);
            break;
          }
          default:
            break;
        }
    }
    EXPECT_TRUE(saw_fetch);
    EXPECT_TRUE(saw_dispatch);
    EXPECT_TRUE(saw_issue);
    EXPECT_TRUE(saw_writeback);
    EXPECT_TRUE(saw_squash); // the loop branch mispredicts at exit
    EXPECT_EQ(commits, sim.committedInstructions);
}

TEST(PipelineEvents, StallSpansCoverNonActiveCycles)
{
    RecordingSink sink;
    Program prog = loopProgram();
    MachineConfig cfg = traceConfig(4);
    Processor cpu(cfg, prog);
    cpu.setTraceSink(&sink);
    SimResult sim = cpu.run();
    ASSERT_TRUE(sim.finished);

    // Per-thread stall spans must not overlap and must not extend
    // past the end of the run.
    std::vector<Cycle> next_free(cfg.numThreads, 0);
    unsigned spans = 0;
    for (const TraceEvent &ev : sink.events) {
        if (ev.kind != TraceEventKind::Stall)
            continue;
        ++spans;
        EXPECT_GT(ev.args[1], 0u);
        EXPECT_GE(ev.cycle, next_free[ev.tid]);
        next_free[ev.tid] = ev.cycle + ev.args[1];
        EXPECT_LE(next_free[ev.tid], sim.cycles + 1);
        EXPECT_NE(ev.label, nullptr);
    }
    EXPECT_GT(spans, 0u);
}

// ---- JSON sink ----

TEST(JsonSink, EmptyTraceIsAnEmptyArray)
{
    std::ostringstream out;
    {
        JsonTraceSink sink(out);
        sink.finish();
        sink.finish(); // idempotent
    }
    EXPECT_TRUE(isValidJson(out.str())) << out.str();
}

TEST(JsonSink, WholeFileAndEveryLineParse)
{
    std::ostringstream out;
    Program prog = loopProgram();
    MachineConfig cfg = traceConfig(2);
    {
        JsonTraceSink sink(out);
        Processor cpu(cfg, prog);
        cpu.setTraceSink(&sink);
        ASSERT_TRUE(cpu.run().finished);
        sink.finish();
    }
    const std::string text = out.str();

    // The whole document is one valid JSON array...
    ASSERT_TRUE(isValidJson(text));

    // ...and each record line parses standalone after stripping the
    // trailing comma, carrying the Chrome-trace-event schema.
    std::istringstream lines(text);
    std::string line;
    unsigned records = 0;
    bool saw_process_meta = false, saw_complete = false,
         saw_counter = false, saw_stall_track = false;
    while (std::getline(lines, line)) {
        if (line == "[" || line == "]" || line.empty())
            continue;
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        ++records;
        EXPECT_TRUE(isValidJson(line)) << line;
        EXPECT_NE(line.find("\"ph\":"), std::string::npos) << line;
        EXPECT_NE(line.find("\"ts\":"), std::string::npos) << line;
        EXPECT_NE(line.find("\"pid\":"), std::string::npos) << line;
        EXPECT_NE(line.find("\"name\":"), std::string::npos) << line;
        if (line.find("\"process_name\"") != std::string::npos)
            saw_process_meta = true;
        if (line.find("\"ph\":\"X\"") != std::string::npos &&
            line.find("\"commit\":") != std::string::npos) {
            saw_complete = true;
            for (const char *key :
                 {"\"dur\":", "\"fetch\":", "\"dispatch\":",
                  "\"issue\":", "\"complete\":", "\"seq\":",
                  "\"pc\":"}) {
                EXPECT_NE(line.find(key), std::string::npos) << line;
            }
        }
        if (line.find("\"su_occupancy\"") != std::string::npos &&
            line.find("\"ph\":\"C\"") != std::string::npos) {
            saw_counter = true;
        }
        if (line.find("\"pid\":2") != std::string::npos &&
            line.find("\"reason\":") != std::string::npos) {
            saw_stall_track = true;
        }
    }
    EXPECT_GT(records, 10u);
    EXPECT_TRUE(saw_process_meta);
    EXPECT_TRUE(saw_complete);
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_stall_track);
}

TEST(JsonSink, DestructorFinishesTheDocument)
{
    std::ostringstream out;
    {
        JsonTraceSink sink(out);
        TraceEvent ev = makeEvent(TraceEventKind::Issue);
        ev.cycle = 3;
        sink.emit(ev);
        // No explicit finish(): the destructor must close the array.
    }
    EXPECT_TRUE(isValidJson(out.str())) << out.str();
}

} // namespace
} // namespace sdsp
