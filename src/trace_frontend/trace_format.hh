/**
 * @file
 * The SDSP trace format: recording and reading committed-instruction
 * streams.
 *
 * A trace file is JSON Lines — one self-contained JSON object per
 * line — so it can be produced and consumed streamingly, inspected
 * with jq, and truncated traces are detectable line-by-line:
 *
 *   {"kind":"header","version":1,"threads":4,"entry":0,
 *    "memory":4096,"source":"demo.s","machine":"..."}
 *   {"kind":"code","base":0,"words":[33685504,...]}      (chunked)
 *   {"kind":"data","base":0,"bytes":[7,0,...]}           (chunked,
 *                                        all-zero chunks omitted)
 *   {"kind":"inst","tid":0,"pc":5,"word":...,"addr":8}   (loads/
 *                                        stores carry "addr")
 *   {"kind":"inst","tid":1,"pc":9,"word":...,"taken":true}
 *                                        (cond branches: outcome)
 *   {"kind":"end","cycles":123,"committed":456,
 *    "threads":[114,114,114,114]}
 *
 * The header + code + data records embed the full program image, so a
 * trace is replayable on its own: exact replay reconstructs the
 * Program and re-runs it (verifying the committed stream record by
 * record), and stream replay (replay.hh) consumes the per-thread
 * `inst` streams directly, which is what enables mixed-workload
 * "trace cocktails".
 *
 * The reader never crashes on malformed input: every failure mode is
 * a named TraceErrorKind with the 1-based line it was detected on.
 *
 * Reading cost: readTrace reads the stream once into one buffer,
 * sized up front when the stream can seek (a string or a regular
 * file; a pipe grows it as it reads), and walks its lines in place. A fast path parses exactly the `inst`
 * layout TraceRecorder writes, `{"kind":"inst","tid":N,"pc":N,
 * "word":N[,"addr":N][,"taken":true|false]}`, with the generic
 * reader's checks. Any other line, and any line the fast path would
 * reject, goes to the generic JSON parser, so error kinds, lines and
 * messages do not depend on the fast path. There is no switch to
 * turn it off: test_trace_frontend compares it against the generic
 * path on mutated traces.
 */

#ifndef SDSP_TRACE_FRONTEND_TRACE_FORMAT_HH
#define SDSP_TRACE_FRONTEND_TRACE_FORMAT_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/trace.hh"
#include "common/types.hh"
#include "core/processor.hh"
#include "isa/program.hh"

namespace sdsp
{

/** Current trace format version (the header's "version" field). */
inline constexpr unsigned kTraceFormatVersion = 1;

/** Why a trace failed to load. Every kind has a stable name. */
enum class TraceErrorKind : std::uint8_t
{
    IoError,       //!< file could not be opened or read
    EmptyTrace,    //!< no records at all
    TornFinalLine, //!< last line is not valid JSON (truncated write)
    BadJson,       //!< a non-final line is not valid JSON
    MissingField,  //!< a record lacks a required field
    BadValue,      //!< a field value is out of range or mistyped
    MissingHeader, //!< first record is not a header
    BadVersion,    //!< header names an unsupported format version
    UnknownOpcode, //!< an instruction word does not decode
    BadThreadId,   //!< an inst record's tid >= header thread count
    BadPc,         //!< an inst record's pc outside the code image
    MissingEnd,    //!< trace does not finish with an end record
};

/** Stable kebab-case name of @p kind (e.g. "torn-final-line"). */
const char *traceErrorKindName(TraceErrorKind kind);

/** A trace-loading failure: what, where, and why. */
struct TraceError
{
    TraceErrorKind kind = TraceErrorKind::IoError;
    /** 1-based line the failure was detected on (0: whole file). */
    unsigned line = 0;
    std::string message;

    /** "torn-final-line at line 7: ..." */
    std::string toString() const;
};

/** One committed instruction of one thread, in commit order. */
struct TraceInst
{
    ThreadId tid = 0;
    InstAddr pc = 0;
    InstWord word = 0;
    /** Effective byte address (valid iff hasAddr; loads/stores). */
    Addr addr = 0;
    bool hasAddr = false;
    /** Resolved branch outcome (valid iff hasTaken). */
    bool taken = false;
    bool hasTaken = false;
};

/** A fully loaded trace. */
struct RecordedTrace
{
    unsigned version = kTraceFormatVersion;
    /** Hardware threads the recorded run was configured with. */
    unsigned threads = 1;
    InstAddr entry = 0;
    std::uint32_t memorySize = 0;
    /** Provenance strings from the header (may be empty). */
    std::string source;
    std::string machine;

    /** Embedded program image. */
    std::vector<InstWord> code;
    std::vector<std::uint8_t> data;

    /** Committed instructions of each thread, in commit order. */
    std::vector<std::vector<TraceInst>> perThread;

    /** Totals from the end record. */
    Cycle cycles = 0;
    std::uint64_t committed = 0;

    /** Reconstruct the program image the trace was recorded from. */
    Program toProgram() const;

    /** Committed instructions across all threads (stream lengths). */
    std::uint64_t totalInsts() const;
};

/** Result of loading a trace: a trace or a named error. */
struct TraceReadResult
{
    bool ok = false;
    RecordedTrace trace;
    TraceError error;
};

/** Parse a complete trace document from @p in. Never crashes. */
TraceReadResult readTrace(std::istream &in);

/** Parse the trace file at @p path. Never crashes. */
TraceReadResult readTraceFile(const std::string &path);

/**
 * A TraceSink that records the committed-instruction stream of a run
 * as a replayable trace file. Attach it (normally through a
 * TeeTraceSink) before running, call noteResult() with the final
 * SimResult, then finish() to write the end record.
 *
 * The program image and machine description are written up front, so
 * even a truncated recording carries a replayable prefix. Each `inst`
 * line is formatted into a buffer the recorder owns and written with
 * one ostream::write, so recording allocates nothing per instruction
 * beyond what the stream itself does.
 */
class TraceRecorder final : public TraceSink
{
  public:
    TraceRecorder(std::ostream &out, const Program &program,
                  const MachineConfig &config,
                  const std::string &source_name);

    void emit(const TraceEvent &event) override;

    TraceKindMask
    kinds() const override
    {
        return traceKindBit(TraceEventKind::CommitInst);
    }

    /** Record the run's final cycle/instruction totals (before
     *  finish()); otherwise the end record reports observed
     *  totals. */
    void noteResult(const SimResult &result);

    void finish() override;

  private:
    std::ostream &out_;
    /** One `inst` line; the longest, with every field at its
     *  maximum, is 102 bytes. */
    std::array<char, 128> line_;
    unsigned threads_;
    std::vector<std::uint64_t> perThreadCommitted_;
    Cycle lastCycle_ = 0;
    std::uint64_t committed_ = 0;
    bool haveResult_ = false;
    SimResult result_;
    bool finished_ = false;
};

} // namespace sdsp

#endif // SDSP_TRACE_FRONTEND_TRACE_FORMAT_HH
