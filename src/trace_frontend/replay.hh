/**
 * @file
 * Trace replay: two ways to turn a recorded trace (trace_format.hh)
 * back into pipeline work.
 *
 * Exact replay reconstructs the embedded program image and re-runs it
 * on the execute-at-issue pipeline, verifying the committed stream
 * against the recording instruction by instruction (pc, encoding,
 * effective address, branch outcome). On the recorded machine
 * configuration this is bit-identical — same cycles, same IPC — which
 * is what the CI trace smoke asserts.
 *
 * Stream replay consumes the recorded per-thread commit streams
 * directly: each stream is flattened into a straight-line instruction
 * sequence (control transfers are rewritten to fall through along the
 * recorded path, loads and stores are bound to their recorded
 * effective addresses via ReplayAddressSource), and one stream is
 * assigned to each hardware thread. Streams from *different* traces
 * can be mixed — a "trace cocktail" — which is how heterogeneous
 * multiprogrammed workloads are modelled without hand-writing them.
 * Timing is approximate (correct-path only: wrong-path fetch and
 * mispredict squashes are not replayed), the standard trade-off of
 * trace-driven simulation.
 */

#ifndef SDSP_TRACE_FRONTEND_REPLAY_HH
#define SDSP_TRACE_FRONTEND_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/trace.hh"
#include "core/processor.hh"
#include "trace_frontend/trace_format.hh"

namespace sdsp
{

/**
 * Verifies a replayed run's committed-instruction stream against the
 * recording. Attach to the replaying processor (through a tee if
 * other sinks are also wanted); after the run, ok() reports whether
 * every committed instruction matched the recording in order and
 * complete() whether every recorded instruction was committed.
 */
class ReplayVerifySink final : public TraceSink
{
  public:
    explicit ReplayVerifySink(const RecordedTrace &trace);

    void emit(const TraceEvent &event) override;

    TraceKindMask
    kinds() const override
    {
        return traceKindBit(TraceEventKind::CommitInst);
    }

    /** No mismatching instruction committed so far. */
    bool ok() const { return mismatches_ == 0; }

    /** Every recorded instruction was committed (call after run). */
    bool complete() const;

    std::uint64_t mismatches() const { return mismatches_; }

    /** Description of the first mismatch (empty when ok). */
    const std::string &firstMismatch() const { return first_; }

  private:
    void mismatch(const TraceEvent &event, const std::string &why);

    const RecordedTrace &trace_;
    /** Next unmatched index into trace_.perThread[tid]. */
    std::vector<std::size_t> cursor_;
    std::uint64_t mismatches_ = 0;
    std::string first_;
};

/** Outcome of an exact replay. */
struct ExactReplayResult
{
    SimResult sim;
    /** Committed stream matched the recording, completely. */
    bool verified = false;
    std::uint64_t mismatches = 0;
    std::string firstMismatch;
};

/**
 * Re-run @p trace's embedded program on @p config, verifying the
 * committed stream against the recording. The configuration's thread
 * count must match the trace header. @p extra (optional) receives the
 * replay's pipeline events as well.
 */
ExactReplayResult replayExact(const RecordedTrace &trace,
                              const MachineConfig &config,
                              TraceSink *extra = nullptr);

/** One hardware thread's worth of a cocktail: a recorded stream. */
struct StreamSource
{
    const RecordedTrace *trace = nullptr;
    /** Which recorded thread's stream to replay. */
    ThreadId sourceThread = 0;
};

struct StreamReplayOptions
{
    /** Truncate each stream to this many instructions (0 = all);
     *  truncated streams get a HALT appended. */
    std::uint64_t maxInstsPerStream = 0;
    /** Fetch-block alignment of each stream's start. */
    unsigned blockSize = 4;
};

/** A built cocktail, ready to run. */
struct StreamReplay
{
    /** Flattened image; threadEntries starts thread t on stream t. */
    Program program;
    /** Recorded effective addresses, indexed by flattened PC. Attach
     *  with Processor::setReplayAddresses; must outlive the run. */
    ReplayAddressSource addresses;
    unsigned numThreads = 0;
    /** Instructions in each flattened stream (incl. final HALT) —
     *  the expected per-thread committed count. */
    std::vector<std::uint64_t> streamLengths;
};

/**
 * Flatten one recorded stream per hardware thread into a runnable
 * image. @p regs_per_thread is the target machine's per-thread
 * register budget (MachineConfig::regsPerThread()); streams using
 * more distinct registers than that cannot be remapped and fail.
 *
 * On failure returns false and explains why in @p error.
 */
bool buildStreamReplay(const std::vector<StreamSource> &sources,
                       unsigned regs_per_thread,
                       const StreamReplayOptions &options,
                       StreamReplay &out, std::string *error);

} // namespace sdsp

#endif // SDSP_TRACE_FRONTEND_REPLAY_HH
