/**
 * @file
 * The multithreaded superscalar processor: the paper's contribution,
 * assembled from the fetch unit, decoder/renamer, scheduling unit,
 * functional unit pool, flexible result commit, shared register file,
 * store buffer, branch predictor and data cache.
 *
 * Cycle model (Processor::step()):
 *   1. commit     - flexible result commit retires at most one block;
 *   2. drain      - committed stores leave the store buffer;
 *   3. writeback  - up to 8 results return to the SU; mispredicted
 *                   control transfers selectively squash their thread;
 *   4. issue      - oldest-first out-of-order issue, up to 8;
 *   5. dispatch   - the decoded block enters the SU (renaming);
 *   6. fetch      - the fetch policy picks a thread and fills the
 *                   fetch latch with one 4-instruction block.
 *
 * Values written in one stage are visible to later stages of the same
 * cycle exactly where the real pipeline would bypass them (e.g. a
 * result written back in stage 3 can wake an instruction that issues
 * in stage 4 iff result bypassing is enabled).
 */

#ifndef SDSP_CORE_PROCESSOR_HH
#define SDSP_CORE_PROCESSOR_HH

#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "branch/predictor_bank.hh"
#include "common/stats_registry.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "core/exec.hh"
#include "core/fetch.hh"
#include "core/regfile.hh"
#include "core/su.hh"
#include "isa/decoded_program.hh"
#include "isa/program.hh"
#include "memory/cache.hh"
#include "memory/main_memory.hh"
#include "memory/store_buffer.hh"

namespace sdsp
{

/**
 * Top-down-style stall attribution: every simulated cycle, every
 * thread is charged exactly one reason, so each thread's attributed
 * cycles always sum to the total cycle count (the accounting
 * invariant the tests enforce). A thread that fetched, dispatched,
 * issued, or committed anything in a cycle is Active; otherwise the
 * charge describes why it could not make progress, most specific
 * cause first (see Processor::attributeCycle for the priority order).
 */
enum class StallReason : std::uint8_t
{
    Active,             //!< fetched/dispatched/issued/committed work
    SuFull,             //!< dispatch blocked: scheduling unit full
    StoreBufferFull,    //!< a store could not enter the store buffer
    CacheMiss,          //!< waiting on an outstanding data-cache miss
                        //!< (or a cache port rejection this cycle)
    FuBusy,             //!< a ready instruction found no free FU
    OperandWait,        //!< resident work waiting on operands (incl.
                        //!< conservative load/store disambiguation)
    CommitBlocked,      //!< all resident work complete but not yet
                        //!< allowed to commit (flexible-commit order)
    MispredictRecovery, //!< squash resolved this cycle, or fetch is
                        //!< parked on a speculative dead end
    FetchStarved,       //!< no resident work and no fetch slot (lost
                        //!< the rotation, masked, or latch busy)
    Done,               //!< the thread has committed HALT
};

/** Number of StallReason values (matrix row width). */
inline constexpr unsigned kNumStallReasons = 10;

/** Stable kebab-free name of @p reason (stats / JSON key). */
const char *stallReasonName(StallReason reason);

/**
 * The per-instruction lifecycle intervals sampled into latency
 * histograms at commit. The enumerator value is the histogram index
 * and latencyStageName() is the "latency.<name>" stats-key suffix, so
 * sampling sites and reporting can never disagree on what an index
 * means.
 */
enum class LatencyStage : std::uint8_t
{
    FetchToDispatch,  //!< fetch latch -> scheduling unit
    DispatchToIssue,  //!< rename -> functional unit
    IssueToComplete,  //!< functional unit -> writeback
    CompleteToCommit, //!< writeback -> retirement
    FetchToCommit,    //!< whole lifetime
};

/** Number of LatencyStage values (histogram table width). */
inline constexpr unsigned kNumLatencyStages = 5;

/** Stable camelCase name of @p stage (stats-key suffix). */
const char *latencyStageName(LatencyStage stage);

/**
 * Per-PC effective-address overrides for trace-stream replay.
 *
 * A flattened replay stream gives every dynamic load/store its own
 * unique instruction address, so binding recorded effective addresses
 * by PC is exact and — unlike a consume-in-order cursor — immune to
 * wrong-path issues and squashes: however often a PC is re-dispatched
 * speculatively, it always resolves to the same recorded address.
 */
struct ReplayAddressSource
{
    /** hasAddr[pc] != 0 iff addr[pc] overrides the computed address. */
    std::vector<std::uint8_t> hasAddr;
    std::vector<Addr> addr;
};

/** Aggregate outcome of a simulation run. */
struct SimResult
{
    /** All threads ran to HALT within the cycle budget. */
    bool finished = false;
    /** The wall-clock deadline given to Processor::run() stopped the
     *  run before it finished. */
    bool timedOut = false;
    /** Why a fault stopped the run before it finished, in the
     *  interpreter's words ("thread 0 at pc 2: misaligned or
     *  out-of-bounds store at 0xff00000"); empty when none did. */
    std::string fault;
    Cycle cycles = 0;
    std::uint64_t committedInstructions = 0;
    double
    ipc() const
    {
        return cycles ? static_cast<double>(committedInstructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** The simulated processor. */
class Processor
{
  public:
    /**
     * Build a processor and load @p program. Fatal if the program
     * names registers outside the per-thread partition implied by
     * the configuration's thread count.
     */
    Processor(const MachineConfig &config, const Program &program);

    /**
     * Build a processor over an already-decoded program, sharing the
     * immutable text and decoded-instruction table with any number of
     * other processors (a caller that runs many machine variants of
     * one program decodes it once). Same register-partition check as
     * the Program overload.
     */
    Processor(const MachineConfig &config,
              std::shared_ptr<const DecodedProgram> program);

    ~Processor();

    Processor(const Processor &) = delete;
    Processor &operator=(const Processor &) = delete;

    /** Host instant after which run() stops stepping. */
    using Deadline = std::chrono::steady_clock::time_point;

    /**
     * Advance one cycle. A load or store that commits at a misaligned
     * or out-of-range address throws std::runtime_error with the
     * text run() reports as SimResult::fault.
     */
    void step();

    /**
     * Run to completion (all threads halted, pipeline drained), to
     * the configured cycle cap, until the wall clock passes
     * @p deadline, or until a load or store commits at a misaligned
     * or out-of-range address, whichever comes first. The clock is
     * read once every kDeadlineCheckCycles cycles, and never without
     * a deadline. Closes any stall span still open on the trace sink.
     * @return The aggregate result: finished=false on the cycle cap,
     *         the deadline or a fault, timedOut=true on the deadline,
     *         fault set on a fault.
     */
    SimResult run(std::optional<Deadline> deadline = std::nullopt);

    /** All threads halted and the machine fully drained? */
    bool done() const;

    /** Current cycle. */
    Cycle cycle() const { return now; }

    /** Committed instructions (all threads). */
    std::uint64_t committedInstructions() const { return statCommitted; }

    /** Committed instructions of one thread. */
    std::uint64_t
    committedInstructions(ThreadId tid) const
    {
        return statCommittedPerThread[tid];
    }

    /** Architectural (committed) value of a thread register. */
    RegVal
    readReg(ThreadId tid, RegIndex reg) const
    {
        return regs.read(tid, reg);
    }

    /** Data memory (architectural state once the run finishes). */
    const MainMemory &memory() const { return mem; }
    MainMemory &memory() { return mem; }

    /** Component access for statistics and tests. */
    const DataCache &dcache() const { return cache; }
    /** Finite I-cache, or nullptr under the perfect-I-cache model. */
    const DataCache *instructionCache() const { return icache.get(); }
    const PredictorBank &predictor() const { return btb; }
    const FuPool &fuPool() const { return fus; }
    const SchedulingUnit &schedulingUnit() const { return su; }
    const FetchUnit &fetchUnit() const { return fetch; }
    const StoreBuffer &storeBuffer() const { return sb; }
    const MachineConfig &config() const { return cfg; }

    /** Scheduling-unit full (dispatch) stalls — the paper's
     *  "scheduling unit stall" count. */
    std::uint64_t suStalls() const { return statSuFullStalls; }

    /** Mean scheduling-unit occupancy (valid entries per cycle). */
    double
    averageSuOccupancy() const
    {
        return now ? static_cast<double>(statOccupancySum) /
                         static_cast<double>(now)
                   : 0.0;
    }

    /** Cycles in which exactly @p width instructions issued. */
    std::uint64_t
    issueWidthCycles(unsigned width) const
    {
        return width < statIssueHistogram.size()
                   ? statIssueHistogram[width]
                   : 0;
    }

    /** Commits taken from a non-bottom block (flexible commit). */
    std::uint64_t flexibleCommits() const { return statFlexCommits; }

    /** Dump all statistics into @p registry. */
    void reportStats(StatsRegistry &registry) const;

    /** Attach a structured event sink (nullptr disables tracing).
     *  The sink must outlive the processor or be detached first.
     *  Its kinds() is read here, once: only those kinds are built
     *  and emitted. */
    void
    setTraceSink(TraceSink *s)
    {
        sink = s;
        traceKinds = s ? s->kinds() : 0;
    }

    /** Override load/store effective addresses per PC (trace-stream
     *  replay); nullptr restores computed addressing. The source must
     *  outlive the processor or be detached first. */
    void
    setReplayAddresses(const ReplayAddressSource *source)
    {
        replayAddrs = source;
    }

    /** Cycles of @p tid charged to @p reason. For every thread the
     *  kNumStallReasons charges sum to cycle() — each cycle is
     *  attributed to exactly one reason. */
    std::uint64_t
    stallCycles(ThreadId tid, StallReason reason) const
    {
        return statStallCycles[tid][static_cast<unsigned>(reason)];
    }

    /** Per-stage latency histogram of committed instructions. */
    const Distribution &
    latencyDistribution(LatencyStage stage) const
    {
        return latencyDists[static_cast<unsigned>(stage)];
    }

  private:
    /** Cycles run() steps between two reads of the wall clock: a
     *  read every few thousand cycles costs under 0.1% and bounds the
     *  overshoot past a deadline to well under a millisecond. */
    static constexpr Cycle kDeadlineCheckCycles = 4096;

    /** Does the attached sink want events of @p kind? False when
     *  no sink is attached. */
    bool
    traces(TraceEventKind kind) const
    {
        return traceKinds & traceKindBit(kind);
    }

    /** Emit the stall spans still open on the trace sink; run()
     *  calls it once when it stops stepping. */
    void finishTrace();

    void commitStage();
    /** Throw the fault of @p entry, a load or store that commits at a
     *  misaligned or out-of-range address. */
    [[noreturn]] void commitFault(const SuEntry &entry) const;
    void writebackStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    /** Try to issue one entry; true on success. */
    bool tryIssue(SuEntry &entry);

    /** Effective address of a load/store entry: the recorded replay
     *  address for this PC when one is attached, else computed from
     *  the base operand. */
    Addr effectiveAddress(const SuEntry &entry) const;

    /** Execute the architectural work of @p entry at issue time. */
    void executeEntry(SuEntry &entry);

    /** Handle a resolved mispredicted control transfer. */
    void handleMispredict(SuEntry &entry);

    /** Rename one source operand during dispatch into @p operand
     *  (a default, ready operand on entry). */
    void renameOperand(ThreadId tid, RegIndex reg, Operand &operand);

    /** End of step(): charge every thread's cycle to exactly one
     *  StallReason and maintain the trace span/counter state. */
    void attributeCycle();

    /** Emit the open stall span of @p tid ending (exclusive) at
     *  @p end_excl, if it is non-Active and non-empty. Requires a
     *  sink that wants Stall events. */
    void flushStallSpan(ThreadId tid, Cycle end_excl);

    MachineConfig cfg;
    /** The program and its decoded text, possibly shared with other
     *  processors. Immutable for the run. */
    std::shared_ptr<const DecodedProgram> prog;

    MainMemory mem;
    DataCache cache;
    /** Finite instruction cache (only when !cfg.perfectICache). */
    std::unique_ptr<DataCache> icache;
    StoreBuffer sb;
    PredictorBank btb;
    RegisterFile regs;
    SchedulingUnit su;
    FuPool fus;
    FetchUnit fetch;

    /** The fetch latch: storage is reused cycle to cycle so the
     *  steady-state loop allocates nothing. */
    FetchedBlock fetchLatch;
    bool fetchLatchFull = false;
    /** Why the latched block has failed to dispatch so far; stamped
     *  onto its entries at dispatch (critical-path evidence). */
    DispatchWaitCause latchWaitCause = DispatchWaitCause::None;
    Tag nextSeq = 1;
    Cycle now = 0;

    /** Event consumer; nullptr = tracing off (the zero-cost case). */
    TraceSink *sink = nullptr;
    /** sink->kinds(), read at attach time; 0 when no sink. */
    TraceKindMask traceKinds = 0;
    /** Per-PC address overrides; nullptr = computed addressing. */
    const ReplayAddressSource *replayAddrs = nullptr;

    // ---- Statistics ----
    std::uint64_t statCommitted = 0;
    std::vector<std::uint64_t> statCommittedPerThread;
    std::uint64_t statDispatched = 0;
    std::uint64_t statIssued = 0;
    std::uint64_t statSquashed = 0;
    std::uint64_t statSuFullStalls = 0;
    std::uint64_t statScoreboardStalls = 0;
    std::uint64_t statCommitBlockedCycles = 0;
    std::uint64_t statFlexCommits = 0;
    std::uint64_t statLoadDisambStalls = 0;
    std::uint64_t statCacheBlockedLoads = 0;
    std::uint64_t statLatchFullCycles = 0;
    std::uint64_t statMispredicts = 0;

    std::uint64_t statOccupancySum = 0;
    /** statIssueHistogram[k] = cycles in which k instructions
     *  issued. */
    std::vector<std::uint64_t> statIssueHistogram;

    // ---- Observability: stall attribution + latency histograms ----
    /** statStallCycles[tid][reason]: cycles charged. Every row sums
     *  to `now` — the attribution invariant. */
    std::vector<std::array<std::uint64_t, kNumStallReasons>>
        statStallCycles;
    /** Per-thread evidence bits gathered during the current cycle
     *  (kFlag* constants in processor.cc); reset every step(). */
    std::vector<std::uint8_t> cycleFlags;
    /** Outstanding load-miss window: cycles before this are charged
     *  to CacheMiss absent stronger evidence. */
    std::vector<Cycle> missPendingUntil;
    /** Open stall-span state (used only while Stall events are
     *  traced). */
    std::vector<StallReason> spanReason;
    std::vector<Cycle> spanStart;
    /** Last su_occupancy counter value emitted to the sink. */
    unsigned lastTracedOccupancy = ~0u;

    /** Committed-instruction per-stage latencies, indexed by
     *  LatencyStage. */
    std::array<Distribution, kNumLatencyStages> latencyDists;

    /** Scratch buffer reused by the writeback stage. */
    std::vector<FuCompletion> completions;
};

} // namespace sdsp

#endif // SDSP_CORE_PROCESSOR_HH
