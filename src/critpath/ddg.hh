/**
 * @file
 * Dynamic dependence-graph (DDG) critical-path analysis.
 *
 * The engine answers "why did this run take exactly N cycles, and
 * what would it have taken under a different machine?" from one
 * recorded baseline run, without re-simulating:
 *
 *  1. DdgRecorder is a TraceSink that captures the per-instruction
 *     lifecycle and dependence evidence the processor publishes on
 *     CommitInst/CommitBlock events into a compact DdgTrace.
 *  2. DdgBuilder turns the trace into a DAG: per committed block a
 *     Fetch, Dispatch and Commit node, per committed instruction an
 *     Issue and Complete node, plus virtual Start/End nodes. Edges
 *     are the machine's dependence and resource constraints
 *     (register RAW, fetch rotation and latch occupancy, SU-capacity
 *     back-pressure, issue bandwidth, memory disambiguation, FU and
 *     miss latency, commit serialization, branch-squash recovery,
 *     store-buffer drain), each weighted with its latency.
 *  3. relax() computes every node's earliest time by one pass in a
 *     fixed topological order. Under baseline parameters the result
 *     reproduces every observed timestamp EXACTLY — guaranteed by
 *     construction: every edge satisfies t(src) + w <= t(dst)
 *     (soundness, asserted during the build), and every node keeps
 *     at least one tight edge (a classified residual is added where
 *     the structural edges fall short). The longest path therefore
 *     equals the measured cycle count, the critpath analogue of the
 *     stall-attribution invariant.
 *  4. A WhatIf overrides edge weights and capacities (issue width,
 *     SU depth, FU latencies, perfect D-cache, infinite store
 *     buffer, bypassing) and re-relaxes the same graph in
 *     milliseconds, projecting the run's cycle count on a machine
 *     that was never simulated.
 *
 * See DESIGN.md §10 for the node/edge taxonomy and the soundness
 * argument per edge class.
 */

#ifndef SDSP_CRITPATH_DDG_HH
#define SDSP_CRITPATH_DDG_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats_registry.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "isa/opcode.hh"

namespace sdsp
{

// --------------------------------------------------------------------
// Recorded trace
// --------------------------------------------------------------------

/** One committed instruction's lifecycle + dependence evidence. */
struct DdgInst
{
    Tag seq = 0;
    ThreadId tid = 0;
    InstAddr pc = 0;
    Cycle fetchedAt = 0;
    Cycle dispatchedAt = 0;
    Cycle readyAt = 0;
    Cycle issuedAt = 0;
    Cycle completedAt = 0;
    Cycle committedAt = 0;
    /** Producer whose broadcast completed the operands (0 none). */
    Tag wakeupSeq = 0;
    /** Producers in flight at rename time (0 = operand ready). */
    std::array<Tag, 2> waitSeq{};
    Cycle missExtra = 0;
    IssueBlockCause issueBlockCause = IssueBlockCause::None;
    Cycle issueBlockCycle = 0;
    DispatchWaitCause dispatchWaitCause = DispatchWaitCause::None;
    bool mispredicted = false;
    bool isLoad = false;
    bool isStore = false;
    FuClass fuClass = FuClass::IntAlu;
    /** Index of the owning block in DdgTrace::blocks. */
    std::uint32_t block = 0;
};

/** One committed block (the fetch/dispatch/commit granule). */
struct DdgBlock
{
    ThreadId tid = 0;
    Tag blockSeq = 0;
    Cycle fetchedAt = 0;
    Cycle dispatchedAt = 0;
    Cycle committedAt = 0;
    DispatchWaitCause dispatchWaitCause = DispatchWaitCause::None;
    /** Contiguous [firstInst, firstInst + instCount) in
     *  DdgTrace::insts. */
    std::uint32_t firstInst = 0;
    std::uint32_t instCount = 0;
};

/** The per-run recording the graph is built from. Instructions and
 *  blocks appear in commit order. */
struct DdgTrace
{
    std::vector<DdgInst> insts;
    std::vector<DdgBlock> blocks;

    std::uint64_t committed() const { return insts.size(); }
};

/**
 * TraceSink that builds a DdgTrace from the processor's event
 * stream. Attach (alone or in a TeeTraceSink), run, then move the
 * trace out.
 */
class DdgRecorder final : public TraceSink
{
  public:
    void emit(const TraceEvent &event) override;

    TraceKindMask
    kinds() const override
    {
        return traceKindBit(TraceEventKind::CommitInst) |
               traceKindBit(TraceEventKind::CommitBlock);
    }

    /** The recording so far (blocks close on CommitBlock). */
    const DdgTrace &trace() const { return trace_; }
    DdgTrace takeTrace() { return std::move(trace_); }

  private:
    DdgTrace trace_;
    /** insts recorded since the last CommitBlock (the open block). */
    std::uint32_t pendingFirst_ = 0;
};

// --------------------------------------------------------------------
// What-if parameters
// --------------------------------------------------------------------

/**
 * Machine changes to project. Zero / negative fields mean "keep the
 * baseline value". Capacity increases (wider issue, deeper SU,
 * larger store buffer, perfect cache, faster FUs) yield sound
 * projections: the projected cycle count never exceeds the measured
 * one and models every recorded constraint that remains. Capacity
 * DECREASES re-use the baseline event order, drop every dynamic
 * constraint whose rewired source is not topologically earlier, and
 * can come out far below reality — every RelaxResult carries a
 * Confidence tag making the distinction explicit. See DESIGN.md §10.
 */
struct WhatIf
{
    unsigned issueWidth = 0;  //!< 0 = baseline
    unsigned suEntries = 0;   //!< 0 = baseline (rounded to blocks)
    bool perfectDCache = false;
    bool infiniteStoreBuffer = false;
    int bypassing = -1;       //!< -1 baseline, else 0/1
    /** Per-FU-class latency override; -1 = baseline. */
    std::array<int, kNumFuClasses> fuLatency{};

    WhatIf() { fuLatency.fill(-1); }

    bool isBaseline(const MachineConfig &config) const;

    /** "issueWidth=16,perfectDCache=1" (stable key order). */
    std::string describe(const MachineConfig &config) const;

    /**
     * Parse one "KEY=VAL" clause (CLI `--what-if`): issueWidth,
     * suEntries, perfectDCache, infiniteStoreBuffer, bypassing, or
     * fuLat.<class> (e.g. fuLat.load=1). @return false (with
     * *error set) on an unknown key or bad value.
     */
    bool applyKeyValue(const std::string &clause, std::string *error);

    /**
     * True when every change only REMOVES constraints that the
     * relaxation models structurally (wider issue, deeper SU,
     * infinite store buffer) relative to @p config. For such
     * projections `projected <= re-simulated` is sound: dropping
     * edges can only shorten the longest path. Latency, bypassing
     * and cache changes re-weight recorded edges instead — they are
     * near-exact in practice but not one-sided, so they fail this
     * predicate. A baseline WhatIf trivially passes.
     */
    bool isPureCapacityIncrease(const MachineConfig &config) const;
};

/**
 * Trust class of a projection. Ordered from strongest to weakest so
 * the worst class across a set is the numeric maximum.
 */
enum class Confidence : std::uint8_t
{
    /** Baseline parameters: equals the measured cycle count. */
    Exact,
    /** Constraints were only relaxed or re-weighted; for pure
     *  capacity increases projected <= real holds, and spot checks
     *  put latency re-weightings within a few percent. */
    OptimisticBound,
    /** A capacity DECREASE (suEntries / issueWidth below baseline):
     *  dynamic edges whose rewired source is not topologically
     *  earlier are skipped, so the number is only a weak lower
     *  bound and can be far below reality. */
    PessimisticBound,
};

/** Stable kebab-case name ("exact" / "optimistic-bound" /
 *  "pessimistic-bound") for CLI output and JSON. */
const char *confidenceName(Confidence confidence);

/** Trust class @p what_if gets against a recording taken on
 *  @p config — the rule relax() stamps onto every RelaxResult. */
Confidence classifyWhatIf(const WhatIf &what_if,
                          const MachineConfig &config);

// --------------------------------------------------------------------
// Graph
// --------------------------------------------------------------------

/** Node kinds (stage events). */
enum class DdgNodeKind : std::uint8_t
{
    Start,    //!< virtual source, time 0
    Fetch,    //!< block entered the fetch latch
    Dispatch, //!< block entered the scheduling unit
    Issue,    //!< instruction left for its functional unit
    Complete, //!< result wrote back
    Commit,   //!< block retired
    End,      //!< virtual sink, time == measured cycles
};

/** Dependence/resource edge classes (stats + JSON keys). */
enum class EdgeClass : std::uint8_t
{
    Source,          //!< Start -> first event of a chain
    FetchChain,      //!< same-thread fetch-rotation spacing
    FetchLatch,      //!< predecessor's dispatch freed the latch
    BranchRecovery,  //!< refetch after a resolved mispredict
    FetchStall,      //!< residual: lost rotations, parked fetch
    DispatchPipe,    //!< fetch -> dispatch unit latency
    SuCapacity,      //!< commit of the displacing block (SU full)
    Scoreboard,      //!< residual: 1-bit scoreboard WAW wait
    DispatchStall,   //!< residual on dispatch, no recorded cause
    IssuePipe,       //!< dispatch -> earliest issue
    Raw,             //!< register read-after-write
    MemOrder,        //!< load after older same-thread store issue
    IssueBandwidth,  //!< issue-width serialization
    FuBusy,          //!< residual: no free functional unit
    StoreBufferFull, //!< residual: store-buffer back-pressure
    CachePort,       //!< residual: D-cache port rejection
    IssueStall,      //!< residual on issue, no recorded cause
    Execute,         //!< FU latency (hit / non-memory)
    CacheMiss,       //!< FU latency + recorded miss cycles
    Writeback,       //!< residual: writeback-port contention
    CommitComplete,  //!< last writeback -> block commit
    CommitQueue,     //!< one block commits per cycle
    CommitBlocked,   //!< residual: flexible-commit window wait
    DrainTail,       //!< last commit -> machine fully drained
};

/** Number of EdgeClass values (breakdown table width). */
inline constexpr unsigned kNumEdgeClasses = 24;

/** Stable camelCase name of @p cls (stats / JSON key). */
const char *edgeClassName(EdgeClass cls);

/** Result of one relaxation. */
struct RelaxResult
{
    /** Longest-path length == projected run cycles. Equals the
     *  measured cycle count exactly under baseline parameters. */
    Cycle cycles = 0;
    /** Critical-path cycles by edge class; sums to `cycles`. */
    std::array<Cycle, kNumEdgeClasses> breakdown{};
    /** Critical-path edge count by class. */
    std::array<std::uint64_t, kNumEdgeClasses> edgeCounts{};
    /** Trust class of this projection (see Confidence). */
    Confidence confidence = Confidence::Exact;
    /** Dynamic capacity constraints skipped because a capacity
     *  decrease rewired them to a non-earlier source — the evidence
     *  behind a PessimisticBound tag. */
    std::uint64_t skippedCapacityEdges = 0;
};

/**
 * The built graph. Nodes are stored in the fixed topological order
 * (observed time, stage rank, age); edges in a CSR indexed by
 * destination. SU-capacity and issue-bandwidth edges are not stored:
 * they are recomputed from the capacity parameters during every
 * relaxation so a WhatIf can rewire them.
 */
class DdgGraph
{
  public:
    struct Node
    {
        DdgNodeKind kind = DdgNodeKind::Start;
        /** Block index (Fetch/Dispatch/Commit) or instruction index
         *  (Issue/Complete) in the trace. */
        std::uint32_t owner = 0;
        /** Observed event time in the baseline run. */
        Cycle observed = 0;
    };

    struct Edge
    {
        std::uint32_t src = 0; //!< topological index of the source
        EdgeClass cls = EdgeClass::Source;
        FuClass fuClass = FuClass::IntAlu; //!< Execute/CacheMiss/Writeback
        /** Fixed weight, or the residual part for Writeback edges. */
        std::uint32_t weight = 0;
        /** Recorded miss cycles (Execute/CacheMiss/Writeback). */
        std::uint32_t missExtra = 0;
    };

    /**
     * Build the graph from @p trace recorded on @p config.
     * @p measured_cycles is the run's cycle count (Processor::cycle()
     * at the end); the End node sits there. Asserts edge soundness:
     * every edge must satisfy t(src) + w <= t(dst) against the
     * observed times.
     */
    DdgGraph(const DdgTrace &trace, const MachineConfig &config,
             Cycle measured_cycles);

    /** Project the run under @p what_if (pass a default WhatIf for
     *  the baseline, which reproduces the measured cycles). */
    RelaxResult relax(const WhatIf &what_if) const;

    /** Trust class @p what_if would get against this recording's
     *  baseline config (same rule relax() applies). */
    Confidence classify(const WhatIf &what_if) const;

    /**
     * Baseline self-check: relax with baseline parameters and
     * compare EVERY node's computed time against its observed time.
     * @return empty string if exact, else a description of the first
     * mismatching node (test/CI diagnostic).
     */
    std::string verifyExact() const;

    /** Per-class slack histograms of the stored (non-capacity)
     *  edges at baseline: slack = t(dst) - t(src) - w. */
    void slackHistograms(
        std::array<Distribution, kNumEdgeClasses> &out) const;

    Cycle measuredCycles() const { return measured_; }
    std::size_t nodeCount() const { return nodes_.size(); }
    std::size_t edgeCount() const { return edges_.size(); }
    const MachineConfig &config() const { return cfg_; }
    const std::vector<Node> &nodes() const { return nodes_; }

  private:
    struct BestEdge
    {
        std::uint32_t src = 0;
        EdgeClass cls = EdgeClass::Source;
        Cycle weight = 0;
        bool fromStart = true;
    };

    /** Weight of @p edge under @p what_if-resolved parameters. */
    Cycle edgeWeight(const Edge &edge, const unsigned *fu_latency,
                     bool perfect_dcache, bool bypassing) const;

    /** Shared body of relax()/verifyExact(): fills @p time (and
     *  optionally @p best) for every node; counts dynamic capacity
     *  constraints skipped by a capacity decrease into @p skipped. */
    void relaxInto(const WhatIf &what_if, std::vector<Cycle> &time,
                   std::vector<BestEdge> *best,
                   std::uint64_t *skipped = nullptr) const;

    MachineConfig cfg_;
    Cycle measured_ = 0;

    std::vector<Node> nodes_;           //!< topological order
    std::vector<std::uint32_t> edgeStart_; //!< CSR offsets by dst
    std::vector<Edge> edges_;

    // Rewireable capacity/bandwidth support: baseline orderings.
    /** commit rank -> topo index of that block's Commit node. */
    std::vector<std::uint32_t> commitOrder_;
    /** dispatch rank of each block (by Dispatch-node owner). */
    std::vector<std::uint32_t> dispatchRankOfBlock_;
    /** issue rank -> topo index of that instruction's Issue node. */
    std::vector<std::uint32_t> issueOrder_;
    /** issue rank of each instruction. */
    std::vector<std::uint32_t> issueRankOfInst_;
};

} // namespace sdsp

#endif // SDSP_CRITPATH_DDG_HH
