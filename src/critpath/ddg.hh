/**
 * @file
 * Dynamic dependence-graph (DDG) critical-path analysis.
 *
 * The engine answers "why did this run take exactly N cycles, and
 * what would it have taken under a different machine?" from one
 * recorded baseline run, without re-simulating:
 *
 *  1. DdgRecorder is a TraceSink that keeps, from the processor's
 *     CommitInst/CommitBlock events, what the graph build reads: 64
 *     bytes per committed instruction and the stamps of each block.
 *  2. The DdgGraph constructor turns the trace into a DAG: per
 *     committed block a Fetch, Dispatch and Commit node, per
 *     committed instruction an Issue and Complete node, plus virtual
 *     Start/End nodes. Edges are the machine's dependence and
 *     resource constraints (register RAW, fetch rotation and latch
 *     occupancy, SU-capacity back-pressure, issue bandwidth, memory
 *     disambiguation, FU and miss latency, commit serialization,
 *     branch-squash recovery, store-buffer drain), each weighted with
 *     its latency. The build sorts one 8-byte key per node (cycle,
 *     then stage rank and age) into the topological order, finds each
 *     block's and each load's same-thread predecessors in one
 *     pre-pass, then visits the nodes in that order and appends each
 *     node's in-edges straight into the CSR.
 *  3. relax() computes every node's earliest time by one times-only
 *     pass in a fixed topological order and returns the projection:
 *     End's time, its trust class and the capacity edges it skipped.
 *     criticalPath() runs the same pass, then walks the critical
 *     path back from End, re-deriving each visited node's binding
 *     edge from its in-edges to build the per-class breakdown. Both
 *     read the graph as relaxation needs it: per edge its source and
 *     one 32-bit word of weight and (edge class, FU class) code, per
 *     node a capacity word holding its dispatch or issue rank. Under
 *     baseline parameters the times reproduce every observed
 *     timestamp EXACTLY — guaranteed by construction: every edge
 *     satisfies t(src) + w <= t(dst) (soundness, asserted during the
 *     build), and every node keeps at least one tight edge (a
 *     classified residual is added where the structural edges fall
 *     short). The longest path therefore equals the measured cycle
 *     count, the critpath analogue of the stall-attribution
 *     invariant.
 *  4. A WhatIf overrides edge weights and capacities (issue width,
 *     SU depth, FU latencies, perfect D-cache, infinite store
 *     buffer, bypassing) and re-relaxes the same graph in well under
 *     a millisecond per 100K edges, projecting the run's cycle count
 *     on a machine that was never simulated. Each call resolves the
 *     WhatIf once into capacities and a 256-entry addend table
 *     indexed by the edge word's code, so every edge's weight is its
 *     word's weight plus one table lookup. The pass and the walk test
 *     the D-cache mode once each: only under a perfect D-cache do
 *     they read the edges' miss cycles, to subtract them. A caller
 *     that reads only the projected cycles calls relax() and skips
 *     the walk, about a third of criticalPath()'s time.
 *
 * See DESIGN.md §10 for the node/edge taxonomy and the soundness
 * argument per edge class.
 */

#ifndef SDSP_CRITPATH_DDG_HH
#define SDSP_CRITPATH_DDG_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
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

/**
 * One committed instruction: the fields the graph build reads, and no
 * more, so a recording streams at one cache line per instruction. The
 * stamps the instruction shares with its block (fetch, dispatch, the
 * dispatch-wait cause) and the thread live on DdgBlock.
 */
struct DdgInst
{
    Tag seq = 0;
    Cycle issuedAt = 0;
    Cycle completedAt = 0;
    /** Producers in flight at rename time (0 = operand ready). */
    std::array<Tag, 2> waitSeq{};
    Cycle missExtra = 0;
    /** Last cycle an issue attempt failed, and why. */
    Cycle issueBlockCycle = 0;
    IssueBlockCause issueBlockCause = IssueBlockCause::None;
    FuClass fuClass = FuClass::IntAlu;
    bool mispredicted = false;
    bool isLoad = false;
    bool isStore = false;
};

static_assert(sizeof(DdgInst) <= 64,
              "a recorded instruction spans one cache line");

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
    /** The open block's stamps, read off its first instruction. */
    Cycle pendingFetchedAt_ = 0;
    Cycle pendingDispatchedAt_ = 0;
    DispatchWaitCause pendingWaitCause_ = DispatchWaitCause::None;
};

// --------------------------------------------------------------------
// What-if parameters
// --------------------------------------------------------------------

/**
 * The machine quantities a WhatIf sets, resolved against a base
 * machine: each is the what-if's value where it sets one and the base
 * machine's where it does not. WhatIf::appliedTo() is the one reader
 * of a what-if's fields against a machine; the projection, the trust
 * class, the cost model and the machine a re-simulation runs
 * (applyWhatIf) all read its result.
 */
struct AppliedWhatIf
{
    unsigned issueWidth = 0;
    /** Whole blocks, at least one: the SU holds blocks. */
    unsigned suEntries = 0;
    unsigned suBlocks = 0;
    bool bypassing = false;
    std::array<unsigned, kNumFuClasses> fuLatency{};
    /** 4096 for an infinite store buffer. */
    unsigned storeBufferEntries = 0;
    /** 0 for a perfect D-cache: free refills, ports still contend. */
    std::uint32_t missPenalty = 0;
    /** The idealizations stay flags too: the projection drops their
     *  residual edges and the cost model prices them flat. */
    bool perfectDCache = false;
    bool infiniteStoreBuffer = false;

    bool operator==(const AppliedWhatIf &) const = default;
};

/**
 * Machine changes to project. An unset field keeps the base machine's
 * value. Capacity increases (wider issue, deeper SU, larger store
 * buffer, perfect cache, faster FUs) yield sound projections: the
 * projected cycle count never exceeds the measured one and models
 * every recorded constraint that remains. Capacity DECREASES re-use
 * the baseline event order, drop every dynamic constraint whose
 * rewired source is not topologically earlier, and can come out far
 * below reality — every projection carries a Confidence tag making
 * the distinction explicit. See DESIGN.md §10.
 */
struct WhatIf
{
    std::optional<unsigned> issueWidth;
    /** Rounded down to whole blocks (see AppliedWhatIf). */
    std::optional<unsigned> suEntries;
    bool perfectDCache = false;
    bool infiniteStoreBuffer = false;
    std::optional<bool> bypassing;
    /** Per-FU-class latency override, at least one cycle. */
    std::array<std::optional<unsigned>, kNumFuClasses> fuLatency{};

    /** This what-if's machine quantities on @p base. */
    AppliedWhatIf appliedTo(const MachineConfig &base) const;

    /** True when the what-if applies to the same machine as
     *  @p config: its quantities are the config's own. */
    bool isBaseline(const MachineConfig &config) const;

    /** "issueWidth=16,perfectDCache=1" (stable key order). */
    std::string describe(const MachineConfig &config) const;

    /**
     * Set @p key to @p value: issueWidth or suEntries (1 to the
     * largest unsigned), perfectDCache, infiniteStoreBuffer or
     * bypassing (0 is off, anything else on), or fuLat.<class> (1 to
     * the largest int; e.g. fuLat.Load). @return false (with *error
     * set) on an unknown key or a value out of range.
     */
    bool set(const std::string &key, std::uint64_t value,
             std::string *error);

    /**
     * Apply one "KEY=VAL" clause (CLI `--what-if`): VAL is read as
     * parseNumber reads every tool's numbers (decimal, 0x-hex or
     * 0-octal, no sign), then set(). @return false (with *error set)
     * on a malformed clause, unknown key or bad value.
     */
    bool applyKeyValue(const std::string &clause, std::string *error);

    /** applyKeyValue() on each clause of "KEY=VAL[,KEY=VAL...]",
     *  stopping at the first that fails. */
    bool applyKeyValues(const std::string &clauses, std::string *error);

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

/** The MachineConfig @p what_if describes for a REAL re-simulation:
 *  @p base with the quantities of what_if.appliedTo(base). */
MachineConfig applyWhatIf(const WhatIf &what_if,
                          const MachineConfig &base);

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

/** One relaxation's projection (relax()). */
struct RelaxResult
{
    /** Longest-path length == projected run cycles. Equals the
     *  measured cycle count exactly under baseline parameters. */
    Cycle cycles = 0;
    /** Trust class of this projection (see Confidence). */
    Confidence confidence = Confidence::Exact;
    /** Dynamic capacity constraints skipped because a capacity
     *  decrease rewired them to a non-earlier source — the evidence
     *  behind a PessimisticBound tag. */
    std::uint64_t skippedCapacityEdges = 0;
};

/** A projection and the critical path behind it (criticalPath()). */
struct CriticalPath : RelaxResult
{
    /** Critical-path cycles by edge class; sums to `cycles`. */
    std::array<Cycle, kNumEdgeClasses> breakdown{};
    /** Critical-path edge count by class. */
    std::array<std::uint64_t, kNumEdgeClasses> edgeCounts{};
};

/**
 * The built graph. Nodes are stored in the fixed topological order
 * (observed time, stage rank, age); edges in a CSR indexed by
 * destination, as the arrays relax() reads: each edge's source and
 * one 32-bit word of weight and (edge class, FU class) code, 8 bytes
 * in all, with its miss cycles in a third array read only under a
 * perfect D-cache. SU-capacity and issue-bandwidth edges are not
 * stored: a capacity word per node holds its dispatch or issue rank,
 * from which every relaxation recomputes them under the projected
 * capacities, so a WhatIf can rewire them.
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

    /** One stored edge, unpacked (see edge()). */
    struct Edge
    {
        std::uint32_t src = 0; //!< topological index of the source
        EdgeClass cls = EdgeClass::Source;
        FuClass fuClass = FuClass::IntAlu; //!< Execute/CacheMiss/Writeback
        /** Fixed weight; the residual part for Writeback edges; 0 for
         *  Raw, Execute and CacheMiss, whose cycles come from the
         *  what-if (see Resolved). */
        std::uint32_t weight = 0;
        /** Recorded miss cycles (Execute/CacheMiss/Writeback). */
        std::uint32_t missExtra = 0;
    };

    /** An edge's stored weight plus its miss cycles must stay below
     *  this; the build throws std::length_error for one that does
     *  not. */
    static constexpr std::uint64_t kWeightLimit = 1ull << 24;

    /**
     * Build the graph from @p trace recorded on @p config.
     * @p measured_cycles is the run's cycle count (Processor::cycle()
     * at the end); the End node sits there. Asserts edge soundness:
     * every edge must satisfy t(src) + w <= t(dst) against the
     * observed times.
     */
    DdgGraph(const DdgTrace &trace, const MachineConfig &config,
             Cycle measured_cycles);

    /**
     * Project the run under @p what_if (pass a default WhatIf for
     * the baseline, which reproduces the measured cycles): one
     * forward pass over the graph, and no critical-path walk.
     */
    RelaxResult relax(const WhatIf &what_if) const;

    /**
     * relax(), then walk the critical path back from End to charge
     * each binding edge to its class. The walk asserts that it
     * re-derives every visited node's time. Its projection fields
     * equal relax()'s.
     */
    CriticalPath criticalPath(const WhatIf &what_if) const;

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
    std::size_t edgeCount() const { return edgeCount_; }
    const MachineConfig &config() const { return cfg_; }
    const std::vector<Node> &nodes() const { return nodes_; }
    /** CSR offsets: node p's in-edges are edge(e) for e in
     *  [edgeStart()[p], edgeStart()[p + 1]). */
    const std::vector<std::uint32_t> &edgeStart() const
    {
        return edgeStart_;
    }
    /** Stored edge @p e (e < edgeCount()). */
    Edge edge(std::size_t e) const;

  private:
    /** Low bits of an edge word: the code
     *  `cls * kNumFuClasses + fuClass`; the weight sits above. */
    static constexpr unsigned kCodeBits = 8;
    static constexpr unsigned kNumCodes = 1u << kCodeBits;
    static_assert(kNumEdgeClasses * kNumFuClasses <= kNumCodes,
                  "every (edge class, FU class) code fits the word");
    static_assert(kWeightLimit << kCodeBits == 1ull << 32,
                  "the weight fills the word above the code");

    /** Kinds of capacity word, in its top bits above the rank: a
     *  Dispatch node's dispatch rank backs its SU-capacity edge, an
     *  Issue node's issue rank its issue-bandwidth edge. */
    enum CapacityKind : std::uint32_t
    {
        kNoCapacity,
        kSuCapacity,
        kIssueCapacity,
        kNumCapacityKinds,
    };
    static constexpr unsigned kCapacityKindShift = 30;
    static constexpr std::uint32_t kRankMask =
        (std::uint32_t{1} << kCapacityKindShift) - 1;

    /**
     * A WhatIf resolved against the recording's config once per call.
     * Every stored edge's projected weight is its word's weight plus
     * `addend[code]`, less its miss cycles under a perfect D-cache:
     * the addend carries the FU latency (Execute, CacheMiss,
     * Writeback), the bypass cycle (Raw, whose stored weight is 0),
     * and kDropped for a residual class the what-if voids; every
     * other entry is 0.
     */
    struct Resolved
    {
        /** A node of capacity kind k and rank n >= capacity[k].cap
         *  has the edge capacity[k].order[n - cap] -> node. */
        struct Capacity
        {
            /** SU capacity in blocks, issue width, or never. */
            std::uint32_t cap = ~std::uint32_t{0};
            /** Baseline commit or issue order (topological
             *  indices). */
            const std::uint32_t *order = nullptr;
            std::int64_t weight = 0;
            EdgeClass cls = EdgeClass::Source;
        };
        std::array<Capacity, kNumCapacityKinds> capacity{};
        bool perfectDCache = false;
        std::array<std::int64_t, kNumCodes> addend{};
    };

    /** A dropped edge's addend: its candidate stays far below 0, so
     *  it never binds a node (times are signed and start at 0). */
    static constexpr std::int64_t kDropped = INT64_MIN / 2;

    /** @p what_if resolved against this recording's config. */
    Resolved resolve(const WhatIf &what_if) const;

    /** Projected weight under @p r of stored edge @p e of the
     *  @p word and @p miss arrays. Only a perfect D-cache reads the
     *  miss cycles. */
    template <bool kPerfectDCache>
    static std::int64_t storedWeight(const std::uint32_t *word,
                                     const std::uint32_t *miss,
                                     std::uint32_t e, const Resolved &r);

    /** The SU-capacity (Dispatch) or issue-bandwidth (Issue) edge into
     *  node @p p under @p r, rewired from the baseline orderings: sets
     *  @p src and returns its kind, or nullptr when @p p has none. */
    const Resolved::Capacity *capacityEdge(std::uint32_t p,
                                           const Resolved &r,
                                           std::uint32_t &src) const;

    /**
     * The times-only longest-path pass shared by relax(),
     * criticalPath() and verifyExact(): writes every node's time to
     * @p time (nodeCount() entries) in topological order. @return the
     * dynamic capacity constraints skipped because a capacity
     * decrease rewired them to a non-earlier source.
     */
    std::uint64_t relaxTimes(const Resolved &r,
                             std::int64_t *time) const;

    /** relaxTimes() under @p r, @p what_if resolved, into @p time,
     *  and the projection it makes. */
    RelaxResult project(const WhatIf &what_if, const Resolved &r,
                        std::int64_t *time) const;

    /** Walk the critical path back from End over the relaxed
     *  @p time, charging each binding edge to @p path. */
    void walkCriticalPath(const Resolved &r, const std::int64_t *time,
                          CriticalPath &path) const;

    MachineConfig cfg_;
    Cycle measured_ = 0;

    /** Topological source of each stored edge. */
    const std::uint32_t *edgeSrc() const { return edges_.get(); }
    /** (stored weight + miss cycles) << kCodeBits | code. */
    const std::uint32_t *edgeWord() const
    {
        return edges_.get() + edgeCapacity_;
    }
    /** Recorded miss cycles of each stored edge. */
    const std::uint32_t *edgeMiss() const
    {
        return edges_.get() + 2 * edgeCapacity_;
    }

    std::vector<Node> nodes_;           //!< topological order
    std::vector<std::uint32_t> edgeStart_; //!< CSR offsets by dst
    /**
     * The stored edges: source, word and miss arrays of edgeCapacity_
     * entries each, the first edgeCount_ in use. One allocation: as
     * three, they took 60% more page faults to build than the 16-byte
     * edge array before them (DESIGN.md §10).
     */
    std::unique_ptr<std::uint32_t[]> edges_;
    std::size_t edgeCapacity_ = 0;
    std::size_t edgeCount_ = 0;
    /** Per node: CapacityKind << kCapacityKindShift | rank. */
    std::vector<std::uint32_t> capacity_;

    // Rewireable capacity/bandwidth support: baseline orderings.
    /** commit rank -> topo index of that block's Commit node. */
    std::vector<std::uint32_t> commitOrder_;
    /** issue rank -> topo index of that instruction's Issue node. */
    std::vector<std::uint32_t> issueOrder_;
};

/** A graph built from a recording and checked against it. */
struct CheckedGraph
{
    std::unique_ptr<DdgGraph> graph;
    /** verifyExact()'s first mismatch; empty when the graph is
     *  exact. */
    std::string mismatch;
};

/**
 * Build the graph of @p recorder's finished run on @p config, which
 * took @p measured_cycles, and check it exact. The one build of a
 * recording: recorded sweep jobs, sdsp-run --critpath and the fuzzer's
 * differential check all call it.
 */
CheckedGraph buildCheckedGraph(const DdgRecorder &recorder,
                               const MachineConfig &config,
                               Cycle measured_cycles);

} // namespace sdsp

#endif // SDSP_CRITPATH_DDG_HH
