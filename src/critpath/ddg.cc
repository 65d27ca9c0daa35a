#include "critpath/ddg.hh"

#include <algorithm>
#include <charconv>
#include <limits>
#include <memory>

#include "common/logging.hh"

namespace sdsp
{

const char *
edgeClassName(EdgeClass cls)
{
    switch (cls) {
      case EdgeClass::Source: return "source";
      case EdgeClass::FetchChain: return "fetchChain";
      case EdgeClass::FetchLatch: return "fetchLatch";
      case EdgeClass::BranchRecovery: return "branchRecovery";
      case EdgeClass::FetchStall: return "fetchStall";
      case EdgeClass::DispatchPipe: return "dispatchPipe";
      case EdgeClass::SuCapacity: return "suCapacity";
      case EdgeClass::Scoreboard: return "scoreboard";
      case EdgeClass::DispatchStall: return "dispatchStall";
      case EdgeClass::IssuePipe: return "issuePipe";
      case EdgeClass::Raw: return "raw";
      case EdgeClass::MemOrder: return "memOrder";
      case EdgeClass::IssueBandwidth: return "issueBandwidth";
      case EdgeClass::FuBusy: return "fuBusy";
      case EdgeClass::StoreBufferFull: return "storeBufferFull";
      case EdgeClass::CachePort: return "cachePort";
      case EdgeClass::IssueStall: return "issueStall";
      case EdgeClass::Execute: return "execute";
      case EdgeClass::CacheMiss: return "cacheMiss";
      case EdgeClass::Writeback: return "writeback";
      case EdgeClass::CommitComplete: return "commitComplete";
      case EdgeClass::CommitQueue: return "commitQueue";
      case EdgeClass::CommitBlocked: return "commitBlocked";
      case EdgeClass::DrainTail: return "drainTail";
    }
    return "unknown";
}

const char *
confidenceName(Confidence confidence)
{
    switch (confidence) {
      case Confidence::Exact: return "exact";
      case Confidence::OptimisticBound: return "optimistic-bound";
      case Confidence::PessimisticBound: return "pessimistic-bound";
    }
    return "unknown";
}

// --------------------------------------------------------------------
// WhatIf
// --------------------------------------------------------------------

bool
WhatIf::isBaseline(const MachineConfig &config) const
{
    if (issueWidth && issueWidth != config.issueWidth)
        return false;
    if (suEntries && suEntries != config.suEntries)
        return false;
    if (perfectDCache || infiniteStoreBuffer)
        return false;
    if (bypassing >= 0 && (bypassing != 0) != config.bypassing)
        return false;
    for (unsigned c = 0; c < kNumFuClasses; ++c) {
        if (fuLatency[c] >= 0 &&
            static_cast<unsigned>(fuLatency[c]) !=
                config.fu.latency[c]) {
            return false;
        }
    }
    return true;
}

std::string
WhatIf::describe(const MachineConfig &config) const
{
    std::string out;
    auto append = [&](const std::string &clause) {
        if (!out.empty())
            out += ",";
        out += clause;
    };
    if (issueWidth)
        append(format("issueWidth=%u", issueWidth));
    if (suEntries)
        append(format("suEntries=%u", suEntries));
    if (perfectDCache)
        append("perfectDCache=1");
    if (infiniteStoreBuffer)
        append("infiniteStoreBuffer=1");
    if (bypassing >= 0)
        append(format("bypassing=%d", bypassing ? 1 : 0));
    for (unsigned c = 0; c < kNumFuClasses; ++c) {
        if (fuLatency[c] >= 0) {
            append(format("fuLat.%s=%d",
                          fuClassName(static_cast<FuClass>(c)),
                          fuLatency[c]));
        }
    }
    if (out.empty())
        out = "baseline";
    (void)config;
    return out;
}

bool
WhatIf::applyKeyValue(const std::string &clause, std::string *error)
{
    auto fail = [&](const std::string &message) {
        if (error)
            *error = message;
        return false;
    };

    std::size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= clause.size())
        return fail(format("expected KEY=VAL, got '%s'",
                           clause.c_str()));
    std::string key = clause.substr(0, eq);
    std::string val = clause.substr(eq + 1);

    long number = 0;
    auto parsed = std::from_chars(val.data(), val.data() + val.size(),
                                  number);
    if (parsed.ec != std::errc{} ||
        parsed.ptr != val.data() + val.size()) {
        return fail(format("'%s': value '%s' is not an integer",
                           key.c_str(), val.c_str()));
    }

    // Range checks come before the narrowing casts: a value that does
    // not fit the field is an error, not a silently rewritten one.
    constexpr long kMaxCount = std::numeric_limits<unsigned>::max();
    constexpr long kMaxLatency = std::numeric_limits<int>::max();
    if (key == "issueWidth") {
        if (number < 1 || number > kMaxCount)
            return fail(format("issueWidth must be between 1 and %ld",
                               kMaxCount));
        issueWidth = static_cast<unsigned>(number);
    } else if (key == "suEntries") {
        if (number < 1 || number > kMaxCount)
            return fail(format("suEntries must be between 1 and %ld",
                               kMaxCount));
        suEntries = static_cast<unsigned>(number);
    } else if (key == "perfectDCache") {
        perfectDCache = number != 0;
    } else if (key == "infiniteStoreBuffer") {
        infiniteStoreBuffer = number != 0;
    } else if (key == "bypassing") {
        bypassing = number != 0 ? 1 : 0;
    } else if (key.rfind("fuLat.", 0) == 0) {
        std::string cls = key.substr(6);
        for (unsigned c = 0; c < kNumFuClasses; ++c) {
            if (cls == fuClassName(static_cast<FuClass>(c))) {
                if (number < 0 || number > kMaxLatency)
                    return fail(format("fuLat must be between 0 and %ld",
                                       kMaxLatency));
                fuLatency[c] = static_cast<int>(number);
                return true;
            }
        }
        return fail(format("unknown FU class '%s'", cls.c_str()));
    } else {
        return fail(format(
            "unknown what-if key '%s' (expected issueWidth, "
            "suEntries, perfectDCache, infiniteStoreBuffer, "
            "bypassing, or fuLat.<class>)",
            key.c_str()));
    }
    return true;
}

bool
WhatIf::isPureCapacityIncrease(const MachineConfig &config) const
{
    if (perfectDCache)
        return false;
    if (bypassing >= 0 && (bypassing != 0) != config.bypassing)
        return false;
    for (unsigned c = 0; c < kNumFuClasses; ++c) {
        if (fuLatency[c] >= 0 &&
            static_cast<unsigned>(fuLatency[c]) !=
                config.fu.latency[c]) {
            return false;
        }
    }
    if (issueWidth && issueWidth < config.issueWidth)
        return false;
    if (suEntries &&
        std::max(1u, suEntries / config.blockSize) <
            config.suBlocks()) {
        return false;
    }
    return true;
}

// --------------------------------------------------------------------
// Graph construction
// --------------------------------------------------------------------

namespace
{

/** One node to place: its observed cycle and provisional slot. */
struct CycleSlot
{
    Cycle cycle;
    std::uint32_t slot;
};

/**
 * Stable LSD radix sort of @p items by cycle in 11-bit digits: linear
 * in the node count, with no bucket per cycle (runs may last up to
 * the 200M-cycle cap). The largest cycle sets the number of passes.
 */
void
sortByCycle(std::vector<CycleSlot> &items)
{
    constexpr unsigned kDigitBits = 11;
    constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
    Cycle max_cycle = 0;
    for (const CycleSlot &item : items)
        max_cycle = std::max(max_cycle, item.cycle);

    std::vector<CycleSlot> scratch(items.size());
    std::vector<std::size_t> start(kBuckets);
    for (unsigned shift = 0; shift < 64 && (max_cycle >> shift) != 0;
         shift += kDigitBits) {
        std::fill(start.begin(), start.end(), 0);
        for (const CycleSlot &item : items)
            ++start[(item.cycle >> shift) & (kBuckets - 1)];
        std::size_t sum = 0;
        for (std::size_t &count : start) {
            std::size_t here = count;
            count = sum;
            sum += here;
        }
        for (const CycleSlot &item : items)
            scratch[start[(item.cycle >> shift) & (kBuckets - 1)]++] = item;
        items.swap(scratch);
    }
}

/**
 * Dense tag -> index table over the tags of @p count entries. The
 * processor numbers every dispatched entry, squashed ones included,
 * so the table spans the run's dispatched tags: a small multiple of
 * the committed count.
 */
class TagIndex
{
  public:
    template <typename TagOf>
    TagIndex(std::uint32_t count, TagOf tag_of)
    {
        for (std::uint32_t i = 0; i < count; ++i) {
            min_ = std::min(min_, tag_of(i));
            max_ = std::max(max_, tag_of(i));
        }
        table_.assign(count ? max_ - min_ + 1 : 0, kNone);
        for (std::uint32_t i = 0; i < count; ++i) {
            std::uint32_t &cell = table_[tag_of(i) - min_];
            sdsp_assert(cell == kNone, "tag %llu recorded twice",
                        static_cast<unsigned long long>(tag_of(i)));
            cell = i;
        }
    }

    /** Index of the entry tagged @p tag, or -1 if none is. */
    std::int64_t
    find(Tag tag) const
    {
        if (tag < min_ || tag > max_ || table_[tag - min_] == kNone)
            return -1;
        return table_[tag - min_];
    }

    /** Every entry's index, in ascending tag order. */
    std::vector<std::uint32_t>
    inTagOrder() const
    {
        std::vector<std::uint32_t> order;
        for (std::uint32_t index : table_) {
            if (index != kNone)
                order.push_back(index);
        }
        return order;
    }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    Tag min_ = ~Tag{0};
    Tag max_ = 0;
    std::vector<std::uint32_t> table_;
};

} // namespace

DdgGraph::DdgGraph(const DdgTrace &trace, const MachineConfig &config,
                   Cycle measured_cycles)
    : cfg_(config), measured_(measured_cycles)
{
    const auto B = static_cast<std::uint32_t>(trace.blocks.size());
    const auto N = static_cast<std::uint32_t>(trace.insts.size());
    sdsp_assert(static_cast<std::uint64_t>(B) * 3 + 2 * N + 2 <
                    (1ull << 31),
                "DDG too large for 32-bit node indices");

    // Provisional slot numbering (pre-topological-sort):
    //   [0,B)      Fetch of block b
    //   [B,2B)     Dispatch of block b
    //   [2B,3B)    Commit of block b
    //   [3B,3B+N)  Issue of instruction i
    //   [3B+N,..)  Complete of instruction i
    // then Start and End.
    const std::uint32_t slotStart = 3 * B + 2 * N;
    const std::uint32_t slotEnd = slotStart + 1;
    const std::uint32_t numSlots = slotEnd + 1;
    auto fetchSlot = [&](std::uint32_t b) { return b; };
    auto dispSlot = [&](std::uint32_t b) { return B + b; };
    auto commitSlot = [&](std::uint32_t b) { return 2 * B + b; };
    auto issueSlot = [&](std::uint32_t i) { return 3 * B + i; };
    auto completeSlot = [&](std::uint32_t i) { return 3 * B + N + i; };

    std::vector<Node> slots(numSlots);
    for (std::uint32_t b = 0; b < B; ++b) {
        const DdgBlock &block = trace.blocks[b];
        slots[fetchSlot(b)] = {DdgNodeKind::Fetch, b, block.fetchedAt};
        slots[dispSlot(b)] = {DdgNodeKind::Dispatch, b,
                              block.dispatchedAt};
        slots[commitSlot(b)] = {DdgNodeKind::Commit, b,
                                block.committedAt};
    }
    for (std::uint32_t i = 0; i < N; ++i) {
        const DdgInst &inst = trace.insts[i];
        slots[issueSlot(i)] = {DdgNodeKind::Issue, i, inst.issuedAt};
        slots[completeSlot(i)] = {DdgNodeKind::Complete, i,
                                  inst.completedAt};
    }
    slots[slotStart] = {DdgNodeKind::Start, 0, 0};
    slots[slotEnd] = {DdgNodeKind::End, 0, measured_};

    // Age order: the processor numbers entries at dispatch, so block
    // and instruction tags order them by age. The instruction table
    // also resolves RAW producers (seq -> instruction index).
    const TagIndex instBySeq(N, [&](std::uint32_t i) {
        return trace.insts[i].seq;
    });
    const TagIndex blockBySeq(B, [&](std::uint32_t b) {
        return trace.blocks[b].blockSeq;
    });

    // The fixed topological order: observed time, then pipeline
    // stage rank within the cycle, then age. Both the baseline and
    // every what-if relaxation run in this order. The stage rank
    // follows the processor's stage order (commit runs first, fetch
    // last), so an edge with weight 0 between same-cycle events
    // always goes from a lower to a higher rank. The nodes are listed
    // by rank (Start, Commit, Complete, Issue, Dispatch, Fetch, End),
    // each rank in age order, then stably sorted on their cycle.
    //
    // Placing the nodes also reads off the baseline orderings backing
    // the rewireable capacity edges: one block fetches, dispatches and
    // commits per cycle, and same-cycle issues are in age order, so
    // filtering the order by node kind gives each stage's order.
    std::vector<std::uint32_t> pos(numSlots);
    nodes_.resize(numSlots);
    std::vector<std::uint32_t> byDispatch, byCommit, byFetch, byIssue;
    byDispatch.reserve(B);
    byCommit.reserve(B);
    byFetch.reserve(B);
    byIssue.reserve(N);
    {
        // Scoped so the sort's buffers are freed before the edge
        // arrays are allocated.
        std::vector<CycleSlot> order;
        order.reserve(numSlots);
        const std::vector<std::uint32_t> blocksByAge =
            blockBySeq.inTagOrder();
        const std::vector<std::uint32_t> instsByAge =
            instBySeq.inTagOrder();
        auto list = [&](const std::vector<std::uint32_t> &owners,
                        auto slot_of) {
            for (std::uint32_t owner : owners) {
                const std::uint32_t slot = slot_of(owner);
                order.push_back({slots[slot].observed, slot});
            }
        };
        order.push_back({0, slotStart});
        list(blocksByAge, commitSlot);
        list(instsByAge, completeSlot);
        list(instsByAge, issueSlot);
        list(blocksByAge, dispSlot);
        list(blocksByAge, fetchSlot);
        order.push_back({measured_, slotEnd});
        sortByCycle(order);

        for (std::uint32_t t = 0; t < numSlots; ++t) {
            const Node &node = slots[order[t].slot];
            pos[order[t].slot] = t;
            nodes_[t] = node;
            switch (node.kind) {
              case DdgNodeKind::Fetch:
                byFetch.push_back(node.owner);
                break;
              case DdgNodeKind::Dispatch:
                byDispatch.push_back(node.owner);
                break;
              case DdgNodeKind::Commit:
                byCommit.push_back(node.owner);
                break;
              case DdgNodeKind::Issue:
                byIssue.push_back(node.owner);
                break;
              default:
                break;
            }
        }
    }
    sdsp_assert(nodes_.front().kind == DdgNodeKind::Start &&
                    nodes_.back().kind == DdgNodeKind::End,
                "Start/End not at the ends of the topological order");
    for (std::uint32_t r = 1; r < B; ++r) {
        const DdgBlock &prev = trace.blocks[byFetch[r - 1]];
        const DdgBlock &cur = trace.blocks[byFetch[r]];
        sdsp_assert(prev.fetchedAt < cur.fetchedAt &&
                        trace.blocks[byDispatch[r - 1]].dispatchedAt <
                            trace.blocks[byDispatch[r]].dispatchedAt &&
                        trace.blocks[byCommit[r - 1]].committedAt <
                            trace.blocks[byCommit[r]].committedAt,
                    "two blocks share a fetch, dispatch or commit "
                    "cycle");
    }

    commitOrder_.resize(B);
    dispatchRankOfBlock_.resize(B);
    for (std::uint32_t r = 0; r < B; ++r) {
        commitOrder_[r] = pos[commitSlot(byCommit[r])];
        dispatchRankOfBlock_[byDispatch[r]] = r;
    }
    issueOrder_.resize(N);
    issueRankOfInst_.resize(N);
    for (std::uint32_t r = 0; r < N; ++r) {
        issueOrder_[r] = pos[issueSlot(byIssue[r])];
        issueRankOfInst_[byIssue[r]] = r;
    }

    // ---- Edge construction. Every edge is validated against the
    // observed times (soundness: t(src) + w <= t(dst)), and the best
    // incoming candidate per node is tracked so the residual pass
    // can make each node tight. ----
    struct Pending
    {
        std::uint32_t dst;
        Edge edge;
    };
    std::vector<Pending> pending;
    pending.reserve(static_cast<std::size_t>(8) * N + 8 * B + 4);

    constexpr Cycle kNoCandidate = ~Cycle{0};
    std::vector<Cycle> bestTime(numSlots, kNoCandidate);
    std::vector<std::uint32_t> bestSrc(numSlots, slotStart);

    auto addEdge = [&](std::uint32_t dst_slot, std::uint32_t src_slot,
                       EdgeClass cls, Cycle baseline_w,
                       std::uint32_t stored_w, FuClass fu_cls,
                       std::uint32_t miss_extra) {
        const Cycle src_t = slots[src_slot].observed;
        const Cycle dst_t = slots[dst_slot].observed;
        sdsp_assert(src_t + baseline_w <= dst_t,
                    "unsound %s edge: src@%llu + %llu > dst@%llu",
                    edgeClassName(cls),
                    static_cast<unsigned long long>(src_t),
                    static_cast<unsigned long long>(baseline_w),
                    static_cast<unsigned long long>(dst_t));
        sdsp_assert(pos[src_slot] < pos[dst_slot],
                    "%s edge not forward in the topological order",
                    edgeClassName(cls));
        Edge edge;
        edge.src = pos[src_slot];
        edge.cls = cls;
        edge.fuClass = fu_cls;
        edge.weight = stored_w;
        edge.missExtra = miss_extra;
        pending.push_back({pos[dst_slot], edge});
        Cycle cand = src_t + baseline_w;
        if (bestTime[dst_slot] == kNoCandidate ||
            cand > bestTime[dst_slot]) {
            bestTime[dst_slot] = cand;
            bestSrc[dst_slot] = src_slot;
        }
    };
    auto addSimple = [&](std::uint32_t dst_slot,
                         std::uint32_t src_slot, EdgeClass cls,
                         Cycle w) {
        addEdge(dst_slot, src_slot, cls, w,
                static_cast<std::uint32_t>(w), FuClass::IntAlu, 0);
    };
    // Dynamic (rewireable) baseline candidate: not stored as an
    // edge, but counted toward tightness so no residual shadows it.
    auto addDynamicCandidate = [&](std::uint32_t dst_slot,
                                   std::uint32_t src_slot, Cycle w) {
        const Cycle src_t = slots[src_slot].observed;
        sdsp_assert(src_t + w <= slots[dst_slot].observed,
                    "unsound capacity candidate");
        Cycle cand = src_t + w;
        if (bestTime[dst_slot] == kNoCandidate ||
            cand > bestTime[dst_slot]) {
            bestTime[dst_slot] = cand;
            bestSrc[dst_slot] = src_slot;
        }
    };

    // Per-thread traversal state (blocks in the trace are in commit
    // order; within one thread that equals program/fetch order).
    std::vector<std::int64_t> prevBlockOfThread(cfg_.numThreads, -1);
    std::vector<std::int64_t> lastMispredict(cfg_.numThreads, -1);
    struct LastStore
    {
        std::int64_t inst = -1;
        Cycle issuedAt = 0;
    };
    std::vector<LastStore> lastStore(cfg_.numThreads);

    const unsigned baseBlocks = cfg_.suBlocks();
    const unsigned baseWidth = cfg_.issueWidth;

    for (std::uint32_t r = 0; r < B; ++r) {
        // Walk blocks in global fetch order so the latch-occupancy
        // chain and the per-thread chains can be built in one pass
        // (per-thread fetch order equals per-thread commit order).
        const std::uint32_t b = byFetch[r];
        const DdgBlock &block = trace.blocks[b];
        const ThreadId tid = block.tid;

        // Fetch: latch freed by the previous block's dispatch, the
        // same thread's previous fetch, and — after a mispredict —
        // the resolving branch's writeback.
        if (r > 0) {
            addSimple(fetchSlot(b), dispSlot(byFetch[r - 1]),
                      EdgeClass::FetchLatch, 0);
        }
        if (prevBlockOfThread[tid] >= 0) {
            // One block fetches per cycle, so consecutive same-thread
            // fetches are at least one cycle apart. (The rotation
            // spacing of round-robin policies is NOT modeled as a
            // hard edge — TrueRR skips finished threads, so the gap
            // can legally shrink to 1; lost rotations surface as
            // fetchStall residuals instead.)
            addSimple(fetchSlot(b),
                      fetchSlot(static_cast<std::uint32_t>(
                          prevBlockOfThread[tid])),
                      EdgeClass::FetchChain, 1);
        }
        if (lastMispredict[tid] >= 0) {
            const auto p =
                static_cast<std::uint32_t>(lastMispredict[tid]);
            if (trace.insts[p].seq < block.blockSeq) {
                addSimple(fetchSlot(b), completeSlot(p),
                          EdgeClass::BranchRecovery, 0);
            }
        }
        prevBlockOfThread[tid] = b;

        // Dispatch: decode takes one cycle past the latch, and the
        // SU must have a free block (capacity candidate).
        addSimple(dispSlot(b), fetchSlot(b), EdgeClass::DispatchPipe,
                  1);
        const std::uint32_t n = dispatchRankOfBlock_[b];
        if (n >= baseBlocks) {
            addDynamicCandidate(
                dispSlot(b), commitSlot(byCommit[n - baseBlocks]), 0);
        }

        for (std::uint32_t k = 0; k < block.instCount; ++k) {
            const std::uint32_t i = block.firstInst + k;
            const DdgInst &inst = trace.insts[i];

            // Issue: one cycle past dispatch, register RAW on the
            // recorded in-flight producers, memory disambiguation
            // behind the latest-issuing older same-thread store, and
            // the issue-bandwidth chain (capacity candidate).
            addSimple(issueSlot(i), dispSlot(b), EdgeClass::IssuePipe,
                      1);
            for (Tag producer_seq : inst.waitSeq) {
                if (!producer_seq)
                    continue;
                std::int64_t p = instBySeq.find(producer_seq);
                sdsp_assert(p >= 0,
                            "RAW producer %llu of committed %llu "
                            "missing from the trace",
                            static_cast<unsigned long long>(
                                producer_seq),
                            static_cast<unsigned long long>(inst.seq));
                // Stored weight 0: the what-if's bypass cycle is the
                // Raw row of the resolved addend table.
                addEdge(issueSlot(i),
                        completeSlot(static_cast<std::uint32_t>(p)),
                        EdgeClass::Raw, cfg_.bypassing ? 0 : 1, 0,
                        FuClass::IntAlu, 0);
            }
            if (inst.isLoad && lastStore[tid].inst >= 0) {
                addSimple(issueSlot(i),
                          issueSlot(static_cast<std::uint32_t>(
                              lastStore[tid].inst)),
                          EdgeClass::MemOrder, 0);
            }
            if (inst.isStore &&
                inst.issuedAt >= lastStore[tid].issuedAt) {
                lastStore[tid] = {static_cast<std::int64_t>(i),
                                  inst.issuedAt};
            }
            const std::uint32_t rank = issueRankOfInst_[i];
            if (rank >= baseWidth) {
                const std::uint32_t older =
                    byIssue[rank - baseWidth];
                addDynamicCandidate(issueSlot(i), issueSlot(older),
                                    1);
            }

            // Complete: FU latency plus any recorded miss cycles;
            // writeback-port contention beyond that becomes an
            // explicit residual edge that keeps the latency terms
            // parameterized (so perfect-cache / FU what-ifs still
            // bite on contended instructions).
            const Cycle lat =
                cfg_.fu.latencyOf(inst.fuClass) + inst.missExtra;
            const EdgeClass exec_cls = inst.missExtra
                                           ? EdgeClass::CacheMiss
                                           : EdgeClass::Execute;
            addEdge(completeSlot(i), issueSlot(i), exec_cls, lat, 0,
                    inst.fuClass,
                    static_cast<std::uint32_t>(inst.missExtra));
            const Cycle observed_exec =
                inst.completedAt - inst.issuedAt;
            if (observed_exec > lat) {
                addEdge(completeSlot(i), issueSlot(i),
                        EdgeClass::Writeback, observed_exec,
                        static_cast<std::uint32_t>(observed_exec -
                                                   lat),
                        inst.fuClass,
                        static_cast<std::uint32_t>(inst.missExtra));
            }

            // Commit: the block retires the cycle after its last
            // result writes back, at the earliest.
            addSimple(commitSlot(b), completeSlot(i),
                      EdgeClass::CommitComplete, 1);

            if (inst.mispredicted)
                lastMispredict[tid] = static_cast<std::int64_t>(i);
        }
    }

    // Commit serialization: one block retires per cycle, machine
    // wide — a true structural bound, so it is a hard chain.
    for (std::uint32_t r = 1; r < B; ++r) {
        addSimple(commitSlot(byCommit[r]),
                  commitSlot(byCommit[r - 1]), EdgeClass::CommitQueue,
                  1);
    }

    // End: every block's commit precedes the end of the run; the
    // last commit carries the observed drain tail (store-buffer and
    // FU drain after the final retirement).
    for (std::uint32_t b = 0; b < B; ++b)
        addSimple(slotEnd, commitSlot(b), EdgeClass::DrainTail, 0);
    if (B > 0) {
        const std::uint32_t last = byCommit[B - 1];
        addSimple(slotEnd, commitSlot(last), EdgeClass::DrainTail,
                  measured_ -
                      trace.blocks[last].committedAt);
    }

    // ---- Residual pass: give every node a tight incoming edge so
    // the baseline relaxation reproduces every observed time
    // exactly. The class records the evidence the simulator left
    // about WHY the structural edges fall short. ----
    for (std::uint32_t s = 0; s < numSlots; ++s) {
        if (s == slotStart)
            continue;
        const Node &node = slots[s];
        if (bestTime[s] != kNoCandidate &&
            bestTime[s] == node.observed) {
            continue;
        }
        sdsp_assert(bestTime[s] == kNoCandidate ||
                        bestTime[s] < node.observed,
                    "structural edges overshoot node %u", s);
        const std::uint32_t src =
            bestTime[s] == kNoCandidate ? slotStart : bestSrc[s];
        const Cycle w = node.observed - slots[src].observed;
        EdgeClass cls = EdgeClass::Source;
        if (src != slotStart) {
            switch (node.kind) {
              case DdgNodeKind::Fetch:
                cls = EdgeClass::FetchStall;
                break;
              case DdgNodeKind::Dispatch: {
                DispatchWaitCause cause =
                    trace.blocks[node.owner].dispatchWaitCause;
                cls = cause == DispatchWaitCause::SuFull
                          ? EdgeClass::SuCapacity
                          : cause == DispatchWaitCause::Scoreboard
                                ? EdgeClass::Scoreboard
                                : EdgeClass::DispatchStall;
                break;
              }
              case DdgNodeKind::Issue: {
                const DdgInst &inst = trace.insts[node.owner];
                // Trust the recorded cause only if the failed
                // attempt immediately preceded the issue; an
                // earlier, stale failure means the final wait was
                // width contention.
                IssueBlockCause cause =
                    inst.issueBlockCycle + 1 == inst.issuedAt
                        ? inst.issueBlockCause
                        : IssueBlockCause::None;
                switch (cause) {
                  case IssueBlockCause::FuBusy:
                    cls = EdgeClass::FuBusy;
                    break;
                  case IssueBlockCause::MemOrder:
                    cls = EdgeClass::MemOrder;
                    break;
                  case IssueBlockCause::StoreBufferFull:
                    cls = EdgeClass::StoreBufferFull;
                    break;
                  case IssueBlockCause::CachePort:
                    cls = EdgeClass::CachePort;
                    break;
                  case IssueBlockCause::None:
                    cls = EdgeClass::IssueBandwidth;
                    break;
                }
                break;
              }
              case DdgNodeKind::Complete:
                cls = EdgeClass::Writeback;
                break;
              case DdgNodeKind::Commit:
                cls = EdgeClass::CommitBlocked;
                break;
              case DdgNodeKind::End:
                cls = EdgeClass::DrainTail;
                break;
              case DdgNodeKind::Start:
                break;
            }
        }
        addEdge(s, src, cls, w, static_cast<std::uint32_t>(w),
                FuClass::IntAlu, 0);
    }

    // ---- CSR by destination (counting sort keeps build O(E)). ----
    edgeStart_.assign(numSlots + 1, 0);
    for (const Pending &p : pending)
        ++edgeStart_[p.dst + 1];
    for (std::uint32_t t = 0; t < numSlots; ++t)
        edgeStart_[t + 1] += edgeStart_[t];
    edges_.resize(pending.size());
    {
        std::vector<std::uint32_t> cursor(edgeStart_.begin(),
                                          edgeStart_.end() - 1);
        for (const Pending &p : pending)
            edges_[cursor[p.dst]++] = p.edge;
    }
}

// --------------------------------------------------------------------
// Relaxation
// --------------------------------------------------------------------

DdgGraph::Resolved
DdgGraph::resolve(const WhatIf &what_if) const
{
    Resolved r;
    const unsigned baseBlocks = cfg_.suBlocks();
    r.blocksCap = what_if.suEntries
                      ? std::max(1u, what_if.suEntries / cfg_.blockSize)
                      : baseBlocks;
    r.width = what_if.issueWidth ? what_if.issueWidth : cfg_.issueWidth;
    r.missMask = what_if.perfectDCache ? 0 : ~std::uint32_t{0};
    const bool bypass = what_if.bypassing < 0 ? cfg_.bypassing
                                              : what_if.bypassing != 0;

    auto row = [&](EdgeClass cls) -> auto & {
        return r.addend[static_cast<unsigned>(cls)];
    };
    row(EdgeClass::Raw).fill(bypass ? 0 : 1);
    for (unsigned c = 0; c < kNumFuClasses; ++c) {
        const std::int64_t lat =
            what_if.fuLatency[c] >= 0 ? what_if.fuLatency[c]
                                      : cfg_.fu.latency[c];
        row(EdgeClass::Execute)[c] = lat;
        row(EdgeClass::CacheMiss)[c] = lat;
        row(EdgeClass::Writeback)[c] = lat;
    }
    // Residual waits the what-if removes (a deeper SU, wider issue,
    // infinite store buffer, perfect D-cache): the recorded wait no
    // longer applies on that machine.
    if (r.blocksCap > baseBlocks)
        row(EdgeClass::SuCapacity).fill(kDropped);
    if (r.width > cfg_.issueWidth)
        row(EdgeClass::IssueBandwidth).fill(kDropped);
    if (what_if.infiniteStoreBuffer)
        row(EdgeClass::StoreBufferFull).fill(kDropped);
    if (what_if.perfectDCache)
        row(EdgeClass::CachePort).fill(kDropped);
    return r;
}

inline std::int64_t
DdgGraph::weightOf(const Edge &edge, const Resolved &r)
{
    return edge.weight +
           r.addend[static_cast<unsigned>(edge.cls)]
                   [static_cast<unsigned>(edge.fuClass)] +
           (edge.missExtra & r.missMask);
}

inline bool
DdgGraph::capacityEdge(std::uint32_t p, const Resolved &r,
                       ResolvedEdge &out) const
{
    const Node &node = nodes_[p];
    if (node.kind == DdgNodeKind::Dispatch) {
        const std::uint32_t n = dispatchRankOfBlock_[node.owner];
        if (n < r.blocksCap)
            return false;
        out = {commitOrder_[n - r.blocksCap], EdgeClass::SuCapacity, 0};
        return true;
    }
    if (node.kind == DdgNodeKind::Issue) {
        const std::uint32_t rank = issueRankOfInst_[node.owner];
        if (rank < r.width)
            return false;
        out = {issueOrder_[rank - r.width], EdgeClass::IssueBandwidth,
               1};
        return true;
    }
    return false;
}

std::uint64_t
DdgGraph::relaxTimes(const Resolved &r, std::int64_t *time) const
{
    std::uint64_t skipped = 0;
    const auto numNodes = static_cast<std::uint32_t>(nodes_.size());
    for (std::uint32_t p = 0; p < numNodes; ++p) {
        std::int64_t t = 0;
        for (std::uint32_t e = edgeStart_[p]; e < edgeStart_[p + 1];
             ++e) {
            const Edge &edge = edges_[e];
            t = std::max(t, time[edge.src] + weightOf(edge, r));
        }

        // Rewireable capacity constraints, recomputed from the
        // baseline orderings under the projected capacities. A
        // capacity DECREASE can ask for a source that is not
        // topologically earlier; such edges are skipped and counted,
        // and relax() tags the result pessimistic-bound.
        ResolvedEdge cap;
        if (capacityEdge(p, r, cap)) {
            if (cap.src < p)
                t = std::max(t, time[cap.src] + cap.weight);
            else
                ++skipped;
        }
        time[p] = t;
    }
    return skipped;
}

Confidence
classifyWhatIf(const WhatIf &what_if, const MachineConfig &config)
{
    if (what_if.isBaseline(config))
        return Confidence::Exact;
    const unsigned blocksCap =
        what_if.suEntries
            ? std::max(1u, what_if.suEntries / config.blockSize)
            : config.suBlocks();
    const unsigned width =
        what_if.issueWidth ? what_if.issueWidth : config.issueWidth;
    if (blocksCap < config.suBlocks() || width < config.issueWidth)
        return Confidence::PessimisticBound;
    return Confidence::OptimisticBound;
}

Confidence
DdgGraph::classify(const WhatIf &what_if) const
{
    return classifyWhatIf(what_if, cfg_);
}

RelaxResult
DdgGraph::relax(const WhatIf &what_if) const
{
    const Resolved r = resolve(what_if);
    const auto time =
        std::make_unique_for_overwrite<std::int64_t[]>(nodes_.size());
    RelaxResult result;
    result.skippedCapacityEdges = relaxTimes(r, time.get());
    result.cycles = static_cast<Cycle>(time[nodes_.size() - 1]);
    result.confidence = classify(what_if);

    // Critical path: walk back from End, re-deriving at each node the
    // edge that set its time, and charge that edge's weight to its
    // class. The charges sum to the projected cycle count by
    // construction. The rule matches the forward pass: the first
    // strictly larger candidate wins, a zero-weight edge from Start
    // is taken while nothing else has been, dropped edges never win,
    // and the capacity edge comes last.
    std::uint32_t cur = static_cast<std::uint32_t>(nodes_.size()) - 1;
    while (cur != 0) {
        std::int64_t t = 0;
        bool taken = false;
        ResolvedEdge arg;
        for (std::uint32_t e = edgeStart_[cur]; e < edgeStart_[cur + 1];
             ++e) {
            const Edge &edge = edges_[e];
            const std::int64_t w = weightOf(edge, r);
            const std::int64_t cand = time[edge.src] + w;
            if (cand > t || (!taken && edge.src == 0 && cand == t)) {
                t = cand;
                arg = {edge.src, edge.cls, w};
                taken = true;
            }
        }
        ResolvedEdge cap;
        if (capacityEdge(cur, r, cap) && cap.src < cur &&
            time[cap.src] + cap.weight > t) {
            t = time[cap.src] + cap.weight;
            arg = cap;
            taken = true;
        }
        sdsp_assert(t == time[cur],
                    "critical-path walk: node %u re-derived %lld, "
                    "relaxed %lld",
                    cur, static_cast<long long>(t),
                    static_cast<long long>(time[cur]));
        if (!taken)
            break; // time 0 with no incoming edge
        result.breakdown[static_cast<unsigned>(arg.cls)] +=
            static_cast<Cycle>(arg.weight);
        ++result.edgeCounts[static_cast<unsigned>(arg.cls)];
        cur = arg.src;
    }
    return result;
}

std::string
DdgGraph::verifyExact() const
{
    const auto time =
        std::make_unique_for_overwrite<std::int64_t[]>(nodes_.size());
    relaxTimes(resolve(WhatIf{}), time.get());
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
        if (time[p] != static_cast<std::int64_t>(nodes_[p].observed)) {
            static const char *const kKindNames[] = {
                "start", "fetch", "dispatch", "issue",
                "complete", "commit", "end"};
            return format(
                "node %zu (%s of %u): computed %lld != observed %llu",
                p,
                kKindNames[static_cast<unsigned>(nodes_[p].kind)],
                nodes_[p].owner, static_cast<long long>(time[p]),
                static_cast<unsigned long long>(nodes_[p].observed));
        }
    }
    return "";
}

void
DdgGraph::slackHistograms(
    std::array<Distribution, kNumEdgeClasses> &out) const
{
    const Resolved baseline = resolve(WhatIf{});
    for (std::uint32_t p = 0;
         p < static_cast<std::uint32_t>(nodes_.size()); ++p) {
        for (std::uint32_t e = edgeStart_[p]; e < edgeStart_[p + 1];
             ++e) {
            const Edge &edge = edges_[e];
            const Cycle slack = nodes_[p].observed -
                                nodes_[edge.src].observed -
                                static_cast<Cycle>(weightOf(edge, baseline));
            out[static_cast<unsigned>(edge.cls)].sample(slack);
        }
    }
}

} // namespace sdsp
