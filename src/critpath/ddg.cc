#include "critpath/ddg.hh"

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "common/number.hh"

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

AppliedWhatIf
WhatIf::appliedTo(const MachineConfig &base) const
{
    AppliedWhatIf applied;
    applied.issueWidth = issueWidth.value_or(base.issueWidth);
    applied.suEntries =
        suEntries ? std::max(1u, *suEntries / base.blockSize) *
                        base.blockSize
                  : base.suEntries;
    applied.suBlocks = applied.suEntries / base.blockSize;
    applied.bypassing = bypassing.value_or(base.bypassing);
    for (unsigned c = 0; c < kNumFuClasses; ++c)
        applied.fuLatency[c] = fuLatency[c].value_or(base.fu.latency[c]);
    applied.storeBufferEntries =
        infiniteStoreBuffer ? 4096 : base.storeBufferEntries;
    applied.missPenalty = perfectDCache ? 0 : base.dcache.missPenalty;
    applied.perfectDCache = perfectDCache;
    applied.infiniteStoreBuffer = infiniteStoreBuffer;
    return applied;
}

MachineConfig
applyWhatIf(const WhatIf &what_if, const MachineConfig &base)
{
    const AppliedWhatIf applied = what_if.appliedTo(base);
    MachineConfig config = base;
    config.issueWidth = applied.issueWidth;
    config.suEntries = applied.suEntries;
    config.bypassing = applied.bypassing;
    config.fu.latency = applied.fuLatency;
    config.storeBufferEntries = applied.storeBufferEntries;
    config.dcache.missPenalty = applied.missPenalty;
    return config;
}

bool
WhatIf::isBaseline(const MachineConfig &config) const
{
    return appliedTo(config) == WhatIf{}.appliedTo(config);
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
        append(format("issueWidth=%u", *issueWidth));
    if (suEntries)
        append(format("suEntries=%u", *suEntries));
    if (perfectDCache)
        append("perfectDCache=1");
    if (infiniteStoreBuffer)
        append("infiniteStoreBuffer=1");
    if (bypassing)
        append(format("bypassing=%d", *bypassing ? 1 : 0));
    for (unsigned c = 0; c < kNumFuClasses; ++c) {
        if (fuLatency[c]) {
            append(format("fuLat.%s=%u",
                          fuClassName(static_cast<FuClass>(c)),
                          *fuLatency[c]));
        }
    }
    if (out.empty())
        out = "baseline";
    (void)config;
    return out;
}

bool
WhatIf::set(const std::string &key, std::uint64_t value,
            std::string *error)
{
    auto fail = [&](const std::string &message) {
        if (error)
            *error = message;
        return false;
    };
    // Range checks come before the narrowing casts: a value that does
    // not fit the field is an error, not a silently rewritten one. A
    // latency below one cycle is refused, as validate() refuses it.
    constexpr std::uint64_t kMaxCount = kFieldMax<unsigned>;
    constexpr std::uint64_t kMaxLatency = kFieldMax<int>;
    auto count = [&](std::optional<unsigned> &field, const char *name,
                     std::uint64_t max) {
        if (value < 1 || value > max)
            return fail(format("%s must be between 1 and %llu", name,
                               static_cast<unsigned long long>(max)));
        field = static_cast<unsigned>(value);
        return true;
    };

    if (key == "issueWidth")
        return count(issueWidth, "issueWidth", kMaxCount);
    if (key == "suEntries")
        return count(suEntries, "suEntries", kMaxCount);
    if (key == "perfectDCache") {
        perfectDCache = value != 0;
    } else if (key == "infiniteStoreBuffer") {
        infiniteStoreBuffer = value != 0;
    } else if (key == "bypassing") {
        bypassing = value != 0;
    } else if (key.starts_with("fuLat.")) {
        const std::string cls = key.substr(6);
        for (unsigned c = 0; c < kNumFuClasses; ++c)
            if (cls == fuClassName(static_cast<FuClass>(c)))
                return count(fuLatency[c], "fuLat", kMaxLatency);
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
WhatIf::applyKeyValue(const std::string &clause, std::string *error)
{
    const std::size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= clause.size()) {
        if (error)
            *error = format("expected KEY=VAL, got '%s'", clause.c_str());
        return false;
    }
    const std::string key = clause.substr(0, eq);
    const std::string val = clause.substr(eq + 1);
    const auto number = parseNumber(val, 0, kFieldMax<std::uint64_t>);
    if (!number) {
        if (error)
            *error = format("'%s': value '%s' is not an unsigned integer",
                            key.c_str(), val.c_str());
        return false;
    }
    return set(key, *number, error);
}

bool
WhatIf::applyKeyValues(const std::string &clauses, std::string *error)
{
    std::istringstream list(clauses);
    std::string clause;
    while (std::getline(list, clause, ','))
        if (!applyKeyValue(clause, error))
            return false;
    return true;
}

bool
WhatIf::isPureCapacityIncrease(const MachineConfig &config) const
{
    const AppliedWhatIf applied = appliedTo(config);
    return !applied.perfectDCache &&
           applied.bypassing == config.bypassing &&
           applied.fuLatency == config.fu.latency &&
           applied.issueWidth >= config.issueWidth &&
           applied.suBlocks >= config.suBlocks();
}

// --------------------------------------------------------------------
// Graph construction
// --------------------------------------------------------------------

namespace
{

/** A link or topological index that is not (yet) known. */
constexpr std::uint32_t kNone = ~std::uint32_t{0};

/**
 * Stable LSD radix sort of the @p count keys at @p keys on their bits
 * [@p low, @p low + @p width), in 11-bit digits: linear in the key
 * count, with no bucket per cycle (runs may last up to the 200M-cycle
 * cap). Keys equal in those bits keep their order. @p keys may come
 * back pointing at @p scratch, which holds @p count keys.
 */
void
sortKeyBits(std::uint64_t *&keys, std::uint64_t *&scratch,
            std::uint32_t count, unsigned low, unsigned width)
{
    constexpr unsigned kDigitBits = 11;
    constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
    std::array<std::uint32_t, kDigitMask + 1> start;
    for (unsigned shift = low; shift < low + width;
         shift += kDigitBits) {
        start.fill(0);
        for (std::uint32_t k = 0; k < count; ++k)
            ++start[(keys[k] >> shift) & kDigitMask];
        std::uint32_t sum = 0;
        for (std::uint32_t &bucket : start) {
            const std::uint32_t here = bucket;
            bucket = sum;
            sum += here;
        }
        for (std::uint32_t k = 0; k < count; ++k)
            scratch[start[(keys[k] >> shift) & kDigitMask]++] = keys[k];
        std::swap(keys, scratch);
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
    TagIndex(std::uint32_t count, TagOf tag_of) : count_(count)
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
        order.reserve(count_);
        for (std::uint32_t index : table_) {
            if (index != kNone)
                order.push_back(index);
        }
        return order;
    }

  private:
    std::uint32_t count_;
    Tag min_ = ~Tag{0};
    Tag max_ = 0;
    std::vector<std::uint32_t> table_;
};

/**
 * A block's same-thread predecessors, found before the visit, and the
 * topological indices of its nodes, set as the visit reaches them.
 */
struct BlockLinks
{
    /** The thread's previous block in program order. */
    std::uint32_t prevInThread = kNone;
    /** The thread's latest older mispredicted branch, when it is
     *  older than this block. */
    std::uint32_t recovery = kNone;
    std::uint32_t fetch = kNone;
    std::uint32_t dispatch = kNone;
    std::uint32_t commit = kNone;
};

/** The same for an instruction. */
struct InstLinks
{
    std::uint32_t block = 0;
    /** For a load, the latest-issuing older same-thread store. */
    std::uint32_t memOrder = kNone;
    std::uint32_t issue = kNone;
    std::uint32_t complete = kNone;
};

/** Stage ranks within one cycle, in the processor's stage order
 *  (commit runs first, fetch last), between the virtual ends. */
enum StageRank : unsigned
{
    kStartRank,
    kCommitRank,
    kCompleteRank,
    kIssueRank,
    kDispatchRank,
    kFetchRank,
    kEndRank,
};

constexpr DdgNodeKind kKindOfRank[] = {
    DdgNodeKind::Start, DdgNodeKind::Commit,   DdgNodeKind::Complete,
    DdgNodeKind::Issue, DdgNodeKind::Dispatch, DdgNodeKind::Fetch,
    DdgNodeKind::End,
};

constexpr unsigned kRankBits = 3;

} // namespace

DdgGraph::DdgGraph(const DdgTrace &trace, const MachineConfig &config,
                   Cycle measured_cycles)
    : cfg_(config), measured_(measured_cycles)
{
    const auto B = static_cast<std::uint32_t>(trace.blocks.size());
    const auto N = static_cast<std::uint32_t>(trace.insts.size());
    // Below 2^31 nodes, every dispatch and issue rank fits the 30
    // rank bits of a capacity word.
    sdsp_assert(static_cast<std::uint64_t>(B) * 3 + 2 * N + 2 <
                    (1ull << 31),
                "DDG too large for 32-bit node indices");
    const std::uint32_t numNodes = 3 * B + 2 * N + 2;

    // Age order: the processor numbers entries at dispatch, so block
    // and instruction tags order them by age. The instruction table
    // also resolves RAW producers (seq -> instruction index).
    const TagIndex instBySeq(N, [&](std::uint32_t i) {
        return trace.insts[i].seq;
    });
    const TagIndex blockBySeq(B, [&](std::uint32_t b) {
        return trace.blocks[b].blockSeq;
    });
    const std::vector<std::uint32_t> blocksByAge =
        blockBySeq.inTagOrder();
    const std::vector<std::uint32_t> instsByAge =
        instBySeq.inTagOrder();

    // The fixed topological order: observed time, then pipeline
    // stage rank within the cycle, then age. Both the baseline and
    // every what-if relaxation run in this order. The stage rank
    // follows the processor's stage order, so an edge with weight 0
    // between same-cycle events always goes from a lower to a higher
    // rank. Each node is one 8-byte key: its cycle above its (rank,
    // age) index. The keys are listed in index order and stably
    // sorted on the cycle bits alone.
    const unsigned ageBits = std::bit_width(std::max(B, N));
    const unsigned indexBits = kRankBits + ageBits;
    const std::uint64_t ageMask = (std::uint64_t{1} << ageBits) - 1;
    const auto keyBuffer = std::make_unique_for_overwrite<std::uint64_t[]>(
        2 * std::size_t{numNodes});
    std::uint64_t *keys = keyBuffer.get();
    std::uint64_t *scratch = keys + numNodes;
    {
        std::uint32_t k = 0;
        Cycle allCycles = measured_;
        auto list = [&](Cycle cycle, unsigned rank, std::uint32_t age) {
            allCycles |= cycle;
            keys[k++] = cycle << indexBits |
                        std::uint64_t{rank} << ageBits | age;
        };
        list(0, kStartRank, 0);
        auto block = [&](std::uint32_t a) -> const DdgBlock & {
            return trace.blocks[blocksByAge[a]];
        };
        auto inst = [&](std::uint32_t a) -> const DdgInst & {
            return trace.insts[instsByAge[a]];
        };
        for (std::uint32_t a = 0; a < B; ++a)
            list(block(a).committedAt, kCommitRank, a);
        for (std::uint32_t a = 0; a < N; ++a)
            list(inst(a).completedAt, kCompleteRank, a);
        for (std::uint32_t a = 0; a < N; ++a)
            list(inst(a).issuedAt, kIssueRank, a);
        for (std::uint32_t a = 0; a < B; ++a)
            list(block(a).dispatchedAt, kDispatchRank, a);
        for (std::uint32_t a = 0; a < B; ++a)
            list(block(a).fetchedAt, kFetchRank, a);
        list(measured_, kEndRank, 0);

        const unsigned cycleBits = std::bit_width(allCycles);
        if (cycleBits + indexBits > 64) {
            throw std::length_error(format(
                "DDG: observed cycles need %u bits; the 64-bit sort "
                "key has %u beside its %u node index bits",
                cycleBits, 64 - indexBits, indexBits));
        }
        sortKeyBits(keys, scratch, numNodes, indexBits, cycleBits);
    }
    const std::uint64_t indexMask =
        (std::uint64_t{1} << indexBits) - 1;
    sdsp_assert((keys[0] & indexMask) == 0 &&
                    (keys[numNodes - 1] & indexMask) ==
                        std::uint64_t{kEndRank} << ageBits,
                "Start/End not at the ends of the topological order");

    // ---- Pre-pass: each block's and each load's same-thread
    // predecessors. Blocks are in commit order, which within one
    // thread is program and fetch order. It also counts the
    // structural edges, so the edge array is allocated once. ----
    std::vector<BlockLinks> blockLinks(B);
    std::vector<InstLinks> instLinks(N);
    std::uint64_t structural = 0;
    {
        struct ThreadState
        {
            std::uint32_t lastBlock = kNone;
            std::uint32_t lastMispredict = kNone;
            std::uint32_t lastStore = kNone;
            Cycle lastStoreIssue = 0;
        };
        std::vector<ThreadState> threads(cfg_.numThreads);
        std::uint32_t covered = 0;
        for (std::uint32_t b = 0; b < B; ++b) {
            const DdgBlock &block = trace.blocks[b];
            sdsp_assert(block.firstInst == covered,
                        "block %u does not follow its predecessor's "
                        "instructions", b);
            covered += block.instCount;
            ThreadState &thread = threads[block.tid];
            BlockLinks &links = blockLinks[b];
            links.prevInThread = thread.lastBlock;
            thread.lastBlock = b;
            if (thread.lastMispredict != kNone &&
                trace.insts[thread.lastMispredict].seq < block.blockSeq) {
                links.recovery = thread.lastMispredict;
            }
            structural += (links.prevInThread != kNone) +
                          (links.recovery != kNone);
            for (std::uint32_t i = block.firstInst;
                 i < block.firstInst + block.instCount; ++i) {
                const DdgInst &inst = trace.insts[i];
                instLinks[i].block = b;
                if (inst.isLoad)
                    instLinks[i].memOrder = thread.lastStore;
                if (inst.isStore &&
                    inst.issuedAt >= thread.lastStoreIssue) {
                    thread.lastStore = i;
                    thread.lastStoreIssue = inst.issuedAt;
                }
                if (inst.mispredicted)
                    thread.lastMispredict = i;
                const Cycle lat =
                    cfg_.fu.latencyOf(inst.fuClass) + inst.missExtra;
                structural += (inst.waitSeq[0] != 0) +
                              (inst.waitSeq[1] != 0) +
                              (instLinks[i].memOrder != kNone) +
                              (inst.completedAt - inst.issuedAt > lat);
            }
        }
        sdsp_assert(covered == N,
                    "recorded instructions outside a closed block");
        // Per block: fetch latch, dispatch pipe, commit queue and
        // drain tail; per instruction: issue pipe, execute and commit.
        structural += 4 * std::uint64_t{B} + 3 * std::uint64_t{N};
    }

    // ---- The visit: each node in topological order, its in-edges
    // appended straight into the CSR. Every edge is validated against
    // the observed times (soundness: t(src) + w <= t(dst)) and must
    // come from an already visited node (forward order). The best
    // incoming candidate is tracked so the node can be made tight:
    // the first strictly larger candidate wins. The baseline
    // orderings backing the rewireable capacity edges are read off
    // as their nodes are reached. ----
    nodes_.reserve(numNodes);
    edgeStart_.reserve(numNodes + 1);
    capacity_.reserve(numNodes);
    // A residual edge can only reach a Fetch, Dispatch, Issue or
    // Commit node, or the End node of a run with no block: the
    // writeback edge keeps each Complete node tight and the drain
    // tail the End node.
    edgeCapacity_ = structural + 3 * std::size_t{B} + N + 1;
    edges_ = std::make_unique_for_overwrite<std::uint32_t[]>(
        3 * edgeCapacity_);
    std::uint32_t *const edgeSrcOut = edges_.get();
    std::uint32_t *const edgeWordOut = edgeSrcOut + edgeCapacity_;
    std::uint32_t *const edgeMissOut = edgeWordOut + edgeCapacity_;
    commitOrder_.reserve(B);
    issueOrder_.reserve(N);

    const unsigned baseBlocks = cfg_.suBlocks();
    const unsigned baseWidth = cfg_.issueWidth;
    const Cycle rawLatency = cfg_.bypassing ? 0 : 1;
    std::uint32_t prevFetch = kNone;    // block fetched last
    std::uint32_t prevDispatch = kNone; // node dispatched last
    std::uint32_t dispatchRank = 0;

    constexpr Cycle kNoCandidate = ~Cycle{0};
    for (std::uint32_t t = 0; t < numNodes; ++t) {
        const std::uint64_t key = keys[t];
        const Cycle observed = key >> indexBits;
        const unsigned rank =
            static_cast<unsigned>((key & indexMask) >> ageBits);
        const auto age = static_cast<std::uint32_t>(key & ageMask);
        const DdgNodeKind kind = kKindOfRank[rank];
        std::uint32_t owner = 0;
        if (rank == kCommitRank || rank == kDispatchRank ||
            rank == kFetchRank) {
            owner = blocksByAge[age];
        } else if (rank == kCompleteRank || rank == kIssueRank) {
            owner = instsByAge[age];
        }
        nodes_.push_back({kind, owner, observed});
        edgeStart_.push_back(static_cast<std::uint32_t>(edgeCount_));
        capacity_.push_back(kNoCapacity << kCapacityKindShift);

        Cycle bestTime = kNoCandidate;
        std::uint32_t bestSrc = 0;
        auto candidate = [&](std::uint32_t src, Cycle cand) {
            if (bestTime == kNoCandidate || cand > bestTime) {
                bestTime = cand;
                bestSrc = src;
            }
        };
        auto addEdge = [&](std::uint32_t src, Cycle src_t,
                           EdgeClass cls, Cycle baseline_w,
                           Cycle stored_w, FuClass fu_cls,
                           Cycle miss_extra) {
            sdsp_assert(src_t + baseline_w <= observed,
                        "unsound %s edge: src@%llu + %llu > dst@%llu",
                        edgeClassName(cls),
                        static_cast<unsigned long long>(src_t),
                        static_cast<unsigned long long>(baseline_w),
                        static_cast<unsigned long long>(observed));
            sdsp_assert(src < t,
                        "%s edge not forward in the topological order",
                        edgeClassName(cls));
            // The edge word keeps the weight and the miss cycles
            // together, so a perfect D-cache subtracts the miss.
            const Cycle packed = stored_w + miss_extra;
            if (packed >= kWeightLimit) {
                throw std::length_error(format(
                    "DDG: %s edge of %llu cycles (%llu stored + %llu "
                    "miss) does not fit an edge word, which holds fewer "
                    "than %llu",
                    edgeClassName(cls),
                    static_cast<unsigned long long>(packed),
                    static_cast<unsigned long long>(stored_w),
                    static_cast<unsigned long long>(miss_extra),
                    static_cast<unsigned long long>(kWeightLimit)));
            }
            const unsigned code = static_cast<unsigned>(cls) *
                                      kNumFuClasses +
                                  static_cast<unsigned>(fu_cls);
            sdsp_assert(edgeCount_ < edgeCapacity_,
                        "%s edge beyond the counted edges",
                        edgeClassName(cls));
            edgeSrcOut[edgeCount_] = src;
            edgeWordOut[edgeCount_] =
                static_cast<std::uint32_t>(packed) << kCodeBits | code;
            edgeMissOut[edgeCount_] =
                static_cast<std::uint32_t>(miss_extra);
            ++edgeCount_;
            candidate(src, src_t + baseline_w);
        };
        auto addSimple = [&](std::uint32_t src, Cycle src_t,
                             EdgeClass cls, Cycle w) {
            addEdge(src, src_t, cls, w, w, FuClass::IntAlu, 0);
        };
        // Dynamic (rewireable) baseline candidate: not stored as an
        // edge, but counted toward tightness so no residual shadows
        // it. Its source is a visited node of an earlier or equal
        // cycle, so only the weight can make it unsound.
        auto addDynamicCandidate = [&](std::uint32_t src, Cycle w) {
            const Cycle src_t = nodes_[src].observed;
            sdsp_assert(src_t + w <= observed,
                        "unsound capacity candidate");
            candidate(src, src_t + w);
        };
        // Two blocks never share a fetch, dispatch or commit cycle:
        // one block moves through each of those stages per cycle.
        auto distinctCycle = [&](Cycle previous) {
            sdsp_assert(previous < observed,
                        "two blocks share a fetch, dispatch or commit "
                        "cycle");
        };

        switch (kind) {
          case DdgNodeKind::Start:
            continue; // time 0, no in-edges
          case DdgNodeKind::Fetch: {
            // Latch freed by the previous block's dispatch, the same
            // thread's previous fetch, and — after a mispredict — the
            // resolving branch's writeback.
            BlockLinks &links = blockLinks[owner];
            if (prevFetch != kNone) {
                distinctCycle(trace.blocks[prevFetch].fetchedAt);
                addSimple(blockLinks[prevFetch].dispatch,
                          trace.blocks[prevFetch].dispatchedAt,
                          EdgeClass::FetchLatch, 0);
            }
            if (links.prevInThread != kNone) {
                // One block fetches per cycle, so consecutive
                // same-thread fetches are at least one cycle apart.
                // (The rotation spacing of round-robin policies is
                // NOT modeled as a hard edge — TrueRR skips finished
                // threads, so the gap can legally shrink to 1; lost
                // rotations surface as fetchStall residuals instead.)
                addSimple(blockLinks[links.prevInThread].fetch,
                          trace.blocks[links.prevInThread].fetchedAt,
                          EdgeClass::FetchChain, 1);
            }
            if (links.recovery != kNone) {
                addSimple(instLinks[links.recovery].complete,
                          trace.insts[links.recovery].completedAt,
                          EdgeClass::BranchRecovery, 0);
            }
            links.fetch = t;
            prevFetch = owner;
            break;
          }
          case DdgNodeKind::Dispatch: {
            // Decode takes one cycle past the latch, and the SU must
            // have a free block (capacity candidate): the commit
            // baseBlocks ranks back, which the visit has reached
            // unless it is a later cycle.
            if (prevDispatch != kNone)
                distinctCycle(nodes_[prevDispatch].observed);
            prevDispatch = t;
            BlockLinks &links = blockLinks[owner];
            addSimple(links.fetch, trace.blocks[owner].fetchedAt,
                      EdgeClass::DispatchPipe, 1);
            const std::uint32_t n = dispatchRank++;
            capacity_.back() = kSuCapacity << kCapacityKindShift | n;
            if (n >= baseBlocks) {
                sdsp_assert(n - baseBlocks < commitOrder_.size(),
                            "unsound capacity candidate");
                addDynamicCandidate(commitOrder_[n - baseBlocks], 0);
            }
            links.dispatch = t;
            break;
          }
          case DdgNodeKind::Issue: {
            // One cycle past dispatch, register RAW on the recorded
            // in-flight producers, memory disambiguation behind the
            // latest-issuing older same-thread store, and the
            // issue-bandwidth chain (capacity candidate).
            const DdgInst &inst = trace.insts[owner];
            InstLinks &links = instLinks[owner];
            addSimple(blockLinks[links.block].dispatch,
                      trace.blocks[links.block].dispatchedAt,
                      EdgeClass::IssuePipe, 1);
            for (Tag producer_seq : inst.waitSeq) {
                if (!producer_seq)
                    continue;
                const std::int64_t p = instBySeq.find(producer_seq);
                sdsp_assert(p >= 0,
                            "RAW producer %llu of committed %llu "
                            "missing from the trace",
                            static_cast<unsigned long long>(
                                producer_seq),
                            static_cast<unsigned long long>(inst.seq));
                // Stored weight 0: the what-if's bypass cycle is the
                // Raw row of the resolved addend table.
                addEdge(instLinks[p].complete,
                        trace.insts[p].completedAt, EdgeClass::Raw,
                        rawLatency, 0, FuClass::IntAlu, 0);
            }
            if (links.memOrder != kNone) {
                addSimple(instLinks[links.memOrder].issue,
                          trace.insts[links.memOrder].issuedAt,
                          EdgeClass::MemOrder, 0);
            }
            const auto issued =
                static_cast<std::uint32_t>(issueOrder_.size());
            capacity_.back() =
                kIssueCapacity << kCapacityKindShift | issued;
            if (issued >= baseWidth)
                addDynamicCandidate(issueOrder_[issued - baseWidth], 1);
            issueOrder_.push_back(t);
            links.issue = t;
            break;
          }
          case DdgNodeKind::Complete: {
            // FU latency plus any recorded miss cycles; writeback-port
            // contention beyond that becomes an explicit residual edge
            // that keeps the latency terms parameterized (so
            // perfect-cache / FU what-ifs still bite on contended
            // instructions).
            const DdgInst &inst = trace.insts[owner];
            InstLinks &links = instLinks[owner];
            const Cycle lat =
                cfg_.fu.latencyOf(inst.fuClass) + inst.missExtra;
            const EdgeClass exec_cls = inst.missExtra
                                           ? EdgeClass::CacheMiss
                                           : EdgeClass::Execute;
            addEdge(links.issue, inst.issuedAt, exec_cls, lat, 0,
                    inst.fuClass, inst.missExtra);
            const Cycle observed_exec =
                inst.completedAt - inst.issuedAt;
            if (observed_exec > lat) {
                addEdge(links.issue, inst.issuedAt,
                        EdgeClass::Writeback, observed_exec,
                        observed_exec - lat, inst.fuClass,
                        inst.missExtra);
            }
            links.complete = t;
            break;
          }
          case DdgNodeKind::Commit: {
            // The block retires the cycle after its last result
            // writes back, at the earliest, and one block retires per
            // cycle machine wide — a true structural bound, so it is
            // a hard chain.
            const DdgBlock &block = trace.blocks[owner];
            for (std::uint32_t i = block.firstInst;
                 i < block.firstInst + block.instCount; ++i) {
                addSimple(instLinks[i].complete,
                          trace.insts[i].completedAt,
                          EdgeClass::CommitComplete, 1);
            }
            if (!commitOrder_.empty()) {
                const std::uint32_t prev = commitOrder_.back();
                distinctCycle(nodes_[prev].observed);
                addSimple(prev, nodes_[prev].observed,
                          EdgeClass::CommitQueue, 1);
            }
            commitOrder_.push_back(t);
            blockLinks[owner].commit = t;
            break;
          }
          case DdgNodeKind::End: {
            // Every block's commit precedes the end of the run; the
            // last commit carries the observed drain tail
            // (store-buffer and FU drain after the final retirement).
            for (std::uint32_t b = 0; b < B; ++b) {
                addSimple(blockLinks[b].commit,
                          trace.blocks[b].committedAt,
                          EdgeClass::DrainTail, 0);
            }
            if (B > 0) {
                const std::uint32_t last = commitOrder_.back();
                addSimple(last, nodes_[last].observed,
                          EdgeClass::DrainTail,
                          measured_ - nodes_[last].observed);
            }
            break;
          }
        }

        // ---- Residual: give the node a tight incoming edge so the
        // baseline relaxation reproduces every observed time exactly.
        // The class records the evidence the simulator left about
        // WHY the structural edges fall short. ----
        if (bestTime == observed)
            continue;
        sdsp_assert(bestTime == kNoCandidate || bestTime < observed,
                    "structural edges overshoot node %u", t);
        const std::uint32_t src =
            bestTime == kNoCandidate ? 0 : bestSrc;
        const Cycle src_t = nodes_[src].observed;
        EdgeClass cls = EdgeClass::Source;
        if (src != 0) {
            switch (kind) {
              case DdgNodeKind::Fetch:
                cls = EdgeClass::FetchStall;
                break;
              case DdgNodeKind::Dispatch: {
                DispatchWaitCause cause =
                    trace.blocks[owner].dispatchWaitCause;
                cls = cause == DispatchWaitCause::SuFull
                          ? EdgeClass::SuCapacity
                          : cause == DispatchWaitCause::Scoreboard
                                ? EdgeClass::Scoreboard
                                : EdgeClass::DispatchStall;
                break;
              }
              case DdgNodeKind::Issue: {
                const DdgInst &inst = trace.insts[owner];
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
        addSimple(src, src_t, cls, observed - src_t);
    }
    edgeStart_.push_back(static_cast<std::uint32_t>(edgeCount_));
}

DdgGraph::Edge
DdgGraph::edge(std::size_t e) const
{
    const std::uint32_t word = edgeWord()[e];
    const unsigned code = word & (kNumCodes - 1);
    Edge out;
    out.src = edgeSrc()[e];
    out.cls = static_cast<EdgeClass>(code / kNumFuClasses);
    out.fuClass = static_cast<FuClass>(code % kNumFuClasses);
    out.missExtra = edgeMiss()[e];
    out.weight = (word >> kCodeBits) - out.missExtra;
    return out;
}

// --------------------------------------------------------------------
// Relaxation
// --------------------------------------------------------------------

DdgGraph::Resolved
DdgGraph::resolve(const WhatIf &what_if) const
{
    const AppliedWhatIf applied = what_if.appliedTo(cfg_);
    Resolved r;
    r.capacity[kSuCapacity] = {applied.suBlocks, commitOrder_.data(), 0,
                               EdgeClass::SuCapacity};
    r.capacity[kIssueCapacity] = {applied.issueWidth, issueOrder_.data(),
                                  1, EdgeClass::IssueBandwidth};
    r.perfectDCache = applied.perfectDCache;

    auto at = [&](EdgeClass cls, unsigned fu_cls) -> std::int64_t & {
        return r.addend[static_cast<unsigned>(cls) * kNumFuClasses +
                        fu_cls];
    };
    auto fill = [&](EdgeClass cls, std::int64_t value) {
        for (unsigned c = 0; c < kNumFuClasses; ++c)
            at(cls, c) = value;
    };
    fill(EdgeClass::Raw, applied.bypassing ? 0 : 1);
    for (unsigned c = 0; c < kNumFuClasses; ++c) {
        const std::int64_t lat = applied.fuLatency[c];
        at(EdgeClass::Execute, c) = lat;
        at(EdgeClass::CacheMiss, c) = lat;
        at(EdgeClass::Writeback, c) = lat;
    }
    // Residual waits the what-if removes (a deeper SU, wider issue,
    // infinite store buffer, perfect D-cache): the recorded wait no
    // longer applies on that machine.
    if (applied.suBlocks > cfg_.suBlocks())
        fill(EdgeClass::SuCapacity, kDropped);
    if (applied.issueWidth > cfg_.issueWidth)
        fill(EdgeClass::IssueBandwidth, kDropped);
    if (applied.infiniteStoreBuffer)
        fill(EdgeClass::StoreBufferFull, kDropped);
    if (applied.perfectDCache)
        fill(EdgeClass::CachePort, kDropped);
    return r;
}

template <bool kPerfectDCache>
inline std::int64_t
DdgGraph::storedWeight(const std::uint32_t *word,
                       const std::uint32_t *miss, std::uint32_t e,
                       const Resolved &r)
{
    std::int64_t w =
        (word[e] >> kCodeBits) + r.addend[word[e] & (kNumCodes - 1)];
    if constexpr (kPerfectDCache)
        w -= miss[e];
    return w;
}

inline const DdgGraph::Resolved::Capacity *
DdgGraph::capacityEdge(std::uint32_t p, const Resolved &r,
                       std::uint32_t &src) const
{
    const std::uint32_t word = capacity_[p];
    const Resolved::Capacity &kind =
        r.capacity[word >> kCapacityKindShift];
    const std::uint32_t rank = word & kRankMask;
    if (rank < kind.cap)
        return nullptr;
    src = kind.order[rank - kind.cap];
    return &kind;
}

std::uint64_t
DdgGraph::relaxTimes(const Resolved &r, std::int64_t *time) const
{
    const auto numNodes = static_cast<std::uint32_t>(nodes_.size());
    const std::uint32_t *start = edgeStart_.data();
    const std::uint32_t *src = edgeSrc();
    const std::uint32_t *word = edgeWord();
    const std::uint32_t *miss = edgeMiss();
    // One loop per D-cache mode: only a perfect D-cache reads the
    // miss cycles.
    auto pass = [&](auto perfect_dcache) {
        constexpr bool kPerfect = decltype(perfect_dcache)::value;
        std::uint64_t skipped = 0;
        for (std::uint32_t p = 0; p < numNodes; ++p) {
            std::int64_t t = 0;
            for (std::uint32_t e = start[p]; e < start[p + 1]; ++e) {
                const std::int64_t w =
                    storedWeight<kPerfect>(word, miss, e, r);
                t = std::max(t, time[src[e]] + w);
            }

            // Rewireable capacity constraints, recomputed from the
            // baseline orderings under the projected capacities. A
            // capacity DECREASE can ask for a source that is not
            // topologically earlier; such edges are skipped and
            // counted, and classifyWhatIf() tags the projection
            // pessimistic-bound.
            std::uint32_t from = 0;
            if (const auto *cap = capacityEdge(p, r, from)) {
                if (from < p)
                    t = std::max(t, time[from] + cap->weight);
                else
                    ++skipped;
            }
            time[p] = t;
        }
        return skipped;
    };
    return r.perfectDCache ? pass(std::true_type{})
                           : pass(std::false_type{});
}

void
DdgGraph::walkCriticalPath(const Resolved &r, const std::int64_t *time,
                           CriticalPath &path) const
{
    // Walk back from End, re-deriving at each node the edge that set
    // its time, and charge that edge's weight to its class. The
    // charges sum to the projected cycle count by construction. The
    // rule matches the forward pass: the first strictly larger
    // candidate wins, a zero-weight edge from Start is taken while
    // nothing else has been, dropped edges never win, and the
    // capacity edge comes last.
    const std::uint32_t *start = edgeStart_.data();
    const std::uint32_t *src = edgeSrc();
    const std::uint32_t *word = edgeWord();
    const std::uint32_t *miss = edgeMiss();
    auto walk = [&](auto perfect_dcache) {
        constexpr bool kPerfect = decltype(perfect_dcache)::value;
        std::uint32_t cur = static_cast<std::uint32_t>(nodes_.size()) - 1;
        while (cur != 0) {
            std::int64_t t = 0;
            bool taken = false;
            std::uint32_t argSrc = 0;
            unsigned argCls = 0;
            std::int64_t argWeight = 0;
            for (std::uint32_t e = start[cur]; e < start[cur + 1]; ++e) {
                const std::int64_t w =
                    storedWeight<kPerfect>(word, miss, e, r);
                const std::int64_t cand = time[src[e]] + w;
                if (cand > t || (!taken && src[e] == 0 && cand == t)) {
                    t = cand;
                    argSrc = src[e];
                    argCls = (word[e] & (kNumCodes - 1)) / kNumFuClasses;
                    argWeight = w;
                    taken = true;
                }
            }
            std::uint32_t from = 0;
            const auto *cap = capacityEdge(cur, r, from);
            if (cap && from < cur && time[from] + cap->weight > t) {
                t = time[from] + cap->weight;
                argSrc = from;
                argCls = static_cast<unsigned>(cap->cls);
                argWeight = cap->weight;
                taken = true;
            }
            sdsp_assert(t == time[cur],
                        "critical-path walk: node %u re-derived %lld, "
                        "relaxed %lld",
                        cur, static_cast<long long>(t),
                        static_cast<long long>(time[cur]));
            if (!taken)
                break; // time 0 with no incoming edge
            path.breakdown[argCls] += static_cast<Cycle>(argWeight);
            ++path.edgeCounts[argCls];
            cur = argSrc;
        }
    };
    if (r.perfectDCache)
        walk(std::true_type{});
    else
        walk(std::false_type{});
}

Confidence
classifyWhatIf(const WhatIf &what_if, const MachineConfig &config)
{
    if (what_if.isBaseline(config))
        return Confidence::Exact;
    const AppliedWhatIf applied = what_if.appliedTo(config);
    if (applied.suBlocks < config.suBlocks() ||
        applied.issueWidth < config.issueWidth)
        return Confidence::PessimisticBound;
    return Confidence::OptimisticBound;
}

RelaxResult
DdgGraph::project(const WhatIf &what_if, const Resolved &r,
                  std::int64_t *time) const
{
    RelaxResult result;
    result.skippedCapacityEdges = relaxTimes(r, time);
    result.cycles = static_cast<Cycle>(time[nodes_.size() - 1]);
    result.confidence = classifyWhatIf(what_if, cfg_);
    return result;
}

RelaxResult
DdgGraph::relax(const WhatIf &what_if) const
{
    const auto time =
        std::make_unique_for_overwrite<std::int64_t[]>(nodes_.size());
    return project(what_if, resolve(what_if), time.get());
}

CriticalPath
DdgGraph::criticalPath(const WhatIf &what_if) const
{
    const Resolved r = resolve(what_if);
    const auto time =
        std::make_unique_for_overwrite<std::int64_t[]>(nodes_.size());
    CriticalPath path;
    static_cast<RelaxResult &>(path) = project(what_if, r, time.get());
    walkCriticalPath(r, time.get(), path);
    return path;
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
    const std::uint32_t *src = edgeSrc();
    for (std::uint32_t p = 0;
         p < static_cast<std::uint32_t>(nodes_.size()); ++p) {
        for (std::uint32_t e = edgeStart_[p]; e < edgeStart_[p + 1];
             ++e) {
            const Cycle slack =
                nodes_[p].observed - nodes_[src[e]].observed -
                static_cast<Cycle>(storedWeight<false>(
                    edgeWord(), edgeMiss(), e, baseline));
            out[static_cast<unsigned>(edge(e).cls)].sample(slack);
        }
    }
}

} // namespace sdsp
