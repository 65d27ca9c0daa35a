/**
 * @file
 * The Scheduling Unit (SU): the SDSP's combined reorder buffer and
 * instruction window.
 *
 * The SU is a FIFO of fetch blocks (4 instructions each). Newly
 * decoded blocks enter at the top; blocks leave from the bottom region
 * at result commit. Each entry carries the decoded instruction, its
 * renaming tag (a globally unique sequence number), its thread ID (the
 * single field multithreading adds — paper section 3.2), operand
 * values/tags, and execution state.
 *
 * Multithreading specifics implemented here:
 *  - operand lookup matches on (thread, register), newest first;
 *  - selective squash removes only same-thread entries younger than a
 *    mispredicted control transfer;
 *  - Flexible Result Commit may retire any of the bottom four blocks
 *    whose thread differs from every incomplete block below it.
 *
 * Implementation: the architectural model is a linear window, but no
 * hot-path query searches it (DESIGN.md, "Simulator performance").
 * Entries live in one fixed arena of capacity-blocks x block-size
 * slots; a resident block owns one run of block-size slots, so an
 * entry's slot is its address for the whole time it is resident, and
 * the window's bottom-to-top order is a short list of block numbers.
 * Everything that names an entry names its slot:
 *  - the FU pool returns each completion with its producer's slot;
 *  - a waiting operand holds its producer's slot, and each producer
 *    heads an intrusive chain of the operands waiting on it, so a
 *    broadcast touches only those consumers;
 *  - each writer links to the next older and younger in-flight writer
 *    of its (thread, register), and a per-(thread, register) table
 *    holds the newest one (findNewestWriter);
 *  - the Ready entries form a tag-ordered queue that the issue stage
 *    walks instead of the window;
 *  - each block counts its valid entries that are not yet Done, so
 *    SuBlock::complete() is one comparison.
 * Per-thread sorted lists of unbuffered store tags serve the two O(1)
 * memory-disambiguation queries. All storage is sized at construction:
 * the steady-state cycle loop performs no heap allocation.
 */

#ifndef SDSP_CORE_SU_HH
#define SDSP_CORE_SU_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/stats_registry.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "isa/instruction.hh"

namespace sdsp
{

/** Index of an entry slot in the SU's arena. */
using SuSlot = std::uint32_t;

/** "No slot": the end of a chain, or a producer that is not resident. */
inline constexpr SuSlot kNoSlot = ~SuSlot{0};

/** Execution state of one SU entry. */
enum class EntryState : std::uint8_t
{
    Waiting, //!< missing at least one source operand
    Ready,   //!< all operands present; eligible for issue
    Issued,  //!< executing in a functional unit
    Done,    //!< result written back (or no result to produce)
};

/** One source operand: either a value or a tag to wait for. */
struct Operand
{
    bool ready = true;
    RegVal value = 0;
    Tag tag = kNoTag;
    /**
     * While waiting: the slot of the producer whose waiter chain holds
     * this operand, or kNoSlot when the producer is not resident. The
     * renamer sets it from the producer it found; the SU resolves a
     * missing or stale value from the tag when the entry is entered.
     */
    SuSlot producer = kNoSlot;
};

/**
 * One instruction resident in the scheduling unit. The fields every
 * stage touches (state, tag, links, issue timing) come first, so they
 * share the entry's first cache line.
 */
struct SuEntry
{
    bool valid = false; //!< false: empty or squashed slot
    ThreadId tid = 0;
    EntryState state = EntryState::Waiting;
    bool storeBuffered = false; //!< store deposited in store buffer
                                //!< (set via markStoreBuffered)
    /** Load or store issued at a misaligned or out-of-range address:
     *  squashed on a wrong path, a fault if it commits. */
    bool badAddress = false;
    Tag seq = 0;                //!< unique renaming tag / age

    // ---- Links, managed by the SchedulingUnit. A waiter link
    // encodes (slot << 1) | operand, operand 0 = src1, 1 = src2. ----
    /** First operand waiting on this entry's result. */
    std::uint32_t waitHead = kNoSlot;
    /** Next operand waiting on the same producer as src1 / src2. */
    std::uint32_t nextWaiter[2] = {kNoSlot, kNoSlot};
    /** Neighbouring in-flight writers of the same (thread, rd). */
    SuSlot olderWriter = kNoSlot;
    SuSlot youngerWriter = kNoSlot;

    InstAddr pc = 0;
    Instruction inst;

    /** Earliest cycle this entry may issue (bypassing control). */
    Cycle earliestIssue = 0;

    // ---- Control transfer bookkeeping ----
    bool predictedTaken = false;
    bool resolvedTaken = false;
    bool mispredicted = false;
    InstAddr predictedNextPc = 0; //!< PC fetch continued from
    InstAddr resolvedNextPc = 0;

    Operand src1;
    Operand src2;
    RegVal result = 0;

    // ---- Lifecycle timestamps (observability) ----
    Cycle fetchedAt = 0;   //!< cycle the block entered the fetch latch
    Cycle dispatchedAt = 0; //!< cycle the entry entered the SU
    Cycle issuedAt = 0;     //!< cycle the entry left for its FU
    Cycle completedAt = 0;  //!< cycle the result wrote back

    // ---- Dependence evidence (critical-path analysis). Plain
    // recording with no timing effect; published on the CommitInst
    // trace event at retirement. ----
    Cycle readyAt = 0;  //!< cycle the last pending operand arrived
    Tag wakeupTag = 0;  //!< broadcast that completed the operands
    Tag waitTag1 = 0;   //!< src1 producer in flight at rename (0 none)
    Tag waitTag2 = 0;   //!< src2 producer in flight at rename (0 none)
    Cycle missExtra = 0; //!< load miss cycles beyond the FU latency
    Cycle issueBlockCycle = 0; //!< last cycle an issue attempt failed
    IssueBlockCause issueBlockCause = IssueBlockCause::None;
    DispatchWaitCause dispatchWaitCause = DispatchWaitCause::None;

    /** All sources present? */
    bool operandsReady() const { return src1.ready && src2.ready; }
};

/** One SU block header: a fetch block's worth of entries, all of one
 *  thread, stored in consecutive arena slots. */
struct SuBlock
{
    ThreadId tid = 0;
    Tag blockSeq = 0;     //!< seq of the first (oldest) entry
    unsigned size = 0;    //!< entries dispatched into the block
    unsigned live = 0;    //!< valid entries
    unsigned pending = 0; //!< valid entries not yet Done

    /** All valid entries executed to completion? */
    bool complete() const { return pending == 0; }

    /** Any valid entries left (false after a full squash)? */
    bool anyValid() const { return live > 0; }
};

/** Outcome of the commit-selection scan. */
struct CommitSelection
{
    bool found = false;
    /** Index into the block list (0 = bottom). */
    std::size_t blockIndex = 0;
};

/** The combined reorder buffer + instruction window. */
class SchedulingUnit
{
  public:
    /**
     * @param num_blocks      Capacity in blocks (suEntries /
     *                        blockSize).
     * @param block_size      Instructions per block (a power of two).
     * @param num_threads     Hardware threads (sizes the newest-writer
     *                        table and the disambiguation lists).
     * @param regs_per_thread Architectural registers per thread.
     */
    SchedulingUnit(unsigned num_blocks, unsigned block_size,
                   unsigned num_threads = 8,
                   unsigned regs_per_thread = 64);

    /** Room for one more block? */
    bool hasSpace() const { return order.size() < capacityBlocks; }

    /** No blocks resident? */
    bool empty() const { return order.empty(); }

    /** Resident blocks. */
    std::size_t blockCount() const { return order.size(); }

    /** Header of resident block @p index (0 = bottom, oldest). */
    const SuBlock &
    block(std::size_t index) const
    {
        return headers[order[index]];
    }

    /** Entries of resident block @p index, in program order
     *  (squashed ones included, with valid == false). */
    std::span<const SuEntry>
    entries(std::size_t index) const
    {
        return {arena.data() + firstSlot(order[index]),
                headers[order[index]].size};
    }

    /** Occupied entries (valid only). */
    unsigned occupancy() const { return validCount; }

    /** Occupied entries of one thread. */
    unsigned
    occupancy(ThreadId tid) const
    {
        return validPerThread[tid];
    }

    /** Valid entries of @p tid not yet in the Done state (still
     *  waiting, ready, or executing). Zero with occupancy(tid) > 0
     *  means the thread is purely commit-blocked. */
    unsigned
    pendingOf(ThreadId tid) const
    {
        return pendingPerThread[tid];
    }

    /** Transition @p entry to Done, keeping the pending counts and
     *  the ready queue in sync. The writeback stage must use this
     *  instead of writing entry.state directly. */
    void markDone(SuEntry &entry);

    /**
     * Open a new block at the top for thread @p tid whose first entry
     * will carry tag @p block_seq. Fill it with appendEntry() /
     * finishEntry(). Caller checked hasSpace().
     */
    void beginDispatch(ThreadId tid, Tag block_seq);

    /**
     * Reset the next slot of the block opened by beginDispatch() and
     * return it for filling. Until finishEntry(), the entry is not
     * indexed: operand lookups for its own sources see only older
     * entries.
     */
    SuEntry &appendEntry();

    /**
     * Make a filled entry (valid, tag, thread, instruction, operands,
     * state) resident: it becomes the newest writer of its register,
     * joins its producers' waiter chains, and enters the ready queue
     * if Ready.
     */
    void finishEntry(SuEntry &entry);

    /** Append a block holding copies of @p block_entries (program
     *  order, at least one) at the top. Caller checked hasSpace(). */
    void dispatch(ThreadId tid, std::span<const SuEntry> block_entries);

    /**
     * Operand lookup for the decoder: find the newest in-flight
     * writer of (tid, reg). @return the producing entry, or nullptr
     * if the value should come from the register file.
     */
    const SuEntry *
    findNewestWriter(ThreadId tid, RegIndex reg) const
    {
        sdsp_assert(tid < numThreads && reg < regsPerThread,
                    "operand lookup outside the SU's partition");
        SuSlot slot = newestWriter[writerIndex(tid, reg)];
        return slot == kNoSlot ? nullptr : &arena[slot];
    }

    /** Is there any in-flight entry of @p tid writing @p reg?
     *  (1-bit scoreboard dispatch check.) */
    bool
    hasInflightWriter(ThreadId tid, RegIndex reg) const
    {
        return findNewestWriter(tid, reg) != nullptr;
    }

    /** Slot of a resident entry. */
    SuSlot
    slotOf(const SuEntry &entry) const
    {
        return static_cast<SuSlot>(&entry - arena.data());
    }

    /** The resident entry in @p slot if it still carries tag @p seq;
     *  nullptr once that entry was squashed or left the window. */
    SuEntry *
    entryAt(SuSlot slot, Tag seq)
    {
        SuEntry &entry = arena[slot];
        return entry.valid && entry.seq == seq ? &entry : nullptr;
    }

    /** Locate an entry by its unique tag (a search over the resident
     *  blocks, for tests and diagnostics). @return nullptr if gone. */
    SuEntry *findBySeq(Tag seq);

    /**
     * Broadcast @p producer's result: every operand waiting on it
     * receives the value.
     *
     * @param producer  Resident entry whose result is written back.
     * @param value     Result value.
     * @param now       Current cycle.
     * @param bypassing If false, woken entries may issue only from
     *                  the next cycle.
     */
    void broadcast(const SuEntry &producer, RegVal value, Cycle now,
                   bool bypassing);

    /** Broadcast by tag: as above, and the producer need not be
     *  resident (waiters on a squashed or unknown tag still wake,
     *  exactly as a scan over the window would wake them). */
    void broadcast(Tag seq, RegVal value, Cycle now, bool bypassing);

    /**
     * Walk the Ready entries oldest-first (ascending tag) and offer
     * each to @p try_issue, until @p max_issue of them issued. An
     * entry for which try_issue returns true becomes Issued and
     * leaves the ready queue; the others stay Ready. try_issue must
     * not dispatch, squash, broadcast or remove blocks.
     * @return Entries issued.
     */
    template <typename TryIssue>
    unsigned
    issueReady(unsigned max_issue, TryIssue &&try_issue)
    {
        unsigned issued = 0;
        std::size_t kept = 0;
        std::size_t next = 0;
        const std::size_t count = readyQueue.size();
        for (; next < count && issued < max_issue; ++next) {
            ReadyRef ref = readyQueue[next];
            SuEntry &entry = arena[ref.slot];
            if (try_issue(entry)) {
                entry.state = EntryState::Issued;
                ++issued;
            } else {
                readyQueue[kept++] = ref;
            }
        }
        if (kept != next) {
            readyQueue.erase(readyQueue.begin() +
                                 static_cast<std::ptrdiff_t>(kept),
                             readyQueue.begin() +
                                 static_cast<std::ptrdiff_t>(next));
        }
        return issued;
    }

    /** Ready entries (the length of the ready queue). */
    std::size_t readyEntries() const { return readyQueue.size(); }

    /**
     * Selective squash after a mispredicted control transfer of
     * thread @p tid: invalidate every same-thread entry with
     * seq > @p after and drop emptied blocks. Operations of squashed
     * entries still in a functional unit are dropped when they
     * complete (entryAt() no longer finds them).
     *
     * @param squashed_seqs If non-null, receives the tags of all
     *                      squashed entries, oldest first.
     * @return Number of entries squashed.
     */
    unsigned squashThread(ThreadId tid, Tag after,
                          std::vector<Tag> *squashed_seqs = nullptr);

    /**
     * Commit selection (paper Figure 2): scan the bottom
     * @p window_blocks blocks bottom-up and pick the first complete
     * block whose thread differs from every incomplete block below
     * it.
     */
    CommitSelection selectCommit(unsigned window_blocks) const;

    /** Remove the block at @p block_index (after committing it) and
     *  return its header. Its entries leave every index. */
    SuBlock removeBlock(std::size_t block_index);

    /** Record that @p entry's store was deposited in the store
     *  buffer. Keeps the disambiguation index in sync — callers must
     *  not set entry.storeBuffered directly. */
    void markStoreBuffered(SuEntry &entry);

    /**
     * Is there an older same-thread store, not yet executed into the
     * store buffer, below the given load? (Conservative memory
     * disambiguation: such a store has an unresolved address.)
     */
    bool
    hasOlderUnresolvedStore(ThreadId tid, Tag load_seq) const
    {
        const std::vector<Tag> &list = unbufferedStores[tid];
        return !list.empty() && list.front() < load_seq;
    }

    /**
     * Is there an older store of ANY thread not yet in the store
     * buffer? Used to reserve the last store-buffer slot for the
     * globally oldest store, which guarantees the buffer always
     * drains (without the reservation, younger stores can fill the
     * buffer while the commit of its head transitively waits — via
     * load disambiguation — on an older store that can no longer
     * enter).
     */
    bool
    hasOlderUnbufferedStore(Tag seq) const
    {
        for (const std::vector<Tag> &list : unbufferedStores) {
            if (!list.empty() && list.front() < seq)
                return true;
        }
        return false;
    }

    /**
     * Number of stores (any thread) not yet in the store buffer, in
     * blocks strictly below @p target's block or in @p target's own
     * block, excluding @p target itself.
     *
     * The store buffer drains in global tag order from its head, and
     * an SU block only commits whole; so before @p target may claim a
     * buffer slot there must remain a free slot for every such store
     * — otherwise a block with several stores can wedge with some
     * buffered and the rest locked out of a full buffer, and the
     * buffer's head (in that block) never becomes committable.
     */
    std::size_t
    countUnbufferedStoresThrough(const SuEntry &target) const
    {
        // Tags are assigned in dispatch order, so each block covers
        // the contiguous tag range [blockSeq, blockSeq + size) and
        // every block below it holds smaller tags. Count, in the
        // sorted per-thread disambiguation lists, every unbuffered
        // store whose tag falls below the end of the target's block.
        // The target is itself an unbuffered store below the bound —
        // exclude it.
        const SuBlock &home = headers[blockOf(slotOf(target))];
        Tag bound = home.blockSeq + home.size;
        sdsp_assert(target.valid && target.seq < bound,
                    "store entry not resident in the SU");
        std::size_t count = 0;
        for (const std::vector<Tag> &list : unbufferedStores) {
            count += static_cast<std::size_t>(
                std::lower_bound(list.begin(), list.end(), bound) -
                list.begin());
        }
        sdsp_assert(count > 0,
                    "target store missing from disambiguation index");
        return count - 1;
    }

    /**
     * Iterate entries oldest-first (bottom block first, in-block
     * program order). The visitor returns false to stop early.
     */
    template <typename Visitor>
    void
    forEachOldestFirst(Visitor &&visit)
    {
        for (std::uint32_t id : order) {
            SuEntry *first = arena.data() + firstSlot(id);
            for (unsigned i = 0; i < headers[id].size; ++i) {
                if (!first[i].valid)
                    continue;
                if (!visit(first[i]))
                    return;
            }
        }
    }

  private:
    /** A ready-queue element: the entry's tag (the sort key) and its
     *  slot. */
    struct ReadyRef
    {
        Tag seq;
        SuSlot slot;
    };

    /** An operand waiting on a tag whose producer is not resident
     *  (reachable only by driving the SU directly). */
    struct Orphan
    {
        Tag tag;
        std::uint32_t waiter; //!< (slot << 1) | operand
    };

    std::size_t
    firstSlot(std::uint32_t block_id) const
    {
        return static_cast<std::size_t>(block_id) << blockShift;
    }

    std::uint32_t
    blockOf(SuSlot slot) const
    {
        return slot >> blockShift;
    }

    std::size_t
    writerIndex(ThreadId tid, RegIndex reg) const
    {
        return static_cast<std::size_t>(tid) * regsPerThread + reg;
    }

    /** Slot of the resident entry tagged @p seq, or kNoSlot. */
    SuSlot lookup(Tag seq) const;

    /** Wake the operand encoded by @p waiter with @p producer's
     *  result. */
    void wake(std::uint32_t waiter, Tag producer, RegVal value,
              Cycle now, Cycle earliest);

    /** Detach the waiting operand @p op of the entry in @p slot from
     *  its producer's chain (or from the orphan list). */
    void unlinkWaiter(SuSlot slot, unsigned op);

    /** Hand the valid waiters still chained on the leaving entry in
     *  @p slot to the orphan list, so a later broadcast of its tag
     *  still reaches them. */
    void orphanWaiters(SuSlot slot);

    /** Take the leaving entry in @p slot out of the writer chain of
     *  its (thread, register). */
    void unlinkWriter(SuSlot slot);

    /** Remove the entry tagged @p seq from the ready queue. */
    void dropReady(Tag seq);

    unsigned capacityBlocks;
    unsigned blockSize;
    unsigned blockShift = 0;
    unsigned numThreads;
    unsigned regsPerThread;

    /** capacityBlocks * blockSize entry slots; block b owns slots
     *  [b * blockSize, (b + 1) * blockSize). */
    std::vector<SuEntry> arena;
    /** headers[b]: the block held in block b's slots. */
    std::vector<SuBlock> headers;
    /** Resident block numbers, bottom (oldest) first. */
    std::vector<std::uint32_t> order;
    /** Block numbers not resident. */
    std::vector<std::uint32_t> freeBlocks;

    /** Valid (non-squashed) resident entries. */
    unsigned validCount = 0;

    /** Valid resident entries per thread. */
    std::vector<unsigned> validPerThread;
    /** Valid entries per thread not yet Done (see pendingOf). */
    std::vector<unsigned> pendingPerThread;

    /** Every valid Ready entry, ascending tag. */
    std::vector<ReadyRef> readyQueue;

    /** newestWriter[tid * regsPerThread + reg]: slot of the newest
     *  in-flight writer of that (thread, register), or kNoSlot. */
    std::vector<SuSlot> newestWriter;

    /** Per-thread ascending tags of resident stores not yet in the
     *  store buffer — front() is the oldest. */
    std::vector<std::vector<Tag>> unbufferedStores;

    /** Waiters on tags with no resident producer. */
    std::vector<Orphan> orphans;
};

} // namespace sdsp

#endif // SDSP_CORE_SU_HH
