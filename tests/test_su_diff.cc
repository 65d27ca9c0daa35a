/**
 * @file
 * Differential test for the slot-addressed SchedulingUnit.
 *
 * The production SU answers every hot-path query from structures
 * addressed by arena slot (writer chains, waiter chains, the ready
 * queue, per-block pending counts) plus unbuffered store lists. This
 * test re-implements the SU as the obvious scan-over-the-window
 * model, drives both with the same randomized dispatch / issue /
 * broadcast / squash / buffer / commit sequences, and checks after
 * every operation that all externally visible behaviour is identical:
 * entry lookup and contents, newest-writer answers, both
 * memory-disambiguation queries, commit selection, block completion,
 * per-thread occupancy and pending counts, iteration order and the
 * ready queue's order. Any structure that drifts out of sync with the
 * linear window shows up here as a divergence.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/su.hh"

namespace sdsp
{
namespace
{

/** One block of the reference model. */
struct RefBlock
{
    ThreadId tid = 0;
    Tag blockSeq = 0;
    std::vector<SuEntry> entries;

    bool
    complete() const
    {
        for (const auto &entry : entries) {
            if (entry.valid && entry.state != EntryState::Done)
                return false;
        }
        return true;
    }
};

/**
 * The scan-based reference model: a linear window of blocks; every
 * query walks it. Semantics are the pre-index SU's.
 */
class ReferenceSu
{
  public:
    ReferenceSu(unsigned num_blocks, unsigned block_size)
        : capacityBlocks(num_blocks), blockSize(block_size)
    {
    }

    bool hasSpace() const { return blocks.size() < capacityBlocks; }
    bool empty() const { return blocks.empty(); }
    const std::vector<RefBlock> &contents() const { return blocks; }

    unsigned
    occupancy() const
    {
        unsigned count = 0;
        for (const auto &block : blocks) {
            for (const auto &entry : block.entries) {
                if (entry.valid)
                    ++count;
            }
        }
        return count;
    }

    void
    dispatch(RefBlock block)
    {
        ASSERT_TRUE(hasSpace());
        ASSERT_LE(block.entries.size(), blockSize);
        blocks.push_back(std::move(block));
    }

    const SuEntry *
    findNewestWriter(ThreadId tid, RegIndex reg) const
    {
        for (auto bit = blocks.rbegin(); bit != blocks.rend(); ++bit) {
            if (bit->tid != tid)
                continue;
            for (auto eit = bit->entries.rbegin();
                 eit != bit->entries.rend(); ++eit) {
                if (eit->valid && eit->inst.writesRd() &&
                    eit->inst.rd == reg) {
                    return &*eit;
                }
            }
        }
        return nullptr;
    }

    SuEntry *
    findBySeq(Tag seq)
    {
        for (auto &block : blocks) {
            for (auto &entry : block.entries) {
                if (entry.valid && entry.seq == seq)
                    return &entry;
            }
        }
        return nullptr;
    }

    void
    broadcast(Tag seq, RegVal value, Cycle now, bool bypassing)
    {
        for (auto &block : blocks) {
            for (auto &entry : block.entries) {
                if (!entry.valid ||
                    entry.state != EntryState::Waiting) {
                    continue;
                }
                bool woke = false;
                for (Operand *op : {&entry.src1, &entry.src2}) {
                    if (!op->ready && op->tag == seq) {
                        op->ready = true;
                        op->value = value;
                        woke = true;
                    }
                }
                if (woke && entry.operandsReady()) {
                    entry.state = EntryState::Ready;
                    entry.earliestIssue =
                        std::max(entry.earliestIssue,
                                 bypassing ? now : now + 1);
                }
            }
        }
    }

    unsigned
    squashThread(ThreadId tid, Tag after)
    {
        unsigned squashed = 0;
        for (auto &block : blocks) {
            if (block.tid != tid)
                continue;
            for (auto &entry : block.entries) {
                if (entry.valid && entry.seq > after) {
                    entry.valid = false;
                    ++squashed;
                }
            }
        }
        for (auto it = blocks.begin(); it != blocks.end();) {
            bool any = false;
            for (const auto &entry : it->entries)
                any |= entry.valid;
            if (it->tid == tid && it->blockSeq > after && !any)
                it = blocks.erase(it);
            else
                ++it;
        }
        return squashed;
    }

    CommitSelection
    selectCommit(unsigned window_blocks) const
    {
        std::size_t window =
            std::min<std::size_t>(window_blocks, blocks.size());
        for (std::size_t i = 0; i < window; ++i) {
            if (!blocks[i].complete())
                continue;
            bool blocked = false;
            for (std::size_t j = 0; j < i; ++j) {
                if (!blocks[j].complete() &&
                    blocks[j].tid == blocks[i].tid) {
                    blocked = true;
                    break;
                }
            }
            if (!blocked)
                return {true, i};
        }
        return {false, 0};
    }

    RefBlock
    removeBlock(std::size_t block_index)
    {
        RefBlock block = std::move(blocks[block_index]);
        blocks.erase(blocks.begin() +
                     static_cast<std::ptrdiff_t>(block_index));
        return block;
    }

    void
    markStoreBuffered(Tag seq)
    {
        SuEntry *entry = findBySeq(seq);
        ASSERT_NE(entry, nullptr);
        entry->storeBuffered = true;
    }

    bool
    hasOlderUnresolvedStore(ThreadId tid, Tag load_seq) const
    {
        for (const auto &block : blocks) {
            for (const auto &entry : block.entries) {
                if (entry.valid && entry.tid == tid &&
                    entry.inst.isStore() && !entry.storeBuffered &&
                    entry.seq < load_seq) {
                    return true;
                }
            }
        }
        return false;
    }

    bool
    hasOlderUnbufferedStore(Tag seq) const
    {
        for (const auto &block : blocks) {
            for (const auto &entry : block.entries) {
                if (entry.valid && entry.inst.isStore() &&
                    !entry.storeBuffered && entry.seq < seq) {
                    return true;
                }
            }
        }
        return false;
    }

  private:
    unsigned capacityBlocks;
    unsigned blockSize;
    std::vector<RefBlock> blocks;
};

/** Deterministic xorshift RNG (no libc rand dependence). */
struct Rng
{
    std::uint64_t state;

    explicit Rng(std::uint64_t seed) : state(seed | 1) {}

    std::uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }

    /** Uniform in [0, bound). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    bool chance(unsigned percent) { return below(100) < percent; }
};

constexpr unsigned kBlocks = 4;
constexpr unsigned kBlockSize = 4;
constexpr unsigned kThreads = 4;
constexpr unsigned kRegs = 16;

/** Drives the production SU and the reference in lock-step. */
class DiffHarness
{
  public:
    explicit DiffHarness(std::uint64_t seed)
        : su(kBlocks, kBlockSize, kThreads, kRegs),
          ref(kBlocks, kBlockSize),
          rng(seed)
    {
    }

    void
    run(unsigned operations)
    {
        for (unsigned i = 0; i < operations; ++i) {
            step();
            if (HasFatalFailure())
                return;
            compareAll(i);
            if (HasFatalFailure() || HasNonfatalFailure()) {
                ADD_FAILURE() << "divergence after operation " << i;
                return;
            }
        }
    }

  private:
    void
    step()
    {
        ++now;
        switch (rng.below(11)) {
          case 0:
          case 1:
          case 2:
            doDispatch();
            break;
          case 3:
          case 4:
          case 5:
            doComplete();
            break;
          case 6:
            doBufferStore();
            break;
          case 7:
            doSquash();
            break;
          case 8:
            doIssue();
            break;
          default:
            doCommit();
            break;
        }
    }

    void
    doDispatch()
    {
        if (!su.hasSpace())
            return;
        auto tid = static_cast<ThreadId>(rng.below(kThreads));
        unsigned count = 1 + rng.below(kBlockSize);

        RefBlock block;
        block.tid = tid;
        block.blockSeq = nextSeq;
        for (unsigned k = 0; k < count; ++k) {
            SuEntry entry;
            entry.valid = true;
            entry.seq = nextSeq++;
            entry.tid = tid;
            entry.pc = static_cast<InstAddr>(entry.seq);
            if (rng.chance(25)) {
                // A store: reads two sources, writes no register.
                entry.inst = Instruction::makeB(
                    Opcode::ST, static_cast<RegIndex>(rng.below(kRegs)),
                    static_cast<RegIndex>(rng.below(kRegs)), 0);
            } else {
                entry.inst = Instruction::makeR(
                    Opcode::ADD, static_cast<RegIndex>(rng.below(kRegs)),
                    0, 0);
            }
            entry.src1 = makeOperand();
            entry.src2 = makeOperand();
            entry.state = entry.operandsReady() ? EntryState::Ready
                                                : EntryState::Waiting;
            entry.earliestIssue = now + 1;
            block.entries.push_back(entry);
        }

        su.dispatch(tid, block.entries);
        ref.dispatch(std::move(block));
    }

    Operand
    makeOperand()
    {
        Operand operand;
        if (rng.chance(40) && nextSeq > 1) {
            // Wait on some earlier tag: usually live, sometimes long
            // gone (exercises stale-tag broadcast on both models).
            Tag target = 1 + rng.below(nextSeq - 1);
            const SuEntry *producer = ref.findBySeq(target);
            if (producer && producer->state != EntryState::Done) {
                operand.ready = false;
                operand.tag = target;
                return operand;
            }
            if (rng.chance(20)) {
                operand.ready = false;
                operand.tag = target; // stale or completed producer
                return operand;
            }
        }
        operand.ready = true;
        operand.value = rng.next() & 0xffff;
        return operand;
    }

    void
    doIssue()
    {
        // Issue a random subset of the Ready entries through the
        // ready queue, at most a random width; the reference marks
        // the same entries Issued.
        unsigned width = 1 + rng.below(4);
        std::vector<Tag> issued;
        su.issueReady(width, [&](SuEntry &entry) {
            if (!rng.chance(60))
                return false;
            issued.push_back(entry.seq);
            return true;
        });
        for (Tag seq : issued) {
            SuEntry *theirs = ref.findBySeq(seq);
            ASSERT_NE(theirs, nullptr);
            EXPECT_EQ(theirs->state, EntryState::Ready);
            theirs->state = EntryState::Issued;
        }
    }

    void
    doComplete()
    {
        // Complete one ready or issued non-store entry: mark Done and
        // broadcast its (random) result to both models.
        std::vector<Tag> ready;
        su.forEachOldestFirst([&](SuEntry &entry) {
            if ((entry.state == EntryState::Ready ||
                 entry.state == EntryState::Issued) &&
                !entry.inst.isStore()) {
                ready.push_back(entry.seq);
            }
            return true;
        });
        if (ready.empty())
            return;
        Tag seq = ready[rng.below(ready.size())];
        RegVal value = rng.next() & 0xffff;
        bool bypassing = rng.chance(50);

        // The writeback stage's path: broadcast from the resident
        // producer (stale tags below go through the tag overload).
        SuEntry &producer = *su.findBySeq(seq);
        producer.result = value;
        su.markDone(producer);
        ref.findBySeq(seq)->state = EntryState::Done;
        ref.findBySeq(seq)->result = value;
        su.broadcast(producer, value, now, bypassing);
        ref.broadcast(seq, value, now, bypassing);
    }

    void
    doBufferStore()
    {
        std::vector<Tag> stores;
        su.forEachOldestFirst([&](SuEntry &entry) {
            if (entry.inst.isStore() && !entry.storeBuffered &&
                entry.state == EntryState::Ready) {
                stores.push_back(entry.seq);
            }
            return true;
        });
        if (stores.empty())
            return;
        Tag seq = stores[rng.below(stores.size())];
        su.markStoreBuffered(*su.findBySeq(seq));
        su.markDone(*su.findBySeq(seq));
        ref.markStoreBuffered(seq);
        ref.findBySeq(seq)->state = EntryState::Done;
    }

    void
    doSquash()
    {
        if (nextSeq <= 1)
            return;
        auto tid = static_cast<ThreadId>(rng.below(kThreads));
        Tag after = rng.below(nextSeq);
        std::vector<Tag> squashed;
        unsigned a = su.squashThread(tid, after, &squashed);
        unsigned b = ref.squashThread(tid, after);
        EXPECT_EQ(a, b) << "squash count differs (tid " << tid
                        << ", after " << after << ")";
        EXPECT_EQ(squashed.size(), a);
        // An occasional stale broadcast of a squashed tag: neither
        // model may wake the dead or corrupt survivors.
        if (!squashed.empty() && rng.chance(50)) {
            Tag stale = squashed[rng.below(squashed.size())];
            RegVal value = rng.next() & 0xffff;
            su.broadcast(stale, value, now, true);
            ref.broadcast(stale, value, now, true);
        }
    }

    void
    doCommit()
    {
        CommitSelection a = su.selectCommit(kBlocks);
        CommitSelection b = ref.selectCommit(kBlocks);
        EXPECT_EQ(a.found, b.found);
        if (!a.found || a.found != b.found)
            return;
        EXPECT_EQ(a.blockIndex, b.blockIndex);
        SuBlock mine = su.removeBlock(a.blockIndex);
        RefBlock theirs = ref.removeBlock(b.blockIndex);
        EXPECT_EQ(mine.tid, theirs.tid);
        EXPECT_EQ(mine.blockSeq, theirs.blockSeq);
    }

    void
    compareEntries(const SuEntry &a, const SuEntry &b)
    {
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.tid, b.tid);
        EXPECT_EQ(a.state, b.state);
        EXPECT_EQ(a.src1.ready, b.src1.ready);
        EXPECT_EQ(a.src2.ready, b.src2.ready);
        if (a.src1.ready && b.src1.ready) {
            EXPECT_EQ(a.src1.value, b.src1.value);
        }
        if (a.src2.ready && b.src2.ready) {
            EXPECT_EQ(a.src2.value, b.src2.value);
        }
        EXPECT_EQ(a.earliestIssue, b.earliestIssue);
        EXPECT_EQ(a.storeBuffered, b.storeBuffered);
    }

    void
    compareAll(unsigned operation)
    {
        SCOPED_TRACE(testing::Message() << "operation " << operation);

        EXPECT_EQ(su.occupancy(), ref.occupancy());
        ASSERT_EQ(su.blockCount(), ref.contents().size());

        // Block headers: thread, first tag, completion, liveness.
        for (std::size_t i = 0; i < su.blockCount(); ++i) {
            const SuBlock &mine = su.block(i);
            const RefBlock &theirs = ref.contents()[i];
            EXPECT_EQ(mine.tid, theirs.tid) << "block " << i;
            EXPECT_EQ(mine.blockSeq, theirs.blockSeq) << "block " << i;
            EXPECT_EQ(mine.complete(), theirs.complete()) << "block " << i;
            bool any_valid = false;
            for (const SuEntry &entry : theirs.entries)
                any_valid |= entry.valid;
            EXPECT_EQ(mine.anyValid(), any_valid) << "block " << i;
        }

        // Per-thread occupancy and pending (not yet Done) counts.
        for (unsigned t = 0; t < kThreads; ++t) {
            unsigned valid = 0;
            unsigned pending = 0;
            for (const RefBlock &block : ref.contents()) {
                for (const SuEntry &entry : block.entries) {
                    if (entry.valid && entry.tid == t) {
                        ++valid;
                        pending += entry.state != EntryState::Done;
                    }
                }
            }
            EXPECT_EQ(su.occupancy(static_cast<ThreadId>(t)), valid)
                << "thread " << t;
            EXPECT_EQ(su.pendingOf(static_cast<ThreadId>(t)), pending)
                << "thread " << t;
        }

        // Every tag ever issued: same existence, same contents.
        for (Tag seq = 1; seq < nextSeq; ++seq) {
            SuEntry *mine = su.findBySeq(seq);
            SuEntry *theirs = ref.findBySeq(seq);
            ASSERT_EQ(mine == nullptr, theirs == nullptr)
                << "findBySeq(" << seq << ") presence differs";
            if (mine)
                compareEntries(*mine, *theirs);
        }

        // The full rename-table grid.
        for (unsigned t = 0; t < kThreads; ++t) {
            for (unsigned r = 0; r < kRegs; ++r) {
                const SuEntry *mine = su.findNewestWriter(
                    static_cast<ThreadId>(t),
                    static_cast<RegIndex>(r));
                const SuEntry *theirs = ref.findNewestWriter(
                    static_cast<ThreadId>(t),
                    static_cast<RegIndex>(r));
                ASSERT_EQ(mine == nullptr, theirs == nullptr)
                    << "newest writer (t" << t << ", r" << r
                    << ") presence differs";
                if (mine) {
                    EXPECT_EQ(mine->seq, theirs->seq)
                        << "newest writer (t" << t << ", r" << r
                        << ")";
                }
            }
        }

        // Disambiguation queries at every interesting age.
        for (Tag seq = 1; seq <= nextSeq; ++seq) {
            for (unsigned t = 0; t < kThreads; ++t) {
                EXPECT_EQ(su.hasOlderUnresolvedStore(
                              static_cast<ThreadId>(t), seq),
                          ref.hasOlderUnresolvedStore(
                              static_cast<ThreadId>(t), seq))
                    << "unresolved-store (t" << t << ", seq " << seq
                    << ")";
            }
            EXPECT_EQ(su.hasOlderUnbufferedStore(seq),
                      ref.hasOlderUnbufferedStore(seq))
                << "unbuffered-store (seq " << seq << ")";
        }

        // Commit selection and iteration order.
        CommitSelection a = su.selectCommit(kBlocks);
        CommitSelection b = ref.selectCommit(kBlocks);
        EXPECT_EQ(a.found, b.found);
        if (a.found && b.found) {
            EXPECT_EQ(a.blockIndex, b.blockIndex);
        }

        std::vector<Tag> mine_order;
        su.forEachOldestFirst([&](SuEntry &entry) {
            mine_order.push_back(entry.seq);
            return true;
        });
        std::vector<Tag> theirs_order;
        std::vector<Tag> theirs_ready;
        for (const auto &block : ref.contents()) {
            for (const auto &entry : block.entries) {
                if (!entry.valid)
                    continue;
                theirs_order.push_back(entry.seq);
                if (entry.state == EntryState::Ready)
                    theirs_ready.push_back(entry.seq);
            }
        }
        EXPECT_EQ(mine_order, theirs_order);

        // The ready queue holds exactly the Ready entries, oldest
        // first (a walk that issues nothing visits all of them).
        std::vector<Tag> mine_ready;
        su.issueReady(~0u, [&](SuEntry &entry) {
            mine_ready.push_back(entry.seq);
            return false;
        });
        EXPECT_EQ(mine_ready, theirs_ready);
        EXPECT_EQ(su.readyEntries(), theirs_ready.size());
    }

    static bool
    HasFatalFailure()
    {
        return testing::Test::HasFatalFailure();
    }
    static bool
    HasNonfatalFailure()
    {
        return testing::Test::HasNonfatalFailure();
    }

    SchedulingUnit su;
    ReferenceSu ref;
    Rng rng;
    Tag nextSeq = 1;
    Cycle now = 0;
};

TEST(SuDiff, RandomizedLockstepSeed1)
{
    DiffHarness(0x1234).run(3000);
}

TEST(SuDiff, RandomizedLockstepSeed2)
{
    DiffHarness(0xfeedbeef).run(3000);
}

TEST(SuDiff, RandomizedLockstepSeed3)
{
    DiffHarness(0x9e3779b9).run(3000);
}

TEST(SuDiff, ManyShortSequences)
{
    // Many short sequences restart from an empty window, so squash
    // and commit hit many distinct window shapes near the start of a
    // run (where off-by-one index bugs like to live).
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        DiffHarness harness(seed * 0x9E3779B97F4A7C15ull);
        harness.run(400);
        if (testing::Test::HasFailure())
            return;
    }
}

} // namespace
} // namespace sdsp
