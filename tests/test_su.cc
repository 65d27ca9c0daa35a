/**
 * @file
 * Unit tests for the scheduling unit (combined reorder buffer +
 * instruction window): dispatch, operand lookup, wakeup/bypass
 * timing, selective squash, flexible commit selection and memory
 * disambiguation queries.
 */

#include <gtest/gtest.h>

#include "core/regfile.hh"
#include "core/su.hh"

namespace sdsp
{
namespace
{

SuEntry
makeEntry(Tag seq, ThreadId tid, Opcode op, RegIndex rd,
          EntryState state = EntryState::Waiting)
{
    SuEntry entry;
    entry.valid = true;
    entry.seq = seq;
    entry.tid = tid;
    entry.inst = Instruction::makeR(op, rd, 0, 0);
    entry.state = state;
    return entry;
}

/** Dispatch one block of @p entries (program order) for @p tid. */
void
dispatch(SchedulingUnit &su, ThreadId tid, std::vector<SuEntry> entries)
{
    su.dispatch(tid, entries);
}

TEST(Su, CapacityAndOccupancy)
{
    SchedulingUnit su(2, 4);
    EXPECT_TRUE(su.hasSpace());
    EXPECT_TRUE(su.empty());
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1),
                              makeEntry(2, 0, Opcode::ADD, 2)});
    EXPECT_EQ(su.occupancy(), 2u);
    dispatch(su, 1, {makeEntry(3, 1, Opcode::ADD, 1)});
    EXPECT_FALSE(su.hasSpace());
    EXPECT_DEATH(dispatch(su, 0, {makeEntry(9, 0,
                                                     Opcode::ADD, 3)}),
                 "full");
}

TEST(Su, FindNewestWriterMatchesThreadAndRegister)
{
    SchedulingUnit su(4, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 5)});
    dispatch(su, 1, {makeEntry(2, 1, Opcode::ADD, 5)});
    dispatch(su, 0, {makeEntry(3, 0, Opcode::ADD, 5)});

    const SuEntry *writer = su.findNewestWriter(0, 5);
    ASSERT_NE(writer, nullptr);
    EXPECT_EQ(writer->seq, 3u); // newest of thread 0, not thread 1's
    writer = su.findNewestWriter(1, 5);
    ASSERT_NE(writer, nullptr);
    EXPECT_EQ(writer->seq, 2u);
    EXPECT_EQ(su.findNewestWriter(0, 6), nullptr);
}

TEST(Su, FindNewestWriterIgnoresNonWriters)
{
    SchedulingUnit su(4, 4);
    SuEntry store = makeEntry(1, 0, Opcode::ADD, 5);
    store.inst = Instruction::makeB(Opcode::ST, 5, 5, 0);
    dispatch(su, 0, {store});
    EXPECT_EQ(su.findNewestWriter(0, 5), nullptr);
}

TEST(Su, BroadcastWakesMatchingOperands)
{
    SchedulingUnit su(4, 4);
    SuEntry consumer = makeEntry(2, 0, Opcode::ADD, 3);
    consumer.inst = Instruction::makeR(Opcode::ADD, 3, 1, 2);
    consumer.src1 = {false, 0, 7}; // waiting on tag 7
    consumer.src2 = {true, 5, kNoTag};
    dispatch(su, 0, {consumer});

    su.broadcast(7, 123, /*now=*/10, /*bypassing=*/true);
    SuEntry *entry = su.findBySeq(2);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->state, EntryState::Ready);
    EXPECT_EQ(entry->src1.value, 123u);
    EXPECT_EQ(entry->earliestIssue, 10u); // same-cycle with bypass
}

TEST(Su, BroadcastWithoutBypassDelaysIssue)
{
    SchedulingUnit su(4, 4);
    SuEntry consumer = makeEntry(2, 0, Opcode::ADD, 3);
    consumer.src1 = {false, 0, 7};
    dispatch(su, 0, {consumer});
    su.broadcast(7, 1, 10, /*bypassing=*/false);
    EXPECT_EQ(su.findBySeq(2)->earliestIssue, 11u);
}

TEST(Su, BroadcastLeavesPartiallyWaitingEntries)
{
    SchedulingUnit su(4, 4);
    SuEntry consumer = makeEntry(2, 0, Opcode::ADD, 3);
    consumer.src1 = {false, 0, 7};
    consumer.src2 = {false, 0, 8};
    dispatch(su, 0, {consumer});
    su.broadcast(7, 1, 10, true);
    EXPECT_EQ(su.findBySeq(2)->state, EntryState::Waiting);
    su.broadcast(8, 2, 11, true);
    EXPECT_EQ(su.findBySeq(2)->state, EntryState::Ready);
}

TEST(Su, SquashRemovesOnlyYoungerSameThread)
{
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1),
                              makeEntry(2, 0, Opcode::ADD, 2)});
    dispatch(su, 1, {makeEntry(3, 1, Opcode::ADD, 1)});
    dispatch(su, 0, {makeEntry(4, 0, Opcode::ADD, 3)});

    std::vector<Tag> squashed;
    unsigned count = su.squashThread(0, /*after=*/1, &squashed);
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(squashed, (std::vector<Tag>{2, 4}));
    // Thread 1 untouched; thread 0's block 2 fully removed; entry 1
    // survives within its block.
    EXPECT_NE(su.findBySeq(1), nullptr);
    EXPECT_EQ(su.findBySeq(2), nullptr);
    EXPECT_NE(su.findBySeq(3), nullptr);
    EXPECT_EQ(su.findBySeq(4), nullptr);
    EXPECT_EQ(su.blockCount(), 2u);
}

TEST(Su, SquashThenBroadcastStaleTagDoesNotWakeTheDead)
{
    // Producer seq 2 (thread 0) feeds a same-thread consumer seq 3.
    // Both are squashed; a result for tag 2 already in flight at
    // squash time still arrives as a broadcast. It must find nobody:
    // no crash, no wakeup, no stale index entry.
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1),
                              makeEntry(2, 0, Opcode::ADD, 2)});
    SuEntry consumer = makeEntry(3, 0, Opcode::ADD, 3);
    consumer.src1 = {false, 0, 2};
    dispatch(su, 0, {consumer});

    EXPECT_EQ(su.squashThread(0, /*after=*/1), 2u);
    EXPECT_EQ(su.findBySeq(2), nullptr);
    EXPECT_EQ(su.findBySeq(3), nullptr);

    su.broadcast(2, 42, /*now=*/5, /*bypassing=*/true);
    EXPECT_EQ(su.occupancy(), 1u);
    EXPECT_NE(su.findBySeq(1), nullptr);

    // The window and its indices stay usable: a fresh block can
    // dispatch, wake and commit normally.
    SuEntry fresh = makeEntry(4, 0, Opcode::ADD, 2);
    fresh.src1 = {false, 0, 1};
    dispatch(su, 0, {fresh});
    su.broadcast(1, 7, 6, true);
    ASSERT_NE(su.findBySeq(4), nullptr);
    EXPECT_EQ(su.findBySeq(4)->state, EntryState::Ready);
    EXPECT_EQ(su.findBySeq(4)->src1.value, 7u);
}

TEST(Su, SquashKeepsCrossThreadWaitersWakeable)
{
    // A consumer of another thread waiting on the squashed tag (only
    // possible by driving the SU directly) must still be woken by the
    // late broadcast, exactly as a scan over the window would.
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1),
                              makeEntry(2, 0, Opcode::ADD, 2)});
    SuEntry other = makeEntry(3, 1, Opcode::ADD, 3);
    other.src1 = {false, 0, 2};
    dispatch(su, 1, {other});

    su.squashThread(0, /*after=*/1);
    su.broadcast(2, 99, /*now=*/5, /*bypassing=*/true);

    ASSERT_NE(su.findBySeq(3), nullptr);
    EXPECT_EQ(su.findBySeq(3)->state, EntryState::Ready);
    EXPECT_EQ(su.findBySeq(3)->src1.value, 99u);
}

TEST(Su, SquashPurgesWriterTable)
{
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 5)});
    dispatch(su, 0, {makeEntry(2, 0, Opcode::ADD, 5)});
    su.squashThread(0, /*after=*/1);
    const SuEntry *writer = su.findNewestWriter(0, 5);
    ASSERT_NE(writer, nullptr);
    EXPECT_EQ(writer->seq, 1u); // not the squashed seq 2
}

TEST(Su, CommitSelectsCompleteBottomBlock)
{
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1,
                                        EntryState::Done)});
    CommitSelection selection = su.selectCommit(4);
    EXPECT_TRUE(selection.found);
    EXPECT_EQ(selection.blockIndex, 0u);
}

TEST(Su, FlexibleCommitSkipsOtherThreadsIncompleteBlock)
{
    // Paper Figure 2: block 1 (thread 0) incomplete; block 2
    // (thread 1) complete -> thread 1 commits from the middle.
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1)});
    dispatch(su, 1, {makeEntry(2, 1, Opcode::ADD, 1,
                                        EntryState::Done)});
    CommitSelection selection = su.selectCommit(4);
    EXPECT_TRUE(selection.found);
    EXPECT_EQ(selection.blockIndex, 1u);
}

TEST(Su, FlexibleCommitRespectsSameThreadOrder)
{
    // Both blocks thread 0; the younger complete block must NOT pass
    // the older incomplete one.
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1)});
    dispatch(su, 0, {makeEntry(2, 0, Opcode::ADD, 1,
                                        EntryState::Done)});
    EXPECT_FALSE(su.selectCommit(4).found);
}

TEST(Su, FlexibleCommitChecksAllBlocksBelow)
{
    // Thread pattern A(incomplete) B(incomplete) B(complete): the
    // complete B block is blocked by the incomplete B block below.
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1)});
    dispatch(su, 1, {makeEntry(2, 1, Opcode::ADD, 1)});
    dispatch(su, 1, {makeEntry(3, 1, Opcode::ADD, 2,
                                        EntryState::Done)});
    EXPECT_FALSE(su.selectCommit(4).found);
}

TEST(Su, CommitWindowLimitsLookahead)
{
    // Complete block sits above the window: LowestBlockOnly (window
    // 1) must not find it; window 4 must.
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1)});
    dispatch(su, 1, {makeEntry(2, 1, Opcode::ADD, 1,
                                        EntryState::Done)});
    EXPECT_FALSE(su.selectCommit(1).found);
    EXPECT_TRUE(su.selectCommit(4).found);
}

TEST(Su, FlexibleCommitWindowIsFourBlocks)
{
    // A complete foreign block in slot 4 (fifth from bottom) is
    // beyond the paper's four-block commit window.
    SchedulingUnit su(8, 4);
    for (Tag seq = 1; seq <= 4; ++seq) {
        dispatch(su, 0, {makeEntry(seq, 0, Opcode::ADD, 1)});
    }
    dispatch(su, 1, {makeEntry(9, 1, Opcode::ADD, 1,
                                        EntryState::Done)});
    EXPECT_FALSE(su.selectCommit(4).found);
    EXPECT_TRUE(su.selectCommit(5).found);
}

TEST(Su, RemoveBlockCompacts)
{
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1)});
    dispatch(su, 1, {makeEntry(2, 1, Opcode::ADD, 1)});
    SuBlock removed = su.removeBlock(0);
    EXPECT_EQ(removed.tid, 0u);
    EXPECT_EQ(su.blockCount(), 1u);
    EXPECT_EQ(su.block(0).tid, 1u);
}

TEST(Su, OlderUnresolvedStoreQuery)
{
    SchedulingUnit su(8, 4);
    SuEntry store = makeEntry(1, 0, Opcode::ADD, 0);
    store.inst = Instruction::makeB(Opcode::ST, 1, 2, 0);
    dispatch(su, 0, {store});

    EXPECT_TRUE(su.hasOlderUnresolvedStore(0, 5));
    EXPECT_FALSE(su.hasOlderUnresolvedStore(1, 5)); // other thread
    EXPECT_FALSE(su.hasOlderUnresolvedStore(0, 1)); // not older

    su.markStoreBuffered(*su.findBySeq(1));
    EXPECT_FALSE(su.hasOlderUnresolvedStore(0, 5)); // now resolved
}

TEST(Su, OlderUnbufferedStoreIsThreadBlind)
{
    SchedulingUnit su(8, 4);
    SuEntry store = makeEntry(3, 1, Opcode::ADD, 0);
    store.inst = Instruction::makeB(Opcode::ST, 1, 2, 0);
    dispatch(su, 1, {store});

    // Visible across threads (it gates the shared store buffer).
    EXPECT_TRUE(su.hasOlderUnbufferedStore(7));
    EXPECT_FALSE(su.hasOlderUnbufferedStore(3)); // not strictly older
    su.markStoreBuffered(*su.findBySeq(3));
    EXPECT_FALSE(su.hasOlderUnbufferedStore(7));
}

TEST(Su, CountUnbufferedStoresThroughOwnBlock)
{
    // Counts unbuffered stores in blocks below the target and in the
    // target's own block (both sides), excluding the target — the
    // store-buffer reservation that keeps the FIFO drain
    // deadlock-free for blocks holding several stores.
    auto makeStore = [](Tag seq, ThreadId tid) {
        SuEntry entry = makeEntry(seq, tid, Opcode::ADD, 0);
        entry.inst = Instruction::makeB(Opcode::ST, 1, 2, 0);
        return entry;
    };

    SchedulingUnit su(16, 4);
    dispatch(su, 0, {makeStore(1, 0), makeStore(2, 0)});
    dispatch(su, 1, {makeStore(3, 1), makeStore(4, 1),
                              makeEntry(5, 1, Opcode::ADD, 1)});

    // Oldest store: only its block-mate counts.
    EXPECT_EQ(su.countUnbufferedStoresThrough(*su.findBySeq(1)), 1u);
    EXPECT_EQ(su.countUnbufferedStoresThrough(*su.findBySeq(2)), 1u);
    // Upper block: both lower stores plus the block-mate.
    EXPECT_EQ(su.countUnbufferedStoresThrough(*su.findBySeq(3)), 3u);
    EXPECT_EQ(su.countUnbufferedStoresThrough(*su.findBySeq(4)), 3u);

    // Buffered stores stop counting.
    su.markStoreBuffered(*su.findBySeq(1));
    EXPECT_EQ(su.countUnbufferedStoresThrough(*su.findBySeq(2)), 0u);
    EXPECT_EQ(su.countUnbufferedStoresThrough(*su.findBySeq(4)), 2u);
}

TEST(Su, OldestFirstIterationOrder)
{
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1),
                              makeEntry(2, 0, Opcode::ADD, 2)});
    dispatch(su, 1, {makeEntry(3, 1, Opcode::ADD, 1)});
    std::vector<Tag> seen;
    su.forEachOldestFirst([&](SuEntry &entry) {
        seen.push_back(entry.seq);
        return true;
    });
    EXPECT_EQ(seen, (std::vector<Tag>{1, 2, 3}));
}

TEST(Su, IterationStopsOnFalse)
{
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1),
                              makeEntry(2, 0, Opcode::ADD, 2)});
    unsigned visits = 0;
    su.forEachOldestFirst([&](SuEntry &) {
        ++visits;
        return false;
    });
    EXPECT_EQ(visits, 1u);
}

TEST(Su, ReadyQueueIssuesOldestFirst)
{
    // Wakeups arrive youngest first; the issue walk still offers the
    // Ready entries in tag order and stops at the width.
    SchedulingUnit su(8, 4);
    std::vector<SuEntry> waiting;
    for (Tag seq = 1; seq <= 3; ++seq) {
        SuEntry consumer = makeEntry(seq, 0, Opcode::ADD, 1);
        consumer.src1 = {false, 0, 10 + seq};
        waiting.push_back(consumer);
    }
    dispatch(su, 0, waiting);
    su.broadcast(13, 3, 5, true);
    su.broadcast(12, 2, 5, true);
    su.broadcast(11, 1, 5, true);
    EXPECT_EQ(su.readyEntries(), 3u);

    std::vector<Tag> offered;
    unsigned issued = su.issueReady(2, [&](SuEntry &entry) {
        offered.push_back(entry.seq);
        return true;
    });
    EXPECT_EQ(issued, 2u);
    EXPECT_EQ(offered, (std::vector<Tag>{1, 2}));
    EXPECT_EQ(su.findBySeq(1)->state, EntryState::Issued);
    EXPECT_EQ(su.findBySeq(2)->state, EntryState::Issued);
    EXPECT_EQ(su.findBySeq(3)->state, EntryState::Ready);
    EXPECT_EQ(su.readyEntries(), 1u);
}

TEST(Su, IssueReadyKeepsRefusedEntriesInOrder)
{
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1, EntryState::Ready),
                     makeEntry(2, 0, Opcode::ADD, 2, EntryState::Ready),
                     makeEntry(3, 0, Opcode::ADD, 3, EntryState::Ready)});
    // Refuse the middle entry: it stays Ready, in place.
    EXPECT_EQ(su.issueReady(8, [](SuEntry &entry) {
                  return entry.seq != 2;
              }),
              2u);
    std::vector<Tag> offered;
    su.issueReady(8, [&](SuEntry &entry) {
        offered.push_back(entry.seq);
        return false;
    });
    EXPECT_EQ(offered, (std::vector<Tag>{2}));
}

TEST(Su, MarkDoneLeavesTheReadyQueue)
{
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1, EntryState::Ready),
                     makeEntry(2, 0, Opcode::ADD, 2, EntryState::Ready)});
    su.markDone(*su.findBySeq(1));
    EXPECT_EQ(su.readyEntries(), 1u);
    EXPECT_EQ(su.pendingOf(0), 1u);
    EXPECT_FALSE(su.block(0).complete());
    su.markDone(*su.findBySeq(2));
    EXPECT_EQ(su.readyEntries(), 0u);
    EXPECT_TRUE(su.block(0).complete());
}

TEST(Su, EntryAtRejectsSquashedAndReusedSlots)
{
    // A completion names its producer by slot; once the producer is
    // squashed, and after its slot is reused, the slot no longer
    // answers for the old tag.
    SchedulingUnit su(1, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1),
                     makeEntry(2, 0, Opcode::ADD, 2)});
    SuSlot slot = su.slotOf(*su.findBySeq(2));
    EXPECT_EQ(su.entryAt(slot, 2), su.findBySeq(2));
    EXPECT_EQ(su.entryAt(slot, 1), nullptr);

    su.squashThread(0, /*after=*/1);
    EXPECT_EQ(su.entryAt(slot, 2), nullptr);

    su.removeBlock(0);
    dispatch(su, 0, {makeEntry(5, 0, Opcode::ADD, 1),
                     makeEntry(6, 0, Opcode::ADD, 2)});
    EXPECT_EQ(su.slotOf(*su.findBySeq(6)), slot);
    EXPECT_EQ(su.entryAt(slot, 2), nullptr);
    EXPECT_EQ(su.entryAt(slot, 6), su.findBySeq(6));
}

TEST(Su, BlockCompletionIgnoresSquashedEntries)
{
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 1, EntryState::Done),
                     makeEntry(2, 0, Opcode::ADD, 2)});
    EXPECT_FALSE(su.block(0).complete());
    su.squashThread(0, /*after=*/1);
    EXPECT_TRUE(su.block(0).complete());
    EXPECT_TRUE(su.block(0).anyValid());
    EXPECT_TRUE(su.selectCommit(4).found);
}

TEST(Su, WriterChainSurvivesRemovalAnywhere)
{
    // Three in-flight writers of (t0, r5); removing the oldest and
    // then the middle one keeps the newest-writer answer exact, and a
    // squash back past the remaining writers finds none.
    SchedulingUnit su(8, 4);
    dispatch(su, 0, {makeEntry(1, 0, Opcode::ADD, 5, EntryState::Done)});
    dispatch(su, 0, {makeEntry(2, 0, Opcode::ADD, 5, EntryState::Done)});
    dispatch(su, 0, {makeEntry(3, 0, Opcode::ADD, 5)});
    su.removeBlock(0);
    EXPECT_EQ(su.findNewestWriter(0, 5)->seq, 3u);
    su.removeBlock(0);
    EXPECT_EQ(su.findNewestWriter(0, 5)->seq, 3u);
    su.squashThread(0, /*after=*/2);
    EXPECT_EQ(su.findNewestWriter(0, 5), nullptr);
}

TEST(RegFile, PartitionMapping)
{
    RegisterFile regs(128, 4);
    EXPECT_EQ(regs.registersPerThread(), 32u);
    regs.write(0, 5, 100);
    regs.write(1, 5, 200);
    EXPECT_EQ(regs.read(0, 5), 100u);
    EXPECT_EQ(regs.read(1, 5), 200u);
    EXPECT_EQ(regs.physIndex(2, 0), 64u);
}

TEST(RegFile, FloorPartitionWithRemainder)
{
    RegisterFile regs(128, 6);
    EXPECT_EQ(regs.registersPerThread(), 21u);
    EXPECT_EQ(regs.physIndex(5, 20), 5u * 21 + 20);
}

TEST(RegFile, OutOfPartitionPanics)
{
    RegisterFile regs(128, 4);
    EXPECT_DEATH(regs.read(0, 32), "partition");
}

TEST(RegFile, ResetZeroes)
{
    RegisterFile regs(128, 2);
    regs.write(1, 3, 7);
    regs.reset();
    EXPECT_EQ(regs.read(1, 3), 0u);
}

} // namespace
} // namespace sdsp
