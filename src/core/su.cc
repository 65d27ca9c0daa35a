#include "core/su.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace sdsp
{

namespace
{

Operand &
operandOf(SuEntry &entry, unsigned op)
{
    return op ? entry.src2 : entry.src1;
}

std::uint32_t
waiterLink(SuSlot slot, unsigned op)
{
    return (slot << 1) | op;
}

} // namespace

SchedulingUnit::SchedulingUnit(unsigned num_blocks, unsigned block_size,
                               unsigned num_threads,
                               unsigned regs_per_thread)
    : capacityBlocks(num_blocks),
      blockSize(block_size),
      numThreads(num_threads),
      regsPerThread(regs_per_thread)
{
    sdsp_assert(num_blocks >= 1, "SU needs at least one block");
    sdsp_assert(std::has_single_bit(block_size),
                "block size must be a power of two");
    sdsp_assert(num_threads >= 1, "SU needs at least one thread");
    sdsp_assert(regs_per_thread >= 1,
                "SU needs at least one register per thread");
    blockShift = static_cast<unsigned>(std::countr_zero(block_size));

    std::size_t slots = static_cast<std::size_t>(num_blocks) * block_size;
    sdsp_assert(slots < (std::size_t{1} << 31),
                "SU too large for its slot links");
    arena.resize(slots);
    headers.resize(num_blocks);
    order.reserve(num_blocks);
    freeBlocks.reserve(num_blocks);
    // Hand out low block numbers first.
    for (unsigned b = num_blocks; b-- > 0;)
        freeBlocks.push_back(b);

    readyQueue.reserve(slots);
    newestWriter.assign(static_cast<std::size_t>(num_threads) *
                            regs_per_thread,
                        kNoSlot);
    unbufferedStores.resize(num_threads);
    for (auto &list : unbufferedStores)
        list.reserve(slots);
    orphans.reserve(2 * slots);

    validPerThread.assign(num_threads, 0);
    pendingPerThread.assign(num_threads, 0);
}

// --------------------------------------------------------------------
// Lookup
// --------------------------------------------------------------------

SuSlot
SchedulingUnit::lookup(Tag seq) const
{
    // Blocks are resident in ascending tag order: find the last block
    // starting at or below seq, then the entry inside it.
    auto it = std::upper_bound(
        order.begin(), order.end(), seq,
        [this](Tag tag, std::uint32_t id) {
            return tag < headers[id].blockSeq;
        });
    if (it == order.begin())
        return kNoSlot;
    std::uint32_t id = *(it - 1);
    for (unsigned i = 0; i < headers[id].size; ++i) {
        const SuEntry &entry = arena[firstSlot(id) + i];
        if (entry.valid && entry.seq == seq)
            return static_cast<SuSlot>(firstSlot(id) + i);
    }
    return kNoSlot;
}

SuEntry *
SchedulingUnit::findBySeq(Tag seq)
{
    SuSlot slot = lookup(seq);
    return slot == kNoSlot ? nullptr : &arena[slot];
}

// --------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------

void
SchedulingUnit::beginDispatch(ThreadId tid, Tag block_seq)
{
    sdsp_assert(hasSpace(), "dispatch into a full SU");
    sdsp_assert(order.empty() ||
                    headers[order.back()].blockSeq < block_seq,
                "dispatch out of tag order");
    std::uint32_t id = freeBlocks.back();
    freeBlocks.pop_back();
    headers[id] = SuBlock{};
    headers[id].tid = tid;
    headers[id].blockSeq = block_seq;
    order.push_back(id);
}

SuEntry &
SchedulingUnit::appendEntry()
{
    sdsp_assert(!order.empty(), "appendEntry without beginDispatch");
    SuBlock &block = headers[order.back()];
    sdsp_assert(block.size < blockSize, "oversized block dispatched");
    SuEntry &entry = arena[firstSlot(order.back()) + block.size];
    ++block.size;
    entry = SuEntry{};
    return entry;
}

void
SchedulingUnit::finishEntry(SuEntry &entry)
{
    SuSlot slot = slotOf(entry);
    SuBlock &block = headers[blockOf(slot)];
    sdsp_assert(blockOf(slot) == order.back() &&
                    slot == firstSlot(order.back()) + block.size - 1,
                "finishEntry on an entry appendEntry did not return");
    if (!entry.valid)
        return;
    sdsp_assert(entry.tid == block.tid,
                "entry thread differs from its block's");
    sdsp_assert(entry.tid < numThreads,
                "entry thread beyond SU's thread count");

    ++validCount;
    ++validPerThread[entry.tid];
    ++block.live;
    if (entry.state != EntryState::Done) {
        ++pendingPerThread[entry.tid];
        ++block.pending;
    }
    if (entry.state == EntryState::Ready) {
        sdsp_assert(readyQueue.empty() ||
                        readyQueue.back().seq < entry.seq,
                    "dispatch out of tag order");
        readyQueue.push_back({entry.seq, slot});
    }

    entry.waitHead = kNoSlot;
    entry.olderWriter = kNoSlot;
    entry.youngerWriter = kNoSlot;
    if (entry.inst.writesRd()) {
        sdsp_assert(entry.inst.rd < regsPerThread,
                    "entry register beyond SU's partition");
        SuSlot &newest = newestWriter[writerIndex(entry.tid,
                                                  entry.inst.rd)];
        if (newest != kNoSlot) {
            sdsp_assert(arena[newest].seq < entry.seq,
                        "dispatch out of tag order");
            arena[newest].youngerWriter = slot;
        }
        entry.olderWriter = newest;
        newest = slot;
    }

    if (entry.inst.isStore() && !entry.storeBuffered) {
        std::vector<Tag> &list = unbufferedStores[entry.tid];
        sdsp_assert(list.empty() || list.back() < entry.seq,
                    "store dispatch out of tag order");
        list.push_back(entry.seq);
    }

    for (unsigned op = 0; op < 2; ++op) {
        Operand &operand = operandOf(entry, op);
        entry.nextWaiter[op] = kNoSlot;
        if (operand.ready)
            continue;
        sdsp_assert(operand.tag != kNoTag,
                    "waiting operand without a tag");
        SuSlot producer = operand.producer;
        if (producer >= arena.size() || !arena[producer].valid ||
            arena[producer].seq != operand.tag) {
            producer = lookup(operand.tag);
        }
        operand.producer = producer;
        if (producer == kNoSlot) {
            orphans.push_back({operand.tag, waiterLink(slot, op)});
        } else {
            entry.nextWaiter[op] = arena[producer].waitHead;
            arena[producer].waitHead = waiterLink(slot, op);
        }
    }
}

void
SchedulingUnit::dispatch(ThreadId tid,
                         std::span<const SuEntry> block_entries)
{
    sdsp_assert(!block_entries.empty(), "dispatch of an empty block");
    beginDispatch(tid, block_entries.front().seq);
    for (const SuEntry &source : block_entries) {
        SuEntry &entry = appendEntry();
        entry = source;
        finishEntry(entry);
    }
}

// --------------------------------------------------------------------
// Waiter chains, writer chains, ready queue
// --------------------------------------------------------------------

void
SchedulingUnit::wake(std::uint32_t waiter, Tag producer, RegVal value,
                     Cycle now, Cycle earliest)
{
    SuEntry &entry = arena[waiter >> 1];
    Operand &operand = operandOf(entry, waiter & 1);
    if (!entry.valid || entry.state != EntryState::Waiting ||
        operand.ready || operand.tag != producer) {
        return;
    }
    operand.ready = true;
    operand.value = value;
    operand.producer = kNoSlot;
    if (!entry.operandsReady())
        return;
    entry.state = EntryState::Ready;
    entry.earliestIssue = std::max(entry.earliestIssue, earliest);
    entry.readyAt = now;
    entry.wakeupTag = producer;
    // Wakeups reach mostly recent entries: search from the back.
    auto pos = readyQueue.end();
    while (pos != readyQueue.begin() && (pos - 1)->seq > entry.seq)
        --pos;
    readyQueue.insert(pos, {entry.seq, waiter >> 1});
}

void
SchedulingUnit::broadcast(const SuEntry &producer, RegVal value,
                          Cycle now, bool bypassing)
{
    Cycle earliest = bypassing ? now : now + 1;
    SuEntry &source = arena[slotOf(producer)];
    std::uint32_t waiter = source.waitHead;
    source.waitHead = kNoSlot;
    while (waiter != kNoSlot) {
        SuEntry &consumer = arena[waiter >> 1];
        std::uint32_t next = consumer.nextWaiter[waiter & 1];
        consumer.nextWaiter[waiter & 1] = kNoSlot;
        wake(waiter, producer.seq, value, now, earliest);
        waiter = next;
    }
    if (!orphans.empty()) {
        // Orphaned waiters on this tag (direct SU use only) wake too.
        broadcast(producer.seq, value, now, bypassing);
    }
}

void
SchedulingUnit::broadcast(Tag seq, RegVal value, Cycle now,
                          bool bypassing)
{
    SuSlot slot = lookup(seq);
    if (slot != kNoSlot && arena[slot].waitHead != kNoSlot) {
        broadcast(arena[slot], value, now, bypassing);
        return;
    }
    Cycle earliest = bypassing ? now : now + 1;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < orphans.size(); ++i) {
        if (orphans[i].tag == seq)
            wake(orphans[i].waiter, seq, value, now, earliest);
        else
            orphans[kept++] = orphans[i];
    }
    orphans.resize(kept);
}

void
SchedulingUnit::unlinkWaiter(SuSlot slot, unsigned op)
{
    std::uint32_t link = waiterLink(slot, op);
    SuSlot producer = operandOf(arena[slot], op).producer;
    if (producer == kNoSlot) {
        auto it = std::find_if(orphans.begin(), orphans.end(),
                               [link](const Orphan &orphan) {
                                   return orphan.waiter == link;
                               });
        if (it != orphans.end())
            orphans.erase(it);
        return;
    }
    std::uint32_t *cursor = &arena[producer].waitHead;
    while (*cursor != kNoSlot) {
        if (*cursor == link) {
            *cursor = arena[slot].nextWaiter[op];
            break;
        }
        cursor = &arena[*cursor >> 1].nextWaiter[*cursor & 1];
    }
    arena[slot].nextWaiter[op] = kNoSlot;
}

void
SchedulingUnit::orphanWaiters(SuSlot slot)
{
    SuEntry &source = arena[slot];
    std::uint32_t waiter = source.waitHead;
    source.waitHead = kNoSlot;
    while (waiter != kNoSlot) {
        SuEntry &consumer = arena[waiter >> 1];
        std::uint32_t next = consumer.nextWaiter[waiter & 1];
        consumer.nextWaiter[waiter & 1] = kNoSlot;
        if (consumer.valid) {
            operandOf(consumer, waiter & 1).producer = kNoSlot;
            orphans.push_back({source.seq, waiter});
        }
        waiter = next;
    }
}

void
SchedulingUnit::unlinkWriter(SuSlot slot)
{
    SuEntry &entry = arena[slot];
    if (entry.olderWriter != kNoSlot)
        arena[entry.olderWriter].youngerWriter = entry.youngerWriter;
    if (entry.youngerWriter != kNoSlot) {
        arena[entry.youngerWriter].olderWriter = entry.olderWriter;
    } else {
        newestWriter[writerIndex(entry.tid, entry.inst.rd)] =
            entry.olderWriter;
    }
    entry.olderWriter = kNoSlot;
    entry.youngerWriter = kNoSlot;
}

void
SchedulingUnit::dropReady(Tag seq)
{
    auto it = std::lower_bound(readyQueue.begin(), readyQueue.end(), seq,
                               [](const ReadyRef &ref, Tag tag) {
                                   return ref.seq < tag;
                               });
    sdsp_assert(it != readyQueue.end() && it->seq == seq,
                "ready entry missing from the ready queue");
    readyQueue.erase(it);
}

// --------------------------------------------------------------------
// Architectural operations
// --------------------------------------------------------------------

void
SchedulingUnit::markDone(SuEntry &entry)
{
    if (entry.valid && entry.state != EntryState::Done) {
        --pendingPerThread[entry.tid];
        --headers[blockOf(slotOf(entry))].pending;
        if (entry.state == EntryState::Ready)
            dropReady(entry.seq);
    }
    entry.state = EntryState::Done;
}

unsigned
SchedulingUnit::squashThread(ThreadId tid, Tag after,
                             std::vector<Tag> *squashed_seqs)
{
    unsigned squashed = 0;
    bool any_ready = false;
    // First invalidate every doomed entry, oldest first, and take it
    // out of every index.
    for (std::uint32_t id : order) {
        SuBlock &block = headers[id];
        if (block.tid != tid)
            continue;
        for (unsigned i = 0; i < block.size; ++i) {
            SuSlot slot = static_cast<SuSlot>(firstSlot(id) + i);
            SuEntry &entry = arena[slot];
            if (!entry.valid || entry.seq <= after)
                continue;
            entry.valid = false;
            --validCount;
            --validPerThread[tid];
            --block.live;
            if (entry.state != EntryState::Done) {
                --pendingPerThread[tid];
                --block.pending;
            }
            any_ready |= entry.state == EntryState::Ready;
            ++squashed;
            if (squashed_seqs)
                squashed_seqs->push_back(entry.seq);

            // Squash removes a per-thread suffix: every younger
            // same-thread writer and unbuffered store dies with it.
            if (entry.inst.writesRd())
                unlinkWriter(slot);
            if (entry.inst.isStore() && !entry.storeBuffered) {
                std::vector<Tag> &list = unbufferedStores[tid];
                while (!list.empty() && list.back() > after)
                    list.pop_back();
            }
            for (unsigned op = 0; op < 2; ++op) {
                if (!operandOf(entry, op).ready)
                    unlinkWaiter(slot, op);
            }
        }
    }
    if (squashed == 0)
        return 0;

    // Then a dead producer's chain keeps only survivors, which wait
    // on another thread's tag (possible only by driving the SU
    // directly): they move to the orphan list, so a later broadcast
    // of the tag still wakes them, exactly as the scan-based SU
    // would. Every dying waiter is already invalid.
    for (std::uint32_t id : order) {
        if (headers[id].tid != tid)
            continue;
        for (unsigned i = 0; i < headers[id].size; ++i) {
            SuSlot slot = static_cast<SuSlot>(firstSlot(id) + i);
            if (arena[slot].waitHead != kNoSlot && !arena[slot].valid)
                orphanWaiters(slot);
        }
    }
    if (any_ready) {
        std::erase_if(readyQueue, [this](const ReadyRef &ref) {
            return !arena[ref.slot].valid;
        });
    }

    // Drop fully squashed blocks.
    std::size_t kept = 0;
    for (std::uint32_t id : order) {
        const SuBlock &block = headers[id];
        if (block.tid == tid && block.blockSeq > after && !block.anyValid())
            freeBlocks.push_back(id);
        else
            order[kept++] = id;
    }
    order.resize(kept);
    return squashed;
}

CommitSelection
SchedulingUnit::selectCommit(unsigned window_blocks) const
{
    std::size_t window = std::min<std::size_t>(window_blocks,
                                               order.size());
    // Single bottom-up pass: a complete block commits iff no
    // incomplete block strictly below belongs to the same thread
    // (paper section 3.5), so it suffices to carry the set of
    // threads with an incomplete block seen so far.
    if (numThreads <= 64) {
        std::uint64_t incomplete_tids = 0;
        for (std::size_t i = 0; i < window; ++i) {
            const SuBlock &candidate = headers[order[i]];
            if (candidate.complete()) {
                if (!((incomplete_tids >> candidate.tid) & 1))
                    return {true, i};
            } else {
                incomplete_tids |= std::uint64_t{1} << candidate.tid;
            }
        }
        return {false, 0};
    }
    // Arbitrary thread counts (direct SU use): quadratic rescan.
    for (std::size_t i = 0; i < window; ++i) {
        const SuBlock &candidate = headers[order[i]];
        if (!candidate.complete())
            continue;
        bool blocked = false;
        for (std::size_t j = 0; j < i; ++j) {
            const SuBlock &below = headers[order[j]];
            if (!below.complete() && below.tid == candidate.tid) {
                blocked = true;
                break;
            }
        }
        if (!blocked)
            return {true, i};
    }
    return {false, 0};
}

SuBlock
SchedulingUnit::removeBlock(std::size_t block_index)
{
    sdsp_assert(block_index < order.size(),
                "removeBlock index out of range");
    std::uint32_t id = order[block_index];
    SuBlock &block = headers[id];
    for (unsigned i = 0; i < block.size; ++i) {
        SuSlot slot = static_cast<SuSlot>(firstSlot(id) + i);
        SuEntry &entry = arena[slot];
        if (!entry.valid)
            continue;
        --validCount;
        --validPerThread[entry.tid];
        if (entry.state != EntryState::Done)
            --pendingPerThread[entry.tid];
        if (entry.state == EntryState::Ready)
            dropReady(entry.seq);
        if (entry.inst.writesRd())
            unlinkWriter(slot);
        if (entry.inst.isStore() && !entry.storeBuffered) {
            std::vector<Tag> &list = unbufferedStores[entry.tid];
            auto it =
                std::lower_bound(list.begin(), list.end(), entry.seq);
            if (it != list.end() && *it == entry.seq)
                list.erase(it);
        }
        // A removed entry may still be waiting, or still be waited on
        // (tests remove arbitrary blocks); keep every chain exact.
        for (unsigned op = 0; op < 2; ++op) {
            if (!operandOf(entry, op).ready)
                unlinkWaiter(slot, op);
        }
        entry.valid = false;
        if (entry.waitHead != kNoSlot)
            orphanWaiters(slot);
    }
    SuBlock removed = block;
    order.erase(order.begin() + static_cast<std::ptrdiff_t>(block_index));
    freeBlocks.push_back(id);
    return removed;
}

void
SchedulingUnit::markStoreBuffered(SuEntry &entry)
{
    sdsp_assert(entry.inst.isStore(),
                "markStoreBuffered on a non-store");
    if (entry.storeBuffered)
        return;
    entry.storeBuffered = true;
    std::vector<Tag> &list = unbufferedStores[entry.tid];
    auto it = std::lower_bound(list.begin(), list.end(), entry.seq);
    sdsp_assert(it != list.end() && *it == entry.seq,
                "buffered store missing from the disambiguation list");
    list.erase(it);
}

} // namespace sdsp
