#include "memory/store_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sdsp
{

StoreBuffer::StoreBuffer(unsigned capacity) : cap(capacity)
{
    sdsp_assert(capacity >= 1, "store buffer needs capacity");
    // Drained entries stay below head until head reaches capacity
    // (compact()), so the vector holds up to 2 * capacity - 1.
    entries.reserve(2 * static_cast<std::size_t>(capacity));
    livePerTid.resize(16, 0);
}

void
StoreBuffer::compact()
{
    if (head >= cap) {
        entries.erase(entries.begin(),
                      entries.begin() +
                          static_cast<std::ptrdiff_t>(head));
        head = 0;
    }
}

void
StoreBuffer::insert(Tag seq, ThreadId tid, Addr addr, RegVal value)
{
    sdsp_assert(!full(), "store buffer overflow");
    compact();
    StoreBufferEntry entry{seq, tid, addr, value, false};
    // Stores can execute out of order; keep the buffer ordered by
    // sequence number so head-drains retire in program order.
    auto pos = std::upper_bound(
        entries.begin() + static_cast<std::ptrdiff_t>(head),
        entries.end(), seq,
        [](Tag s, const StoreBufferEntry &e) { return s < e.seq; });
    entries.insert(pos, entry);
    if (tid >= livePerTid.size())
        livePerTid.resize(tid + 1, 0);
    ++livePerTid[tid];
    ++statInserts;
}

void
StoreBuffer::commitUpTo(ThreadId tid, Tag upto)
{
    for (std::size_t i = head; i < entries.size(); ++i) {
        if (entries[i].tid == tid && entries[i].seq <= upto)
            entries[i].committed = true;
    }
}

unsigned
StoreBuffer::drain(DataCache &cache, MainMemory &memory, Cycle now)
{
    unsigned drained = 0;
    while (head < entries.size() && entries[head].committed) {
        if (!cache.canAccept(now)) {
            cache.noteRejection();
            break;
        }
        const StoreBufferEntry &front = entries[head];
        cache.access(front.addr, now, /*is_write=*/true, front.tid);
        memory.write(front.addr, front.value);
        --livePerTid[front.tid];
        ++head;
        ++drained;
        ++statDrains;
    }
    if (head == entries.size()) {
        entries.clear();
        head = 0;
    }
    return drained;
}

std::optional<RegVal>
StoreBuffer::forward(ThreadId tid, Addr addr, Tag load_seq) const
{
    if (tid >= livePerTid.size() || livePerTid[tid] == 0)
        return std::nullopt;
    // Entries are sorted oldest-first; scan backwards for the
    // youngest older matching store of the same thread.
    for (std::size_t i = entries.size(); i > head; --i) {
        const StoreBufferEntry &entry = entries[i - 1];
        if (entry.seq >= load_seq)
            continue;
        if (entry.tid == tid && entry.addr == addr) {
            ++statForwards;
            return entry.value;
        }
    }
    return std::nullopt;
}

void
StoreBuffer::squash(ThreadId tid, Tag after)
{
    auto end = std::remove_if(
        entries.begin() + static_cast<std::ptrdiff_t>(head),
        entries.end(),
        [&](const StoreBufferEntry &e) {
            if (e.tid == tid && e.seq > after) {
                sdsp_assert(!e.committed,
                            "squashing a committed store");
                --livePerTid[tid];
                return true;
            }
            return false;
        });
    statSquashed += static_cast<std::uint64_t>(
        std::distance(end, entries.end()));
    entries.erase(end, entries.end());
}

void
StoreBuffer::reportStats(StatsRegistry &registry,
                         const std::string &prefix) const
{
    registry.add(prefix, "inserts", static_cast<double>(statInserts));
    registry.add(prefix, "drains", static_cast<double>(statDrains));
    registry.add(prefix, "forwards", static_cast<double>(statForwards));
    registry.add(prefix, "fullStalls",
                 static_cast<double>(statFullStalls));
    registry.add(prefix, "squashed", static_cast<double>(statSquashed));
}

} // namespace sdsp
