#include "core/exec.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sdsp
{

FuPool::FuPool(const FuConfig &config) : cfg(config)
{
    instances.resize(kNumFuClasses);
    for (unsigned cls = 0; cls < kNumFuClasses; ++cls)
        instances[cls].resize(cfg.count[cls]);
    // Both lists stay short (the wheel holds nearly every operation);
    // reserving up front keeps a burst from allocating mid-run.
    overflow.reserve(64);
    backlog.reserve(64);
}

std::vector<FuPool::Instance> &
FuPool::instancesOf(FuClass cls)
{
    return instances[static_cast<unsigned>(cls)];
}

const std::vector<FuPool::Instance> &
FuPool::instancesOf(FuClass cls) const
{
    return instances[static_cast<unsigned>(cls)];
}

void
FuPool::insertSorted(std::vector<FuCompletion> &list,
                     const FuCompletion &op)
{
    auto pos = std::upper_bound(
        list.begin(), list.end(), op,
        [](const FuCompletion &a, const FuCompletion &b) {
            return a.completeCycle != b.completeCycle
                       ? a.completeCycle < b.completeCycle
                       : a.seq < b.seq;
        });
    list.insert(pos, op);
}

Cycle
FuPool::issue(FuClass cls, Tag seq, Cycle now, Cycle extra_latency,
              std::uint32_t slot)
{
    auto cls_idx = static_cast<unsigned>(cls);
    unsigned latency = cfg.latency[cls_idx];
    bool pipelined = cfg.pipelined[cls_idx];

    // Lowest-numbered free instance first, so that "extra" units are
    // only used under pressure (feeds the paper's Table 4). The same
    // pass finds the class's new earliest free cycle.
    Cycle occupancy = pipelined ? 1 : latency;
    bool started = false;
    Cycle earliest = now + occupancy;
    for (Instance &instance : instancesOf(cls)) {
        if (!started && instance.nextFree <= now) {
            instance.nextFree = now + occupancy;
            instance.busy += occupancy;
            started = true;
        }
        earliest = std::min(earliest, instance.nextFree);
    }
    if (!started)
        panic("issue to %s without a free instance", fuClassName(cls));
    earliestFree[cls_idx] = earliest;

    Cycle complete = now + latency + extra_latency;
    sdsp_assert(complete > drainedThrough,
                "issue completing in an already drained cycle");
    bool counts = cls != FuClass::Store;
    ++inflight;
    Bucket &bucket = wheel[complete % kWheelSlots];
    if (complete - drainedThrough > kWheelSlots ||
        bucket.count == kBucketSlots) {
        insertSorted(overflow, {seq, complete, slot, cls, counts});
        return complete;
    }
    unsigned pos = bucket.count++;
    for (; pos > 0 && bucket.ops[pos - 1].seq > seq; --pos)
        bucket.ops[pos] = bucket.ops[pos - 1];
    // Field by field: a whole-struct copy of a just-built temporary
    // would reload it before its stores retire.
    FuCompletion &op = bucket.ops[pos];
    op.seq = seq;
    op.completeCycle = complete;
    op.slot = slot;
    op.fuClass = cls;
    op.countsAgainstWidth = counts;
    ++wheelCount;
    return complete;
}

unsigned
FuPool::totalInstances() const
{
    unsigned total = 0;
    for (const auto &cls : instances)
        total += static_cast<unsigned>(cls.size());
    return total;
}

std::uint64_t
FuPool::busyCycles(FuClass cls, unsigned index) const
{
    const auto &list = instancesOf(cls);
    sdsp_assert(index < list.size(), "FU instance index out of range");
    return list[index].busy;
}

void
FuPool::reportStats(StatsRegistry &registry, const std::string &prefix,
                    Cycle total_cycles) const
{
    double denom = total_cycles ? static_cast<double>(total_cycles) : 1.0;
    for (unsigned cls = 0; cls < kNumFuClasses; ++cls) {
        const auto &list = instances[cls];
        for (unsigned i = 0; i < list.size(); ++i) {
            std::string name =
                format("%s[%u].busyFraction",
                       fuClassName(static_cast<FuClass>(cls)), i);
            registry.add(prefix, name,
                         static_cast<double>(list[i].busy) / denom);
        }
    }
}

} // namespace sdsp
