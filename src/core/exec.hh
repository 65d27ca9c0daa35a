/**
 * @file
 * The execution unit: a pool of functional unit instances.
 *
 * Each FU class (paper Table 1) has a configurable number of
 * instances and a latency. ALUs, memory units, the control unit and
 * the FP add/multiply units are pipelined (initiation interval 1);
 * the iterative integer and FP dividers are not (they are busy for
 * their full latency).
 *
 * Instance-level busy statistics feed the paper's Table 4 ("average
 * usage of extra functional units as a percentage of total cycles"):
 * issue always picks the lowest-numbered free instance, so instances
 * beyond the default configuration's count are exactly the "extra"
 * units.
 *
 * Operations in flight wait on a completion wheel: a power-of-two
 * ring of per-cycle buckets, each kept in tag order, so issue and
 * drain touch only the cycle they name. An operation due beyond the
 * ring's horizon (a configured latency longer than the ring), or
 * one that finds its bucket full, waits in a sorted overflow list
 * instead. Each class keeps its earliest free cycle, so canIssue()
 * is one comparison.
 */

#ifndef SDSP_CORE_EXEC_HH
#define SDSP_CORE_EXEC_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/stats_registry.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "isa/opcode.hh"

namespace sdsp
{

/** A result (or completion event) leaving a functional unit. */
struct FuCompletion
{
    Tag seq = 0;           //!< producing SU entry
    Cycle completeCycle = 0;
    /** The producer's SU slot, as given to FuPool::issue(). */
    std::uint32_t slot = 0;
    FuClass fuClass = FuClass::IntAlu;
    /**
     * Store completions produce no register result and do not consume
     * one of the 8 result-write ports into the SU.
     */
    bool countsAgainstWidth = true;
};

/** Pool of all functional unit instances. */
class FuPool
{
  public:
    explicit FuPool(const FuConfig &config);

    /**
     * Is an instance of @p cls free to accept an operation at
     * @p now?
     */
    bool
    canIssue(FuClass cls, Cycle now) const
    {
        return earliestFree[static_cast<unsigned>(cls)] <= now;
    }

    /**
     * Begin executing the producer @p seq on a free instance of
     * @p cls. Caller must have checked canIssue().
     *
     * @param extra_latency Added on top of the class latency (cache
     *                      miss time for loads).
     * @param slot          The producer's SU slot, returned with its
     *                      completion.
     * @return The completion cycle.
     */
    Cycle issue(FuClass cls, Tag seq, Cycle now,
                Cycle extra_latency = 0, std::uint32_t slot = 0);

    /**
     * Collect completions with completeCycle <= @p now, in
     * completion-time then age order, up to @p max_results of those
     * that count against the writeback width; the rest stay queued
     * for a later cycle. A completion for which @p is_live returns
     * false (its producer was squashed) is dropped without using a
     * port. Later calls may skip cycles.
     *
     * @param out Receives the drained completions.
     */
    template <typename IsLive>
    void drainCompletions(Cycle now, unsigned max_results,
                          std::vector<FuCompletion> &out,
                          IsLive &&is_live);

    /** drainCompletions() with every producer live. */
    void
    drainCompletions(Cycle now, unsigned max_results,
                     std::vector<FuCompletion> &out)
    {
        drainCompletions(now, max_results, out,
                         [](const FuCompletion &) { return true; });
    }

    /**
     * Operations not yet drained, including those of squashed
     * producers: a unit stays busy until its pipeline empties.
     */
    bool busy() const { return inflight > 0; }

    /** Total instances across all classes. */
    unsigned totalInstances() const;

    /**
     * Busy cycles of instance @p index of class @p cls (initiation
     * cycles for pipelined units, full occupancy for iterative ones).
     */
    std::uint64_t busyCycles(FuClass cls, unsigned index) const;

    /** Report per-instance utilization under @p prefix. */
    void reportStats(StatsRegistry &registry, const std::string &prefix,
                     Cycle total_cycles) const;

    /** Configuration in use. */
    const FuConfig &config() const { return cfg; }

    /** Cycles the completion wheel spans; an operation due further
     *  ahead waits in the overflow list. */
    static constexpr unsigned kWheelSlots = 32;

  private:
    static constexpr unsigned kBucketSlots = 8;

    struct Instance
    {
        /** First cycle this instance can initiate a new operation. */
        Cycle nextFree = 0;
        std::uint64_t busy = 0;
    };

    /** Operations completing in one cycle, ascending tag. */
    struct Bucket
    {
        std::array<FuCompletion, kBucketSlots> ops;
        unsigned count = 0;
    };

    std::vector<Instance> &instancesOf(FuClass cls);
    const std::vector<Instance> &instancesOf(FuClass cls) const;

    /** Insert @p op into @p list, ordered by (completeCycle, seq). */
    static void insertSorted(std::vector<FuCompletion> &list,
                             const FuCompletion &op);

    FuConfig cfg;
    std::vector<std::vector<Instance>> instances; //!< per class
    /** Per class: the smallest nextFree of its instances. */
    std::array<Cycle, kNumFuClasses> earliestFree{};

    /** wheel[c % kWheelSlots]: operations completing at cycle c, for
     *  c in (drainedThrough, drainedThrough + kWheelSlots]. */
    std::array<Bucket, kWheelSlots> wheel{};
    /** Operations in the wheel. */
    std::size_t wheelCount = 0;
    /** Operations due beyond the wheel's horizon or in a full bucket,
     *  by (completeCycle, seq). */
    std::vector<FuCompletion> overflow;
    /** Due operations held back by the result-port limit, by
     *  (completeCycle, seq). */
    std::vector<FuCompletion> backlog;
    /** Last cycle whose completions were drained. */
    Cycle drainedThrough = 0;
    /** Operations not yet drained: wheel, overflow and backlog. */
    std::size_t inflight = 0;
};

template <typename IsLive>
void
FuPool::drainCompletions(Cycle now, unsigned max_results,
                         std::vector<FuCompletion> &out, IsLive &&is_live)
{
    unsigned drained = 0;
    // Deliver a due operation, drop it (squashed producer), or keep
    // it (true) for a later cycle when the result ports are used up.
    // Stores consume no port, so they still drain behind a held one.
    auto held_back = [&](const FuCompletion &op) {
        if (is_live(op)) {
            if (op.countsAgainstWidth && drained >= max_results)
                return true;
            out.push_back(op);
            if (op.countsAgainstWidth)
                ++drained;
        }
        --inflight;
        return false;
    };

    // Held-back operations are the oldest due ones.
    std::size_t kept = 0;
    for (const FuCompletion &op : backlog) {
        if (held_back(op))
            backlog[kept++] = op;
    }
    backlog.resize(kept);

    while (drainedThrough < now) {
        if (wheelCount == 0) {
            // Skip the empty cycles up to the next overflow operation.
            if (overflow.empty() || overflow.front().completeCycle > now)
                break;
            drainedThrough = overflow.front().completeCycle - 1;
        }
        Cycle cycle = ++drainedThrough;
        Bucket &bucket = wheel[cycle % kWheelSlots];
        std::size_t late = 0;
        while (late < overflow.size() &&
               overflow[late].completeCycle == cycle) {
            ++late;
        }
        // Merge the bucket with the overflow operations due this
        // cycle; both are in tag order.
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < bucket.count || j < late) {
            const FuCompletion &op =
                j == late || (i < bucket.count &&
                              bucket.ops[i].seq < overflow[j].seq)
                    ? bucket.ops[i++]
                    : overflow[j++];
            if (held_back(op))
                backlog.push_back(op);
        }
        wheelCount -= bucket.count;
        bucket.count = 0;
        if (late > 0) {
            overflow.erase(overflow.begin(),
                           overflow.begin() +
                               static_cast<std::ptrdiff_t>(late));
        }
    }
    drainedThrough = std::max(drainedThrough, now);
}

} // namespace sdsp

#endif // SDSP_CORE_EXEC_HH
