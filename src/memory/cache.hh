/**
 * @file
 * Data-cache timing model.
 *
 * Models the cache of the paper (section 5.3): a uniform (shared, not
 * partitioned) cache, either 2-way set-associative with LRU or
 * direct-mapped, 8 KB with 32-byte lines by default. The cache is
 * non-blocking for exactly one outstanding miss: it can service one
 * line refill while continuing to supply data from other lines; a
 * *second* miss while a refill is outstanding renders the cache unable
 * to service any request until both refills complete, exactly as the
 * paper describes.
 *
 * The model is timing-only: data values live in MainMemory and the
 * cache tracks tags, LRU state and refill timing.
 */

#ifndef SDSP_MEMORY_CACHE_HH
#define SDSP_MEMORY_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/stats_registry.hh"
#include "common/types.hh"

namespace sdsp
{

/** Static cache geometry and timing parameters. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    std::uint32_t sizeBytes = 8192;
    /** Line size in bytes. */
    std::uint32_t lineBytes = 32;
    /** Associativity; 1 selects the paper's direct-mapped variant. */
    std::uint32_t ways = 2;
    /** Cycles to refill a line from memory. */
    std::uint32_t missPenalty = 10;
    /** Accesses (loads + store drains) the cache accepts per cycle. */
    std::uint32_t ports = 1;
    /**
     * Number of per-thread partitions; 1 (the paper's choice) shares
     * the whole cache uniformly. With N partitions, the sets are
     * split equally and thread t may only use its own slice — the
     * design alternative the paper rejects in section 5.3 because
     * "the space available to any one thread is small". When the set
     * count does not divide evenly, the few leftover sets are unused
     * (mirroring the register-file partitioning).
     */
    std::uint32_t partitions = 1;

    bool operator==(const CacheConfig &) const = default;
};

/** Outcome of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** First cycle at which the data is available / the write done. */
    Cycle readyCycle = 0;
};

/**
 * Set-associative / direct-mapped LRU cache with single-outstanding-
 * miss non-blocking behaviour.
 */
class DataCache
{
  public:
    explicit DataCache(const CacheConfig &config);

    /**
     * Must be called once at the start of every simulated cycle;
     * resets the per-cycle port budget.
     */
    void beginCycle(Cycle now);

    /**
     * Can the cache accept an access this cycle? False when the port
     * budget is spent or the cache is blocked on a double miss.
     */
    bool canAccept(Cycle now) const;

    /**
     * Perform an access (load probe or store drain). The caller must
     * have checked canAccept().
     *
     * @param addr     Byte address (any alignment within the line).
     * @param now      Current cycle.
     * @param is_write True for a store drain.
     * @param tid      Accessing thread (selects the partition when
     *                 the cache is partitioned; ignored otherwise).
     * @return Hit flag and the cycle the data is ready.
     */
    CacheAccessResult access(Addr addr, Cycle now, bool is_write,
                             ThreadId tid = 0);

    /** Invalidate all lines and clear miss state (not statistics). */
    void reset();

    /** Total accesses so far. */
    std::uint64_t accesses() const { return statAccesses; }
    /** Hits so far. */
    std::uint64_t hits() const { return statHits; }
    /** Misses so far. */
    std::uint64_t misses() const { return statMisses; }
    /** Hit rate in [0,1]; 1.0 when there were no accesses. */
    double hitRate() const;
    /** Accesses rejected because the cache was blocked or port-bound. */
    std::uint64_t rejections() const { return statRejections; }
    /** Note one rejected access (kept by the caller when canAccept
     *  fails). */
    void noteRejection() { ++statRejections; }

    /** Report statistics under @p prefix. */
    void reportStats(StatsRegistry &registry,
                     const std::string &prefix) const;

    /** Geometry in use. */
    const CacheConfig &config() const { return cfg; }

  private:
    struct Line
    {
        bool valid = false;
        std::uint64_t tag = 0;
        /** Timestamp of last touch, for LRU. */
        Cycle lastUse = 0;
        /** Cycle at which an in-flight refill of this line lands. */
        Cycle fillDone = 0;
    };

    std::uint64_t lineIndex(Addr addr) const;
    std::uint64_t setIndex(Addr addr, ThreadId tid) const;
    std::uint64_t tagOf(Addr addr) const;

    CacheConfig cfg;
    std::uint32_t numSets;
    /** Sets available to each partition (== numSets when shared). */
    std::uint32_t setsPerPartition;
    std::vector<Line> lines; //!< numSets * ways, set-major

    /** Cycle the single outstanding refill completes (0 = none). */
    Cycle refillBusyUntil = 0;
    /** While > now, a double miss has blocked all service. */
    Cycle blockedUntil = 0;

    Cycle currentCycle = 0;
    std::uint32_t portsUsedThisCycle = 0;

    std::uint64_t statAccesses = 0;
    std::uint64_t statHits = 0;
    std::uint64_t statMisses = 0;
    std::uint64_t statRejections = 0;
    std::uint64_t statDoubleMissBlocks = 0;
};

} // namespace sdsp

#endif // SDSP_MEMORY_CACHE_HH
