#include "core/config.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace sdsp
{

namespace
{

unsigned
idx(FuClass cls)
{
    return static_cast<unsigned>(cls);
}

FuConfig
baseLatencies(FuConfig cfg)
{
    cfg.latency[idx(FuClass::IntAlu)] = 1;
    cfg.latency[idx(FuClass::IntMul)] = 3;
    cfg.latency[idx(FuClass::IntDiv)] = 12;
    cfg.latency[idx(FuClass::Load)] = 2;
    cfg.latency[idx(FuClass::Store)] = 1;
    cfg.latency[idx(FuClass::Ctrl)] = 1;
    cfg.latency[idx(FuClass::FpAdd)] = 3;
    cfg.latency[idx(FuClass::FpMul)] = 3;
    cfg.latency[idx(FuClass::FpDiv)] = 12;
    for (unsigned i = 0; i < kNumFuClasses; ++i)
        cfg.pipelined[i] = true;
    // Divide units are iterative, not pipelined.
    cfg.pipelined[idx(FuClass::IntDiv)] = false;
    cfg.pipelined[idx(FuClass::FpDiv)] = false;
    return cfg;
}

/** Fatal, naming @p name's field, on a geometry DataCache cannot
 *  build: its constructor's checks, in 64 bits (32 x 2^27 ways wraps
 *  a 32-bit way size to 0). */
void
validateCache(const CacheConfig &cache, const char *name)
{
    if (!isPowerOf2(cache.sizeBytes))
        fatal("%s.sizeBytes %u must be a power of two", name,
              cache.sizeBytes);
    if (!isPowerOf2(cache.lineBytes))
        fatal("%s.lineBytes %u must be a power of two", name,
              cache.lineBytes);
    const std::uint64_t way_bytes =
        std::uint64_t{cache.lineBytes} * cache.ways;
    if (!way_bytes || cache.sizeBytes % way_bytes != 0 ||
        !isPowerOf2(cache.sizeBytes / way_bytes))
        fatal("%s.ways %u does not split %u bytes into a power-of-two "
              "number of sets of %u-byte lines",
              name, cache.ways, cache.sizeBytes, cache.lineBytes);
    const std::uint64_t sets = cache.sizeBytes / way_bytes;
    if (cache.ports < 1)
        fatal("%s.ports must be at least 1", name);
    if (cache.partitions < 1 || cache.partitions > sets)
        fatal("%s.partitions %u out of range [1,%llu] (one set each)",
              name, cache.partitions,
              static_cast<unsigned long long>(sets));
}

} // namespace

FuConfig
FuConfig::sdspDefault()
{
    FuConfig cfg = baseLatencies({});
    cfg.count[idx(FuClass::IntAlu)] = 4;
    cfg.count[idx(FuClass::IntMul)] = 1;
    cfg.count[idx(FuClass::IntDiv)] = 1;
    cfg.count[idx(FuClass::Load)] = 1;
    cfg.count[idx(FuClass::Store)] = 1;
    cfg.count[idx(FuClass::Ctrl)] = 1;
    cfg.count[idx(FuClass::FpAdd)] = 1;
    cfg.count[idx(FuClass::FpMul)] = 1;
    cfg.count[idx(FuClass::FpDiv)] = 1;
    return cfg;
}

FuConfig
FuConfig::sdspEnhanced()
{
    FuConfig cfg = baseLatencies({});
    cfg.count[idx(FuClass::IntAlu)] = 6;
    cfg.count[idx(FuClass::IntMul)] = 2;
    cfg.count[idx(FuClass::IntDiv)] = 2;
    cfg.count[idx(FuClass::Load)] = 2;
    cfg.count[idx(FuClass::Store)] = 2;
    cfg.count[idx(FuClass::Ctrl)] = 1;
    cfg.count[idx(FuClass::FpAdd)] = 2;
    cfg.count[idx(FuClass::FpMul)] = 2;
    cfg.count[idx(FuClass::FpDiv)] = 2;
    return cfg;
}

const char *
fetchPolicyName(FetchPolicy policy)
{
    switch (policy) {
      case FetchPolicy::TrueRoundRobin: return "TrueRR";
      case FetchPolicy::MaskedRoundRobin: return "MaskedRR";
      case FetchPolicy::ConditionalSwitch: return "CSwitch";
      case FetchPolicy::Adaptive: return "Adaptive";
      case FetchPolicy::WeightedRoundRobin: return "WeightedRR";
    }
    return "?";
}

const char *
renameSchemeName(RenameScheme scheme)
{
    switch (scheme) {
      case RenameScheme::FullRenaming: return "FullRenaming";
      case RenameScheme::Scoreboard1Bit: return "Scoreboard1Bit";
    }
    return "?";
}

const char *
commitPolicyName(CommitPolicy policy)
{
    switch (policy) {
      case CommitPolicy::FlexibleFourBlocks: return "Flexible";
      case CommitPolicy::LowestBlockOnly: return "LowestOnly";
    }
    return "?";
}

MachineConfig &
MachineConfig::finalize()
{
    // 32 architectural registers per resident thread (paper Table 2);
    // an explicit larger total is kept as-is.
    numRegisters = std::max(numRegisters, 32 * numThreads);
    return *this;
}

void
MachineConfig::validate() const
{
    if (numThreads < 1 || numThreads > 16)
        fatal("numThreads %u out of range [1,16]", numThreads);
    if (blockSize != 4)
        fatal("the SDSP fetch/commit block is 4 instructions");
    if (suEntries % blockSize != 0 || suEntries < blockSize)
        fatal("suEntries %u must be a positive multiple of %u",
              suEntries, blockSize);
    if (regsPerThread() < 4)
        fatal("fewer than 4 registers per thread");
    if (issueWidth < 1 || writebackWidth < 1)
        fatal("issue/writeback width must be positive");
    if (btbBanks < 1)
        fatal("btbBanks must be at least 1");
    if (fetchPolicy == FetchPolicy::WeightedRoundRobin &&
        !fetchWeights.empty()) {
        if (fetchWeights.size() != numThreads)
            fatal("fetchWeights has %zu entries for %u threads",
                  fetchWeights.size(), numThreads);
        for (unsigned weight : fetchWeights) {
            if (weight < 1)
                fatal("fetchWeights entries must be >= 1");
        }
    }
    if (storeBufferEntries < blockSize) {
        // Stores stay buffered until their SU entry is shifted out at
        // commit, so a block whose four slots are all stores needs
        // four simultaneous buffer entries; anything smaller can
        // deadlock.
        fatal("store buffer (%u entries) must hold at least one "
              "commit block of stores (%u)",
              storeBufferEntries, blockSize);
    }
    for (unsigned i = 0; i < kNumFuClasses; ++i) {
        if (fu.count[i] < 1)
            fatal("functional unit class %s has zero instances",
                  fuClassName(static_cast<FuClass>(i)));
        if (fu.latency[i] < 1)
            fatal("functional unit class %s has zero latency",
                  fuClassName(static_cast<FuClass>(i)));
    }
    validateCache(dcache, "dcache");
    if (!perfectICache)
        validateCache(icache, "icache");
}

std::string
MachineConfig::toString() const
{
    return format(
        "threads=%u fetch=%s su=%u commit=%s rename=%s bypass=%d "
        "dcache=%uB/%u-way sb=%u",
        numThreads, fetchPolicyName(fetchPolicy), suEntries,
        commitPolicyName(commitPolicy), renameSchemeName(renameScheme),
        bypassing ? 1 : 0, dcache.sizeBytes, dcache.ways,
        storeBufferEntries);
}

} // namespace sdsp
