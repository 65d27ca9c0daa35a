/**
 * @file
 * Machine configuration (the paper's Tables 1 and 2).
 *
 * Every design axis the paper sweeps is a field here: fetch policy,
 * thread count, scheduling-unit depth, result-commit policy, renaming
 * scheme, bypassing, cache organization, and the functional unit
 * complement (default vs "enhanced"/"++").
 */

#ifndef SDSP_CORE_CONFIG_HH
#define SDSP_CORE_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/opcode.hh"
#include "memory/cache.hh"

namespace sdsp
{

/**
 * Instruction fetch policies (paper section 5.1), plus the adaptive
 * policy sketched in section 6.1 item 3.
 */
enum class FetchPolicy : std::uint8_t
{
    /**
     * True Round Robin: a modulo-N counter advances every cycle
     * irrespective of thread state; the selected thread fetches one
     * block. The paper's default.
     */
    TrueRoundRobin,
    /**
     * Masked Round Robin: like TrueRR, but a thread that failed to
     * commit from the lower-most reorder-buffer block is masked out
     * of the rotation until the commit takes place.
     */
    MaskedRoundRobin,
    /**
     * Conditional Switch: keep fetching the same thread until the
     * decoder sees a long-latency trigger (integer divide, FP
     * multiply/divide, a synchronization primitive), then switch.
     */
    ConditionalSwitch,
    /**
     * Extension (paper section 6.1): a "judicious" policy that slows
     * down fetching for threads in a region of low execution rate, by
     * skipping threads whose recent commit-block rate is poor.
     */
    Adaptive,
    /**
     * Extension (paper section 3.3): round robin with per-thread
     * weights, the mechanism the paper suggests for allotting
     * different priorities ("the fetch policy ... can be adapted to
     * favor or discriminate against the particular thread(s)").
     * Thread t receives MachineConfig::fetchWeights[t] fetch slots
     * per rotation round.
     */
    WeightedRoundRobin,
};

/** Register dependence tracking schemes (paper Table 2). */
enum class RenameScheme : std::uint8_t
{
    /** Unique-tag renaming shared across threads (the default). */
    FullRenaming,
    /**
     * 1-bit scoreboarding: no renaming; dispatch stalls while an
     * older in-flight instruction of the same thread targets the same
     * register (WAW/WAR serialization).
     */
    Scoreboard1Bit,
};

/** Result commit policies (paper section 3.5 / Figure 2). */
enum class CommitPolicy : std::uint8_t
{
    /**
     * Flexible Result Commit: any of the bottom four blocks may
     * commit, provided every incomplete block below it belongs to a
     * different thread.
     */
    FlexibleFourBlocks,
    /** Only the lower-most block may commit (the classic ROB rule). */
    LowestBlockOnly,
};

const char *fetchPolicyName(FetchPolicy policy);
const char *renameSchemeName(RenameScheme scheme);
const char *commitPolicyName(CommitPolicy policy);

/** Functional unit complement: counts, latencies, pipelining. */
struct FuConfig
{
    std::array<unsigned, kNumFuClasses> count{};
    std::array<unsigned, kNumFuClasses> latency{};
    std::array<bool, kNumFuClasses> pipelined{};

    unsigned
    countOf(FuClass cls) const
    {
        return count[static_cast<unsigned>(cls)];
    }

    unsigned
    latencyOf(FuClass cls) const
    {
        return latency[static_cast<unsigned>(cls)];
    }

    bool
    pipelinedOf(FuClass cls) const
    {
        return pipelined[static_cast<unsigned>(cls)];
    }

    /** Paper Table 1, "Default no." column (see DESIGN.md). */
    static FuConfig sdspDefault();

    /** Paper Table 1, "Other no." column — the "++" configuration. */
    static FuConfig sdspEnhanced();

    bool operator==(const FuConfig &) const = default;
};

/** Complete machine configuration. */
struct MachineConfig
{
    /** Simultaneously resident threads (paper default: 4). */
    unsigned numThreads = 4;

    FetchPolicy fetchPolicy = FetchPolicy::TrueRoundRobin;

    /** Instructions per fetch/commit block (SDSP: 4). */
    unsigned blockSize = 4;

    /** Scheduling unit entries; must be a multiple of blockSize. */
    unsigned suEntries = 32;

    /** Instructions issued to functional units per cycle. */
    unsigned issueWidth = 8;

    /** Results written back to the SU per cycle. */
    unsigned writebackWidth = 8;

    CommitPolicy commitPolicy = CommitPolicy::FlexibleFourBlocks;

    RenameScheme renameScheme = RenameScheme::FullRenaming;

    /** Result bypassing: a woken instruction may issue the same
     *  cycle its operand is written back. */
    bool bypassing = true;

    FuConfig fu = FuConfig::sdspDefault();

    /** Data cache organization (2-way 8 KB default; ways=1 selects
     *  the paper's direct-mapped alternative). */
    CacheConfig dcache{};

    /**
     * The paper assumes a perfect instruction cache (Table 2:
     * "Instruction cache: Perfect cache (100% hits)"). Setting this
     * false models a finite I-cache described by `icache` so the
     * assumption can be quantified; an I-cache miss stalls that
     * thread's fetch for the refill time.
     */
    bool perfectICache = true;

    /** Finite I-cache geometry (used when perfectICache is false).
     *  The 16-byte line holds exactly one 4-instruction fetch
     *  block. */
    CacheConfig icache{4096, 16, 2, 8, 1, 1};

    /** Store buffer entries (paper: 8). */
    unsigned storeBufferEntries = 8;

    /** Total architectural registers, statically partitioned. */
    unsigned numRegisters = 128;

    /** Branch target buffer entries (total budget). */
    unsigned btbEntries = 512;

    /**
     * BTB banks: 1 shares one BTB among all threads (the paper's
     * design, sufficient because all threads run the same code);
     * numThreads gives each thread a private slice of the same total
     * budget.
     */
    unsigned btbBanks = 1;

    /** Adaptive policy: skip a thread whose stall score exceeds
     *  this (see FetchPolicy::Adaptive). */
    unsigned adaptiveThreshold = 8;

    /**
     * WeightedRoundRobin: fetch slots each thread receives per
     * rotation round. Empty means equal weights of 1; otherwise must
     * have numThreads entries, each >= 1.
     */
    std::vector<unsigned> fetchWeights;

    /** Simulation safety cap. */
    std::uint64_t maxCycles = 200'000'000;

    /** Registers in each thread's static partition. */
    unsigned
    regsPerThread() const
    {
        return numRegisters / numThreads;
    }

    /** Blocks the scheduling unit can hold. */
    unsigned suBlocks() const { return suEntries / blockSize; }

    /** Blocks examined by flexible result commit. */
    unsigned
    commitWindowBlocks() const
    {
        return commitPolicy == CommitPolicy::FlexibleFourBlocks ? 4 : 1;
    }

    /**
     * Derive dependent defaults after the primary knobs are set.
     * The paper gives every resident thread the SDSP's 32
     * architectural registers, but the default total of 128 only
     * covers 4 threads — an 8-thread config built from defaults
     * would silently partition 128 into 16 regs/thread and reject
     * programs that use r16+. Grows numRegisters to 32 per thread
     * (never shrinks an explicit larger value). Every CLI and bench
     * driver calls this once the thread count is known.
     * @return *this for chaining.
     */
    MachineConfig &finalize();

    /** Fatal on an inconsistent configuration. */
    void validate() const;

    /** One-line human-readable summary. */
    std::string toString() const;

    bool operator==(const MachineConfig &) const = default;
};

} // namespace sdsp

#endif // SDSP_CORE_CONFIG_HH
