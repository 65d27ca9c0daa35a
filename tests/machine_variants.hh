/**
 * @file
 * The named machine variants the pinned-digest tests run on: the
 * default machine ("base") and one knob changed per variant. Both
 * test_stats_digest (every statistic and trace field) and
 * test_critpath (every built dependence graph) pin their digests
 * over these machines.
 */

#ifndef SDSP_TESTS_MACHINE_VARIANTS_HH
#define SDSP_TESTS_MACHINE_VARIANTS_HH

#include <string>

#include <gtest/gtest.h>

#include "core/config.hh"

namespace sdsp
{

/** The default machine with @p threads threads and @p variant
 *  applied, finalized. */
inline MachineConfig
machineVariant(unsigned threads, const std::string &variant)
{
    MachineConfig cfg;
    cfg.numThreads = threads;
    if (variant == "su16") {
        cfg.suEntries = 16;
    } else if (variant == "su128") {
        cfg.suEntries = 128;
    } else if (variant == "issue16") {
        cfg.issueWidth = 16;
    } else if (variant == "nobypass") {
        cfg.bypassing = false;
    } else if (variant == "scoreboard") {
        cfg.renameScheme = RenameScheme::Scoreboard1Bit;
    } else if (variant == "lowestblock") {
        cfg.commitPolicy = CommitPolicy::LowestBlockOnly;
    } else if (variant == "maskedrr") {
        cfg.fetchPolicy = FetchPolicy::MaskedRoundRobin;
    } else if (variant == "condswitch") {
        cfg.fetchPolicy = FetchPolicy::ConditionalSwitch;
    } else if (variant == "adaptive") {
        cfg.fetchPolicy = FetchPolicy::Adaptive;
    } else if (variant == "weighted") {
        cfg.fetchPolicy = FetchPolicy::WeightedRoundRobin;
        cfg.fetchWeights = {3, 1, 2, 1};
    } else if (variant == "directmapped") {
        cfg.dcache.ways = 1;
    } else if (variant == "partitioned") {
        cfg.dcache.partitions = threads;
    } else if (variant == "privatebtb") {
        cfg.btbBanks = threads;
    } else if (variant == "icache") {
        cfg.perfectICache = false;
    } else {
        EXPECT_EQ(variant, "base") << "unknown variant";
    }
    cfg.finalize();
    return cfg;
}

} // namespace sdsp

#endif // SDSP_TESTS_MACHINE_VARIANTS_HH
