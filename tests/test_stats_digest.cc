/**
 * @file
 * Bit-exact pin of every simulated statistic.
 *
 * The golden grid (bench/golden/) checks cycles and committed counts
 * only. This test pins everything else a run reports, so a change to
 * the cycle loop's data structures that keeps the cycle count but
 * moves one stall charge, one histogram bucket or one trace field
 * fails here. For each machine point it runs the workload twice:
 *
 *  - with no sink attached, and hashes the whole reportStats registry
 *    (every scalar and every histogram bucket) plus the per-thread
 *    stall-attribution matrix;
 *  - with a sink that wants every event kind, and hashes every field
 *    of every TraceEvent in emission order.
 *
 * Both digests are 64-bit FNV-1a, pinned as literals: a mismatch
 * means simulated behaviour changed. A change that alters the model
 * on purpose recaptures them (each failure prints the new value).
 */

#include <bit>
#include <cstdint>
#include <cstring>
#include <ios>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/processor.hh"
#include "machine_variants.hh"
#include "workloads/workload.hh"

namespace sdsp
{
namespace
{

/** 64-bit FNV-1a over a byte stream. */
class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state ^= p[i];
            state *= 0x100000001b3ull;
        }
    }

    void u64(std::uint64_t value) { bytes(&value, sizeof value); }
    void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

    void
    str(const char *text)
    {
        if (!text) {
            u64(~std::uint64_t{0});
            return;
        }
        std::size_t size = std::strlen(text);
        u64(size);
        bytes(text, size);
    }

    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ull;
};

/** Hashes every field of every event it receives. */
class DigestSink final : public TraceSink
{
  public:
    void
    emit(const TraceEvent &ev) override
    {
        hash.u64(static_cast<std::uint64_t>(ev.kind));
        hash.u64(ev.cycle);
        hash.u64(ev.tid);
        hash.u64(ev.seq);
        hash.u64(ev.pc);
        for (std::uint64_t arg : ev.args)
            hash.u64(arg);
        hash.str(ev.label);
        hash.f64(ev.fval);
        hash.u64(ev.hasFval);
        hash.u64(ev.word);
        hash.u64(ev.memAddr);
        hash.u64(ev.hasMemAddr);
        hash.u64(ev.taken);
        hash.u64(ev.readyAt);
        hash.u64(ev.wakeupSeq);
        hash.u64(ev.waitSeq[0]);
        hash.u64(ev.waitSeq[1]);
        hash.u64(ev.missExtra);
        hash.u64(static_cast<std::uint64_t>(ev.issueBlockCause));
        hash.u64(ev.issueBlockCycle);
        hash.u64(static_cast<std::uint64_t>(ev.dispatchWaitCause));
        hash.u64(ev.mispredicted);
        ++events;
    }

    Fnv1a hash;
    std::uint64_t events = 0;
};

/** One pinned machine point and its two expected digests. */
struct DigestPoint
{
    const char *workload;
    unsigned threads;
    const char *variant;
    std::uint64_t statsDigest;
    std::uint64_t traceDigest;
};

/** Stable test-parameter text (the default prints raw bytes). */
void
PrintTo(const DigestPoint &point, std::ostream *os)
{
    *os << point.workload << "/" << point.threads << "t/" << point.variant;
}

constexpr unsigned kScale = 10;

std::uint64_t
statsDigest(const Processor &cpu, const SimResult &result)
{
    Fnv1a hash;
    hash.u64(result.cycles);
    hash.u64(result.committedInstructions);
    hash.u64(result.finished);

    StatsRegistry registry;
    cpu.reportStats(registry);
    for (const StatEntry &entry : registry.entries()) {
        hash.str(entry.name.c_str());
        hash.f64(entry.value);
    }
    for (const DistEntry &entry : registry.distributions()) {
        hash.str(entry.name.c_str());
        const Distribution &dist = entry.dist;
        hash.u64(dist.count());
        hash.u64(dist.sum());
        hash.u64(dist.min());
        hash.u64(dist.max());
        for (unsigned b = 0; b < Distribution::kBuckets; ++b)
            hash.u64(dist.bucketCount(b));
    }
    for (unsigned t = 0; t < cpu.config().numThreads; ++t) {
        for (unsigned r = 0; r < kNumStallReasons; ++r) {
            hash.u64(cpu.stallCycles(static_cast<ThreadId>(t),
                                     static_cast<StallReason>(r)));
        }
    }
    return hash.value();
}

class StatsDigest : public testing::TestWithParam<DigestPoint>
{
};

TEST_P(StatsDigest, MatchesPinnedRun)
{
    const DigestPoint &point = GetParam();
    MachineConfig cfg = machineVariant(point.threads, point.variant);
    WorkloadImage image =
        workloadByName(point.workload).build(point.threads, kScale);

    Processor plain(cfg, image.program);
    SimResult result = plain.run();
    ASSERT_TRUE(result.finished);
    ASSERT_TRUE(image.verify(plain.memory()).ok);

    Processor traced(cfg, image.program);
    DigestSink sink;
    traced.setTraceSink(&sink);
    SimResult traced_result = traced.run();
    ASSERT_EQ(traced_result.cycles, result.cycles);
    ASSERT_GT(sink.events, 0u);

    EXPECT_EQ(statsDigest(plain, result), point.statsDigest)
        << std::hex << std::showbase << "stats digest "
        << statsDigest(plain, result);
    EXPECT_EQ(sink.hash.value(), point.traceDigest)
        << std::hex << std::showbase << "trace digest "
        << sink.hash.value();
}

const DigestPoint kPoints[] = {
    // The eleven workloads at 1, 4 and 6 threads, default machine.
    {"LL1", 1, "base",
     0x45ea6aeff28aa9af, 0xdffcd8e86ea4da92},
    {"LL1", 4, "base",
     0x342cf3c1162f7b1a, 0xbd10d97b68e2dd6a},
    {"LL1", 6, "base",
     0x82a33a4d0f2a6af2, 0xd229378d1fef5e4f},
    {"LL2", 1, "base",
     0x2ae5c1cf51e0d119, 0xea22c1891ff7d52},
    {"LL2", 4, "base",
     0xa4cbcac18444172b, 0xc8c06b5de9a5e03c},
    {"LL2", 6, "base",
     0xb13182008a9574e2, 0x7f11fb596d535efe},
    {"LL3", 1, "base",
     0x6d8974ea84c79657, 0x1a5b4866fb1f6075},
    {"LL3", 4, "base",
     0xb7b84c9b96277ff7, 0x6a53eccc28df43b},
    {"LL3", 6, "base",
     0x99f827fb3be4554a, 0xdeb6d4e46654fe8d},
    {"LL5", 1, "base",
     0x90556014f0ff7c90, 0x7a53f6beba55f435},
    {"LL5", 4, "base",
     0x82ce9bec4e79ca83, 0xfb7cebb41458d2fa},
    {"LL5", 6, "base",
     0x34a28e44440226ea, 0x75ff739c3e01c899},
    {"LL7", 1, "base",
     0xd26a93d4c0a5e454, 0x1634349ba05d54fa},
    {"LL7", 4, "base",
     0x8dd0c3c678e5ba2c, 0xc61ecc3f2f64c3df},
    {"LL7", 6, "base",
     0x2fc033d318587851, 0x8d4633cf63fb6fd0},
    {"LL11", 1, "base",
     0x4ee34bab0d530302, 0xd893913bbe9898c4},
    {"LL11", 4, "base",
     0xe2c744627f013af5, 0xe53eb7f160865558},
    {"LL11", 6, "base",
     0x846883d6f3f5cb02, 0x701fc3b77f639f5a},
    {"Laplace", 1, "base",
     0x4d6ce8cef94fa4b1, 0x5afb390c3ba15e38},
    {"Laplace", 4, "base",
     0x3d550f7fc5cd609, 0x66e6702cf0d197c0},
    {"Laplace", 6, "base",
     0xe4424a61973800d0, 0x356706a60de4b539},
    {"MPD", 1, "base",
     0xbda837bcb6181b8d, 0x7d4ffbf79d191a47},
    {"MPD", 4, "base",
     0xdf7d975ccc10f470, 0xb30027feb55679af},
    {"MPD", 6, "base",
     0x6563b5340ceb9831, 0x25460d4454ae9a67},
    {"Matrix", 1, "base",
     0x73ad615b8493c849, 0xb0170bd7d399b9d8},
    {"Matrix", 4, "base",
     0x10d6567ba9e5fc9f, 0x2c1748694cb49a61},
    {"Matrix", 6, "base",
     0xed6d87847c39c1fd, 0xf797cfbd583b963c},
    {"Sieve", 1, "base",
     0x285e96f60f3fb610, 0x85620a7cf77748eb},
    {"Sieve", 4, "base",
     0x92f1394382ccf04, 0xfed51cb047f40c97},
    {"Sieve", 6, "base",
     0x842533847abab550, 0x4a63cb1ef902d1d7},
    {"Water", 1, "base",
     0xb762ddd783ccd925, 0x9eb2e49efd4d048f},
    {"Water", 4, "base",
     0x66b3b56c89c4ba60, 0x627fed03db6e0dee},
    {"Water", 6, "base",
     0xfef6ccfc086f8812, 0x15d7ac057553fae6},
    // LL5, Sieve and Water at 4 threads on every machine variant.
    {"LL5", 4, "su16",
     0xdef4c9238fc5eb7e, 0x90091066f12b046},
    {"LL5", 4, "su128",
     0xf72a690f8ad90107, 0x710d804c7c74355},
    {"LL5", 4, "issue16",
     0xecdb29f2772e3b83, 0xfb7cebb41458d2fa},
    {"LL5", 4, "nobypass",
     0xf4d746791f82b867, 0x6692022d687ed439},
    {"LL5", 4, "scoreboard",
     0x1fe625a3c6c612cd, 0xef82885951817ef6},
    {"LL5", 4, "lowestblock",
     0x4f1072e7db36f226, 0x4ecdc94e8c3358a0},
    {"LL5", 4, "maskedrr",
     0xbcace650221f50fd, 0x9382723ea225fac6},
    {"LL5", 4, "condswitch",
     0xd4592baeda281439, 0x520db74622243d79},
    {"LL5", 4, "adaptive",
     0x5fd6c01904254b6f, 0xcf875045bb9b83b5},
    {"LL5", 4, "weighted",
     0x37050f94780222a3, 0xab43b77950e1e29c},
    {"LL5", 4, "directmapped",
     0x82ce9bec4e79ca83, 0xfb7cebb41458d2fa},
    {"LL5", 4, "partitioned",
     0x26241e8e2f4c9952, 0xd3e1c3d5c7371bde},
    {"LL5", 4, "privatebtb",
     0x98fd7b4d33c3169, 0x8e0a285954fba540},
    {"LL5", 4, "icache",
     0xcfa64b24f2bc5acc, 0xecea46bb9c3b2ae8},
    {"Sieve", 4, "su16",
     0xdf9723d7dd742aca, 0x7008759f6df3223e},
    {"Sieve", 4, "su128",
     0xc421d3961332dc08, 0xd0509ee4b8871574},
    {"Sieve", 4, "issue16",
     0x789f7b9895076184, 0xfed51cb047f40c97},
    {"Sieve", 4, "nobypass",
     0xc0c5c2ddb5f8bf7, 0x1417dd60ab4670ba},
    {"Sieve", 4, "scoreboard",
     0xb6a947cc962eace2, 0x6c0124151c8626ac},
    {"Sieve", 4, "lowestblock",
     0x5c7ff72614482048, 0x55c0e1c0659bbdd9},
    {"Sieve", 4, "maskedrr",
     0x660270fc84b053fc, 0x59605d9a9e1c7c34},
    {"Sieve", 4, "condswitch",
     0x1c91c484743a78eb, 0x8419fe0f137074d9},
    {"Sieve", 4, "adaptive",
     0x48a8a56683ed50ae, 0xaaf10f2bf857bb2c},
    {"Sieve", 4, "weighted",
     0x6c502b5c5642855d, 0x7da603af9c3decb7},
    {"Sieve", 4, "directmapped",
     0x92f1394382ccf04, 0xfed51cb047f40c97},
    {"Sieve", 4, "partitioned",
     0xda91a3378ea20341, 0x93b4a8ee5f74f9d7},
    {"Sieve", 4, "privatebtb",
     0xf89ff5e22af5938b, 0xf3586637d64cc53},
    {"Sieve", 4, "icache",
     0x4a883a86c15416ef, 0x465eff9e8aedf9c5},
    {"Water", 4, "su16",
     0x23e0052bb9dbc180, 0xf2e7064d4c6c11e4},
    {"Water", 4, "su128",
     0xe86884ce6909a17d, 0x5091c925e1e545ea},
    {"Water", 4, "issue16",
     0x3d3e5045ab488448, 0x627fed03db6e0dee},
    {"Water", 4, "nobypass",
     0x818c885ee8306b3d, 0x1c7e98416bb667de},
    {"Water", 4, "scoreboard",
     0x95a7240e1ae8c902, 0x7b3b570676711a09},
    {"Water", 4, "lowestblock",
     0x5716db0a3b5fb456, 0x10e9daaa4e9e4805},
    {"Water", 4, "maskedrr",
     0x100e49821380fb03, 0x2a958c3bce6b7691},
    {"Water", 4, "condswitch",
     0x43924cc602de5e0a, 0xa74f30ff6400d781},
    {"Water", 4, "adaptive",
     0xae5048827b06ce24, 0xc68ff544d36d86a3},
    {"Water", 4, "weighted",
     0xdb8c825dbfa6a20c, 0x6205d983cf1d73f},
    {"Water", 4, "directmapped",
     0x66b3b56c89c4ba60, 0x627fed03db6e0dee},
    {"Water", 4, "partitioned",
     0x4a6f0b387216a6ed, 0x5ddccf1cbbca0e94},
    {"Water", 4, "privatebtb",
     0xa77025f0373dd8ff, 0xddf2ea8d6661856e},
    {"Water", 4, "icache",
     0x70c55a1308b18399, 0xa49f1adc10f18a61},
};

std::string
pointName(const testing::TestParamInfo<DigestPoint> &info)
{
    return std::string(info.param.workload) + "_" +
           std::to_string(info.param.threads) + "t_" +
           info.param.variant;
}

INSTANTIATE_TEST_SUITE_P(Pinned, StatsDigest, testing::ValuesIn(kPoints),
                         pointName);

} // namespace
} // namespace sdsp
