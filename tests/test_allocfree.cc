/**
 * @file
 * Steady-state allocation test: after a warmup period, the per-cycle
 * simulation loop must perform no heap allocation at all. This pins
 * the SU's entry arena and its pre-reserved queues, the completion
 * wheel and its overflow list, the reused fetch latch and the scratch
 * vectors — a regression in any of them shows up here as a nonzero
 * count, long before it shows up as a throughput loss in perfbench's
 * `grid` workload. It is checked on every machine shape that changes
 * a queue's size or a latency, and with a TraceRecorder attached
 * (writing into a stream that discards its bytes): recording formats
 * each line in place.
 *
 * The dependence-graph build is held to a byte budget instead: it may
 * allocate, beyond the graph it returns, at most as many bytes as
 * that graph holds. A relaxation of the built graph, its critical-path
 * walk and its exactness check each allocate one array of node times
 * and nothing else.
 *
 * The global operator new of this binary counts allocations and their
 * bytes while a flag is set; the flag is only set around the measured
 * code.
 */

#include <cstdlib>
#include <new>
#include <ostream>
#include <streambuf>
#include <vector>

#include <gtest/gtest.h>

#include "core/processor.hh"
#include "critpath/ddg.hh"
#include "harness/runner.hh"
#include "trace_frontend/trace_format.hh"
#include "workloads/workload.hh"

namespace
{

bool g_counting = false;
std::size_t g_allocs = 0;
std::size_t g_bytes = 0;

void *
countedAlloc(std::size_t size)
{
    if (g_counting) {
        ++g_allocs;
        g_bytes += size;
    }
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace sdsp
{
namespace
{

/** A stream buffer that accepts and drops every byte. */
class DiscardBuf final : public std::streambuf
{
  protected:
    int_type
    overflow(int_type ch) override
    {
        return traits_type::not_eof(ch);
    }

    std::streamsize
    xsputn(const char *, std::streamsize count) override
    {
        return count;
    }
};

void
expectAllocFree(const Workload &workload, const MachineConfig &cfg,
                bool record = false)
{
    WorkloadImage image = workload.build(cfg.numThreads, /*scale=*/50);
    Processor cpu(cfg, image.program);
    DiscardBuf discard;
    std::ostream trace_out(&discard);
    TraceRecorder recorder(trace_out, image.program, cfg,
                           workload.name());
    if (record)
        cpu.setTraceSink(&recorder);

    // Warm up: grow the scratch vectors to their high-water marks,
    // take the first mispredict squashes.
    const Cycle warmup = 5000;
    const Cycle measure = 20000;
    for (Cycle i = 0; i < warmup && !cpu.done(); ++i)
        cpu.step();
    ASSERT_FALSE(cpu.done())
        << workload.name() << " too short for the warmup period";

    g_allocs = 0;
    g_counting = true;
    for (Cycle i = 0; i < measure && !cpu.done(); ++i)
        cpu.step();
    g_counting = false;

    EXPECT_EQ(g_allocs, 0u)
        << g_allocs << " heap allocations in the steady-state cycle "
        << "loop of " << workload.name();
}

/** The default machine with @p threads threads. */
MachineConfig
machine(unsigned threads)
{
    MachineConfig cfg;
    cfg.numThreads = threads;
    return cfg;
}

TEST(AllocFree, GroupOneWorkloadSteadyState)
{
    // LL7: loads, stores, branches — every pipeline path.
    expectAllocFree(*allWorkloads().front(), machine(4));
}

TEST(AllocFree, TraceRecorderSteadyState)
{
    expectAllocFree(workloadByName("LL1"), machine(4), /*record=*/true);
}

TEST(AllocFree, WideWindowAndIssue)
{
    MachineConfig cfg = machine(4);
    cfg.suEntries = 128;
    cfg.issueWidth = 16;
    expectAllocFree(*allWorkloads().front(), cfg);
}

TEST(AllocFree, NoBypassingWithScoreboarding)
{
    MachineConfig cfg = machine(4);
    cfg.bypassing = false;
    cfg.renameScheme = RenameScheme::Scoreboard1Bit;
    expectAllocFree(*allWorkloads().front(), cfg);
}

TEST(AllocFree, LowestBlockOnlyCommit)
{
    MachineConfig cfg = machine(4);
    cfg.commitPolicy = CommitPolicy::LowestBlockOnly;
    expectAllocFree(*allWorkloads().front(), cfg);
}

TEST(AllocFree, FetchPolicies)
{
    for (FetchPolicy policy :
         {FetchPolicy::MaskedRoundRobin, FetchPolicy::ConditionalSwitch,
          FetchPolicy::Adaptive}) {
        SCOPED_TRACE(fetchPolicyName(policy));
        MachineConfig cfg = machine(4);
        cfg.fetchPolicy = policy;
        expectAllocFree(*allWorkloads().front(), cfg);
    }
}

TEST(AllocFree, DividerLatencyBeyondTheCompletionWheel)
{
    // Divides due further ahead than the wheel spans wait in its
    // overflow list: Sieve divides once per base prime, Water's
    // force loop takes a square root and a divide per pair.
    MachineConfig cfg = machine(4);
    cfg.fu.latency[static_cast<unsigned>(FuClass::IntDiv)] =
        2 * FuPool::kWheelSlots + 7;
    expectAllocFree(workloadByName("Sieve"), cfg);
    cfg.fu.latency[static_cast<unsigned>(FuClass::FpDiv)] =
        2 * FuPool::kWheelSlots + 7;
    expectAllocFree(workloadByName("Water"), cfg);
}

TEST(AllocFree, GroupTwoWorkloadSteadyState)
{
    // A Group II benchmark exercises heavier control flow (more
    // squash traffic through the indexed SU).
    const Workload *pick = nullptr;
    for (const Workload *workload : allWorkloads()) {
        if (workload->group() == BenchmarkGroup::GroupII) {
            pick = workload;
            break;
        }
    }
    ASSERT_NE(pick, nullptr);
    expectAllocFree(*pick, machine(6));
}

TEST(AllocFree, GraphBuildStaysWithinTheGraphsOwnBytes)
{
    // Building the graph touches each committed instruction once: its
    // temporaries (sort keys, tag tables, per-node links, the slack of
    // the edge array) may add at most the finished graph's own bytes.
    for (const char *name : {"LL5", "Sieve"}) {
        SCOPED_TRACE(name);
        const MachineConfig cfg = machine(4);
        DdgRecorder recorder;
        const RunResult run =
            runWorkload(workloadByName(name), cfg, 10, &recorder);
        ASSERT_TRUE(run.finished && run.verified);

        g_bytes = 0;
        g_counting = true;
        const DdgGraph graph(recorder.trace(), cfg, run.cycles);
        g_counting = false;
        ASSERT_EQ(graph.verifyExact(), "");

        // Nodes, then per node a CSR offset and a capacity word, per
        // edge its source, word and miss cycles, and the commit and
        // issue orders.
        const DdgTrace &trace = recorder.trace();
        const std::size_t held =
            graph.nodes().size() * sizeof(DdgGraph::Node) +
            graph.edgeStart().size() * sizeof(std::uint32_t) +
            graph.nodeCount() * sizeof(std::uint32_t) +
            graph.edgeCount() * 3 * sizeof(std::uint32_t) +
            (trace.blocks.size() + trace.insts.size()) *
                sizeof(std::uint32_t);
        EXPECT_LE(g_bytes, 2 * held)
            << "the build allocated " << g_bytes << " bytes for a graph "
            << "of " << held << " (x"
            << static_cast<double>(g_bytes - held) /
                   static_cast<double>(held)
            << " beyond it)";
    }
}

TEST(AllocFree, RelaxAllocatesOnlyItsTimeArray)
{
    // Every capacity kind and both D-cache modes: each relaxation,
    // with or without its critical-path walk, resolves its what-if on
    // the stack and allocates the one array its times go in — also
    // against a recording whose config holds fetch weights, which a
    // copy of the config would allocate.
    MachineConfig weighted = machine(4);
    weighted.fetchPolicy = FetchPolicy::WeightedRoundRobin;
    weighted.fetchWeights = {2, 1, 1, 1};
    for (const MachineConfig &cfg : {machine(4), weighted}) {
        SCOPED_TRACE(fetchPolicyName(cfg.fetchPolicy));
        DdgRecorder recorder;
        const RunResult run =
            runWorkload(workloadByName("LL5"), cfg, 10, &recorder);
        ASSERT_TRUE(run.finished && run.verified);
        const DdgGraph graph(recorder.trace(), cfg, run.cycles);
        const std::size_t timeBytes =
            graph.nodeCount() * sizeof(std::int64_t);

        WhatIf baseline, perfect, smaller, wider;
        perfect.perfectDCache = true;
        perfect.fuLatency[static_cast<unsigned>(FuClass::Load)] = 1;
        smaller.suEntries = 16;
        smaller.issueWidth = 2;
        wider.suEntries = 128;
        wider.issueWidth = 16;
        wider.infiniteStoreBuffer = true;
        for (const WhatIf &what_if : {baseline, perfect, smaller, wider}) {
            SCOPED_TRACE(what_if.describe(cfg));
            g_allocs = 0;
            g_bytes = 0;
            g_counting = true;
            const RelaxResult projection = graph.relax(what_if);
            g_counting = false;
            EXPECT_GT(projection.cycles, 0u);
            EXPECT_EQ(g_allocs, 1u);
            EXPECT_EQ(g_bytes, timeBytes);

            g_allocs = 0;
            g_bytes = 0;
            g_counting = true;
            const CriticalPath path = graph.criticalPath(what_if);
            g_counting = false;
            EXPECT_EQ(path.cycles, projection.cycles);
            EXPECT_EQ(g_allocs, 1u);
            EXPECT_EQ(g_bytes, timeBytes);
        }

        g_allocs = 0;
        g_bytes = 0;
        g_counting = true;
        const std::string mismatch = graph.verifyExact();
        g_counting = false;
        EXPECT_EQ(mismatch, "");
        EXPECT_EQ(g_allocs, 1u);
        EXPECT_EQ(g_bytes, timeBytes);
    }
}

} // namespace
} // namespace sdsp
