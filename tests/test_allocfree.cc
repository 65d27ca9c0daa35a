/**
 * @file
 * Steady-state allocation test: after a warmup period, the per-cycle
 * simulation loop must perform no heap allocation at all. This pins
 * the pooled SU block storage, the reused fetch latch, the scratch
 * vectors and the pre-reserved index structures — a regression in any
 * of them shows up here as a nonzero count, long before it shows up
 * as a throughput loss in perfbench's `grid` workload.
 *
 * The global operator new of this binary counts allocations while a
 * flag is set; the flag is only set around the measured cycle loop.
 */

#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/processor.hh"
#include "workloads/workload.hh"

namespace
{

bool g_counting = false;
std::size_t g_allocs = 0;

void *
countedAlloc(std::size_t size)
{
    if (g_counting)
        ++g_allocs;
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

void
expectAllocFree(const Workload &workload, unsigned threads)
{
    WorkloadImage image = workload.build(threads, /*scale=*/50);
    MachineConfig cfg;
    cfg.numThreads = threads;

    Processor cpu(cfg, image.program);

    // Warm up: fill the SU block pool, grow the scratch vectors to
    // their high-water marks, take the first mispredict squashes.
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

TEST(AllocFree, GroupOneWorkloadSteadyState)
{
    // LL7: loads, stores, branches — every pipeline path.
    expectAllocFree(*allWorkloads().front(), 4);
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
    expectAllocFree(*pick, 6);
}

} // namespace
} // namespace sdsp
