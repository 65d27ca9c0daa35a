/**
 * @file
 * Integration tests for the full multithreaded superscalar pipeline:
 * architectural correctness against the reference interpreter,
 * misprediction recovery, store-buffer forwarding, multithreaded
 * synchronization, determinism, and the first-order performance
 * effects of each configuration axis.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "core/processor.hh"
#include "isa/interpreter.hh"

namespace sdsp
{
namespace
{

MachineConfig
baseConfig(unsigned threads = 1)
{
    MachineConfig cfg;
    cfg.numThreads = threads;
    cfg.maxCycles = 1'000'000;
    return cfg;
}

/** Run a program on the pipeline and cross-check every thread's
 *  architectural registers and the memory image against the
 *  reference interpreter. */
SimResult
runChecked(const Program &prog, const MachineConfig &cfg)
{
    Processor cpu(cfg, prog);
    SimResult result = cpu.run();
    EXPECT_TRUE(result.finished);

    Interpreter interp(prog, cfg.numThreads);
    EXPECT_TRUE(interp.run());

    unsigned budget = cfg.regsPerThread();
    for (unsigned t = 0; t < cfg.numThreads; ++t) {
        for (unsigned r = 0; r < budget; ++r) {
            EXPECT_EQ(cpu.readReg(static_cast<ThreadId>(t),
                                  static_cast<RegIndex>(r)),
                      interp.reg(static_cast<ThreadId>(t),
                                 static_cast<RegIndex>(r)))
                << "thread " << t << " r" << r;
        }
    }
    EXPECT_EQ(cpu.memory().image(), interp.memory());
    EXPECT_EQ(result.committedInstructions,
              interp.totalInstructionCount());
    return result;
}

Program
countdownLoop(int iterations)
{
    ProgramBuilder b;
    b.dword("out", 0);
    b.ldi(1, iterations);
    b.ldi(2, 0);
    b.label("top");
    b.add(2, 2, 1);
    b.addi(1, 1, -1);
    b.bne(1, 0, "top");
    b.la(3, "out");
    b.st(2, 0, 3);
    b.halt();
    return b.finish();
}

TEST(Processor, StraightLineArithmetic)
{
    ProgramBuilder b;
    b.ldi(1, 6);
    b.ldi(2, 7);
    b.mul(3, 1, 2);
    b.addi(4, 3, -2);
    b.div(5, 3, 1);
    b.halt();
    runChecked(b.finish(), baseConfig());
}

TEST(Processor, LoopWithBranchRecovery)
{
    // The loop's backward branch mispredicts at least once (cold BTB)
    // and at the final iteration; recovery must preserve
    // architectural state.
    SimResult result = runChecked(countdownLoop(50), baseConfig());
    EXPECT_GT(result.cycles, 50u);
}

TEST(Processor, StoreLoadForwardingSameThread)
{
    ProgramBuilder b;
    b.dword("cell", 0);
    b.la(1, "cell");
    b.ldi(2, 77);
    b.st(2, 0, 1);
    b.ld(3, 0, 1); // must forward 77 from the store buffer
    b.addi(4, 3, 1);
    b.halt();
    runChecked(b.finish(), baseConfig());
}

TEST(Processor, LoadWaitsForUnresolvedOlderStore)
{
    // The store's address depends on a long-latency divide; the
    // younger load must not bypass it.
    ProgramBuilder b;
    b.dword("a", 11);
    b.dword("b", 0);
    b.ldi(1, 64);
    b.ldi(2, 8);
    b.div(3, 1, 2);   // 8 = address of "b", slowly
    b.ldi(4, 123);
    b.st(4, 0, 3);    // store to b
    b.ld(5, 8, 0)     // load b (r0 still 0): must see 123
        .halt();
    runChecked(b.finish(), baseConfig());
}

TEST(Processor, FunctionCallThroughJalJr)
{
    ProgramBuilder b;
    b.ldi(1, 5);
    b.jal(10, "double_it");
    b.jal(10, "double_it");
    b.halt();
    b.label("double_it");
    b.add(1, 1, 1);
    b.jr(10);
    runChecked(b.finish(), baseConfig());
}

TEST(Processor, MultithreadedDisjointStores)
{
    ProgramBuilder b;
    b.array("cells", 8);
    b.la(1, "cells");
    b.tid(2);
    b.slli(3, 2, 3);
    b.add(1, 1, 3);
    b.addi(4, 2, 100);
    b.st(4, 0, 1);
    b.halt();
    runChecked(b.finish(), baseConfig(4));
}

TEST(Processor, CrossThreadSpinFlagSynchronization)
{
    ProgramBuilder b;
    b.dword("value", 0);
    b.dword("flag", 0);
    b.tid(2);
    b.bne(2, 0, "consumer");
    b.ldi(3, 432);
    b.la(4, "value");
    b.st(3, 0, 4);
    b.ldi(3, 1);
    b.la(4, "flag");
    b.st(3, 0, 4);
    b.halt();
    b.label("consumer");
    b.la(4, "flag");
    b.label("spinloop");
    b.spin();
    b.ld(3, 0, 4);
    b.beq(3, 0, "spinloop");
    b.la(4, "value");
    b.ld(5, 0, 4);
    b.halt();

    Program prog = b.finish();
    MachineConfig cfg = baseConfig(2);
    Processor cpu(cfg, prog);
    ASSERT_TRUE(cpu.run().finished);
    EXPECT_EQ(cpu.readReg(1, 5), 432u);
}

TEST(Processor, DeterministicCycleCounts)
{
    Program prog = countdownLoop(40);
    MachineConfig cfg = baseConfig(1);
    Processor first(cfg, prog);
    Processor second(cfg, prog);
    EXPECT_EQ(first.run().cycles, second.run().cycles);
}

TEST(Processor, PerThreadCommitCounts)
{
    ProgramBuilder b;
    b.tid(1);
    b.beq(1, 0, "quick");
    b.addi(2, 2, 1);
    b.addi(2, 2, 1);
    b.label("quick");
    b.halt();
    MachineConfig cfg = baseConfig(2);
    Processor cpu(cfg, b.finish());
    ASSERT_TRUE(cpu.run().finished);
    // Thread 0: tid, beq, halt. Thread 1: tid, beq, 2x addi, halt.
    EXPECT_EQ(cpu.committedInstructions(0), 3u);
    EXPECT_EQ(cpu.committedInstructions(1), 5u);
    EXPECT_EQ(cpu.committedInstructions(), 8u);
}

TEST(Processor, RegisterBudgetEnforcedAtLoad)
{
    ProgramBuilder b;
    b.ldi(40, 1);
    b.halt();
    Program prog = b.finish();
    MachineConfig cfg = baseConfig(4); // 32 registers per thread
    EXPECT_EXIT(Processor(cfg, prog), ::testing::ExitedWithCode(1),
                "partition");
}

TEST(Processor, CycleCapReportsUnfinished)
{
    ProgramBuilder b;
    b.label("forever");
    b.j("forever");
    MachineConfig cfg = baseConfig(1);
    cfg.maxCycles = 500;
    Processor cpu(cfg, b.finish());
    SimResult result = cpu.run();
    EXPECT_FALSE(result.finished);
    EXPECT_EQ(result.cycles, 500u);
}

TEST(Processor, BypassingNeverSlower)
{
    // A dependent chain benefits from same-cycle wakeup.
    ProgramBuilder b;
    b.ldi(1, 1);
    for (int i = 0; i < 40; ++i)
        b.add(1, 1, 1);
    b.halt();
    Program prog = b.finish();

    MachineConfig with = baseConfig();
    MachineConfig without = baseConfig();
    without.bypassing = false;
    Cycle cycles_with = Processor(with, prog).run().cycles;
    Cycle cycles_without = Processor(without, prog).run().cycles;
    EXPECT_LT(cycles_with, cycles_without);
}

TEST(Processor, ScoreboardingStallsOnWaw)
{
    // Repeated writes to the same register serialize dispatch under
    // 1-bit scoreboarding but not under full renaming.
    ProgramBuilder b;
    b.dword("sink", 0);
    b.la(9, "sink");
    for (int i = 0; i < 30; ++i) {
        b.ldi(1, i); // WAW chain on r1
        b.st(1, 0, 9);
    }
    b.halt();
    Program prog = b.finish();

    MachineConfig renamed = baseConfig();
    MachineConfig scoreboarded = baseConfig();
    scoreboarded.renameScheme = RenameScheme::Scoreboard1Bit;
    Cycle fast = Processor(renamed, prog).run().cycles;
    Cycle slow = Processor(scoreboarded, prog).run().cycles;
    EXPECT_LT(fast, slow);

    // Architectural results are unaffected.
    runChecked(prog, scoreboarded);
}

TEST(Processor, DeeperSuHelpsIndependentWork)
{
    // Many independent long-latency multiplies: a 64-entry window
    // finds more parallelism than a 16-entry one.
    ProgramBuilder b;
    for (int i = 0; i < 16; ++i) {
        RegIndex rd = static_cast<RegIndex>(1 + (i % 12));
        b.mul(rd, 13, 14);
    }
    b.halt();
    Program prog = b.finish();

    MachineConfig small = baseConfig();
    small.suEntries = 16;
    MachineConfig large = baseConfig();
    large.suEntries = 64;
    EXPECT_LE(Processor(large, prog).run().cycles,
              Processor(small, prog).run().cycles);
}

TEST(Processor, FlexibleCommitBeatsLowestOnlyAcrossThreads)
{
    // Thread 0 stalls on a chain of divides; thread 1 runs free ALU
    // work. Flexible commit lets thread 1 retire past thread 0's
    // incomplete bottom block.
    ProgramBuilder b;
    b.tid(1);
    b.bne(1, 0, "fastpath");
    b.ldi(2, 100);
    b.ldi(3, 3);
    for (int i = 0; i < 6; ++i)
        b.div(2, 2, 3);
    b.halt();
    b.label("fastpath");
    for (int i = 0; i < 40; ++i)
        b.addi(4, 4, 1);
    b.halt();
    Program prog = b.finish();

    MachineConfig flexible = baseConfig(2);
    MachineConfig lowest = baseConfig(2);
    lowest.commitPolicy = CommitPolicy::LowestBlockOnly;

    Processor flex_cpu(flexible, prog);
    SimResult flex = flex_cpu.run();
    Processor low_cpu(lowest, prog);
    SimResult low = low_cpu.run();

    EXPECT_GT(flex_cpu.flexibleCommits(), 0u);
    EXPECT_EQ(low_cpu.flexibleCommits(), 0u);
    EXPECT_LE(flex.cycles, low.cycles);
}

TEST(Processor, EveryFetchPolicyIsArchitecturallyCorrect)
{
    Program prog = countdownLoop(30);
    for (FetchPolicy policy :
         {FetchPolicy::TrueRoundRobin, FetchPolicy::MaskedRoundRobin,
          FetchPolicy::ConditionalSwitch, FetchPolicy::Adaptive}) {
        MachineConfig cfg = baseConfig(2);
        cfg.fetchPolicy = policy;
        runChecked(prog, cfg);
    }
}

TEST(Processor, DirectMappedCacheConfigRuns)
{
    MachineConfig cfg = baseConfig(2);
    cfg.dcache.ways = 1;
    runChecked(countdownLoop(30), cfg);
}

TEST(Processor, CacheStatsPopulated)
{
    ProgramBuilder b;
    b.array("data", 64);
    b.la(1, "data");
    b.ldi(2, 64);
    b.label("top");
    b.ld(3, 0, 1);
    b.addi(1, 1, 8);
    b.addi(2, 2, -1);
    b.bne(2, 0, "top");
    b.halt();
    MachineConfig cfg = baseConfig();
    Processor cpu(cfg, b.finish());
    ASSERT_TRUE(cpu.run().finished);
    EXPECT_GE(cpu.dcache().accesses(), 64u);
    EXPECT_GT(cpu.dcache().misses(), 0u);
    EXPECT_GT(cpu.dcache().hitRate(), 0.5);
}

TEST(Processor, StatsRegistryComplete)
{
    MachineConfig cfg = baseConfig(2);
    Processor cpu(cfg, countdownLoop(10));
    ASSERT_TRUE(cpu.run().finished);
    StatsRegistry registry;
    cpu.reportStats(registry);
    EXPECT_TRUE(registry.has("sim.cycles"));
    EXPECT_TRUE(registry.has("sim.ipc"));
    EXPECT_TRUE(registry.has("sim.committed.thread1"));
    EXPECT_TRUE(registry.has("fetch.blocks"));
    EXPECT_TRUE(registry.has("btb.accuracy"));
    EXPECT_TRUE(registry.has("dcache.hitRate"));
    EXPECT_TRUE(registry.has("fu.IntAlu[0].busyFraction"));
    EXPECT_GT(registry.get("sim.cycles"), 0.0);
}

TEST(Processor, CycleAccountingStats)
{
    MachineConfig cfg = baseConfig(2);
    Processor cpu(cfg, countdownLoop(40));
    SimResult sim = cpu.run();
    ASSERT_TRUE(sim.finished);

    // The issue-width histogram covers every cycle exactly once.
    std::uint64_t histogram_total = 0;
    for (unsigned w = 0; w <= cfg.issueWidth; ++w)
        histogram_total += cpu.issueWidthCycles(w);
    EXPECT_EQ(histogram_total, sim.cycles);
    // Something issued at least once.
    EXPECT_LT(cpu.issueWidthCycles(0), sim.cycles);

    // Mean occupancy is a sensible fraction of the SU capacity.
    EXPECT_GT(cpu.averageSuOccupancy(), 0.0);
    EXPECT_LE(cpu.averageSuOccupancy(),
              static_cast<double>(cfg.suEntries));

    StatsRegistry registry;
    cpu.reportStats(registry);
    EXPECT_TRUE(registry.has("sim.avgSuOccupancy"));
    EXPECT_TRUE(registry.has("sim.issueWidth0.cycles"));
    EXPECT_TRUE(registry.has("fetch.thread1.blocks"));
    // Per-thread fetch blocks sum to the total.
    EXPECT_DOUBLE_EQ(registry.get("fetch.thread0.blocks") +
                         registry.get("fetch.thread1.blocks"),
                     registry.get("fetch.blocks"));
}

TEST(Processor, TraceProducesEvents)
{
    std::ostringstream trace;
    TextTraceSink sink(trace);
    MachineConfig cfg = baseConfig();
    Processor cpu(cfg, countdownLoop(5));
    cpu.setTraceSink(&sink);
    ASSERT_TRUE(cpu.run().finished);
    std::string text = trace.str();
    EXPECT_NE(text.find("fetch:"), std::string::npos);
    EXPECT_NE(text.find("commit:"), std::string::npos);
    EXPECT_NE(text.find("squash:"), std::string::npos);
}

TEST(Processor, InvalidConfigurationIsFatal)
{
    ProgramBuilder b;
    b.halt();
    Program prog = b.finish();
    MachineConfig cfg = baseConfig();
    cfg.suEntries = 30; // not a multiple of the block size
    EXPECT_EXIT(Processor(cfg, prog), ::testing::ExitedWithCode(1),
                "multiple");
}

TEST(Processor, StoreBufferMustHoldOneBlockOfStores)
{
    // Stores drain only after their SU entry is shifted out, so a
    // block of four stores needs four simultaneous buffer entries;
    // smaller buffers can deadlock and are rejected.
    ProgramBuilder b;
    b.halt();
    Program prog = b.finish();
    MachineConfig cfg = baseConfig();
    cfg.storeBufferEntries = 2;
    EXPECT_EXIT(Processor(cfg, prog), ::testing::ExitedWithCode(1),
                "commit block");
}

TEST(Processor, DenseStoreBlocksDrainWithMinimalBuffer)
{
    // A long run of back-to-back stores (blocks of four stores) must
    // make progress with the minimum legal buffer, exercising the
    // oldest-store slot reservation.
    ProgramBuilder b;
    b.array("sink", 64);
    b.la(9, "sink");
    for (int i = 0; i < 64; ++i)
        b.st(1, static_cast<std::int32_t>((i % 64) * 8), 9);
    b.halt();
    MachineConfig cfg = baseConfig();
    cfg.storeBufferEntries = 4;
    runChecked(b.finish(), cfg);
}

TEST(Processor, PartitionedCacheIsArchitecturallyCorrect)
{
    MachineConfig cfg = baseConfig(4);
    cfg.dcache.partitions = 4;
    runChecked(countdownLoop(30), cfg);
}

TEST(Processor, PrivateBtbBanksAreArchitecturallyCorrect)
{
    MachineConfig cfg = baseConfig(4);
    cfg.btbBanks = 4;
    runChecked(countdownLoop(30), cfg);
}

TEST(Processor, WeightedFetchIsArchitecturallyCorrect)
{
    MachineConfig cfg = baseConfig(3);
    cfg.fetchPolicy = FetchPolicy::WeightedRoundRobin;
    cfg.fetchWeights = {4, 2, 1};
    runChecked(countdownLoop(30), cfg);
}

TEST(Processor, WeightedFetchAdvancesFavoredThread)
{
    // All threads run the same long loop; the favored thread must
    // commit a clear majority of the instructions.
    ProgramBuilder b;
    b.ldi(1, 400);
    b.label("top");
    b.addi(2, 2, 1);
    b.addi(1, 1, -1);
    b.bne(1, 0, "top");
    b.halt();
    Program prog = b.finish();

    MachineConfig cfg = baseConfig(2);
    cfg.fetchPolicy = FetchPolicy::WeightedRoundRobin;
    cfg.fetchWeights = {4, 1};
    Processor cpu(cfg, prog);

    // Sample the moment the favored thread finishes: the starved
    // thread must be far behind at that point.
    const std::uint64_t total = 400 * 3 + 2;
    while (cpu.committedInstructions(0) < total && !cpu.done())
        cpu.step();
    EXPECT_EQ(cpu.committedInstructions(0), total);
    EXPECT_LT(cpu.committedInstructions(1) * 2, total);
}

TEST(Processor, BadFetchWeightsAreFatal)
{
    ProgramBuilder b;
    b.halt();
    Program prog = b.finish();
    MachineConfig cfg = baseConfig(2);
    cfg.fetchPolicy = FetchPolicy::WeightedRoundRobin;
    cfg.fetchWeights = {1, 2, 3}; // arity mismatch
    EXPECT_EXIT(Processor(cfg, prog), ::testing::ExitedWithCode(1),
                "fetchWeights");
}

TEST(Processor, FiniteICacheIsArchitecturallyCorrect)
{
    MachineConfig cfg = baseConfig(2);
    cfg.perfectICache = false;
    runChecked(countdownLoop(40), cfg);
}

TEST(Processor, FiniteICacheCostsCycles)
{
    // A loop whose code exceeds a tiny I-cache runs slower than
    // under the paper's perfect-I-cache assumption.
    ProgramBuilder b;
    b.ldi(1, 40);
    b.label("top");
    for (int i = 0; i < 120; ++i)
        b.addi(2, 2, 1);
    b.addi(1, 1, -1);
    b.bne(1, 0, "top");
    b.halt();
    Program prog = b.finish();

    MachineConfig perfect = baseConfig(1);
    MachineConfig finite = baseConfig(1);
    finite.perfectICache = false;
    finite.icache.sizeBytes = 128; // 8 lines: thrashes on 120 instrs
    finite.icache.lineBytes = 16;

    Processor perfect_cpu(perfect, prog);
    Processor finite_cpu(finite, prog);
    Cycle fast = perfect_cpu.run().cycles;
    Cycle slow = finite_cpu.run().cycles;
    EXPECT_LT(fast, slow);
    ASSERT_NE(finite_cpu.instructionCache(), nullptr);
    EXPECT_GT(finite_cpu.instructionCache()->misses(), 100u);
    EXPECT_EQ(perfect_cpu.instructionCache(), nullptr);
}

TEST(Processor, FiniteICacheWithAllPolicies)
{
    Program prog = countdownLoop(25);
    for (FetchPolicy policy :
         {FetchPolicy::TrueRoundRobin, FetchPolicy::MaskedRoundRobin,
          FetchPolicy::ConditionalSwitch}) {
        MachineConfig cfg = baseConfig(2);
        cfg.fetchPolicy = policy;
        cfg.perfectICache = false;
        runChecked(prog, cfg);
    }
}

TEST(Processor, SpinHintHasNoArchitecturalEffect)
{
    ProgramBuilder b;
    b.ldi(1, 3);
    b.spin();
    b.spin();
    b.addi(1, 1, 1);
    b.halt();
    runChecked(b.finish(), baseConfig());
}

TEST(Processor, WrongPathLoadsAreHarmless)
{
    // Train the BTB to predict a taken branch, then flip the
    // condition: the wrong path contains a load with a garbage
    // address, which must not crash or corrupt state.
    ProgramBuilder b;
    b.dword("safe", 0);
    b.ldi(1, 10);
    b.label("top");
    // r2 becomes a garbage address after the loop exits.
    b.slli(2, 1, 20);
    b.addi(1, 1, -1);
    b.bne(1, 0, "top");
    // Fall-through only on the final iteration, mispredicted taken:
    // the speculative wrong path re-executes "top" with r1 == 0.
    b.ld(3, 0, 0); // architecturally fine: address 0
    b.halt();
    runChecked(b.finish(), baseConfig());
}

} // namespace
} // namespace sdsp
