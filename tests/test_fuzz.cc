/**
 * @file
 * Tests for the fuzzing subsystem: generator determinism and
 * validity, the differential checker's oracles (including contained
 * architectural faults and the machine's register partition), a
 * whole sdsp-fuzz campaign, the minimizer, and the `.s` repro
 * emitter's assemble round trip.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "asm/builder.hh"
#include "fuzz/differential.hh"
#include "fuzz/generator.hh"
#include "fuzz/minimize.hh"
#include "isa/interpreter.hh"
#include "isa/opcode.hh"
#include "tools/fuzz_cli.hh"

namespace sdsp
{
namespace
{

MachineConfig
fuzzConfig(unsigned threads)
{
    MachineConfig cfg;
    cfg.numThreads = threads;
    return cfg;
}

TEST(FuzzGenerator, DeterministicInSeedAndShape)
{
    FuzzShape shape = FuzzShape::preset("smoke");
    Program a = generateProgram(shape, 12345);
    Program b = generateProgram(shape, 12345);
    EXPECT_EQ(a.code, b.code);
    EXPECT_EQ(a.memorySize, b.memorySize);
    EXPECT_EQ(a.entry, b.entry);

    Program c = generateProgram(shape, 12346);
    EXPECT_NE(a.code, c.code);
}

TEST(FuzzGenerator, AllPresetsNamed)
{
    for (const std::string &name : FuzzShape::presetNames()) {
        FuzzShape shape = FuzzShape::preset(name);
        EXPECT_EQ(shape.name, name);
        Program prog = generateProgram(shape, 7);
        EXPECT_FALSE(prog.code.empty());
    }
}

TEST(FuzzDifferential, GeneratedProgramsPassAllOracles)
{
    // A small sweep across shapes, seeds, and machine shapes; any
    // failure here is a generator, analyzer, or pipeline bug.
    const unsigned threads[] = {1, 2, 4, 8};
    std::uint64_t seed = 1000;
    for (const std::string &name : FuzzShape::presetNames()) {
        FuzzShape shape = FuzzShape::preset(name);
        for (unsigned t : threads) {
            DiffResult result =
                runDifferential(generateProgram(shape, ++seed),
                                fuzzConfig(t));
            EXPECT_TRUE(result.ok)
                << "shape " << name << " threads " << t << ": "
                << result.kind << " (" << result.detail << ")";
        }
    }
}

TEST(FuzzDifferential, IpcBoundIsPopulatedOnPass)
{
    DiffResult result = runDifferential(
        generateProgram(FuzzShape::preset("smoke"), 9), fuzzConfig(4));
    ASSERT_TRUE(result.ok) << result.kind;
    EXPECT_GT(result.ipcBound, 0.0);
    EXPECT_LE(result.sim.ipc(), result.ipcBound + 1e-9);
}

TEST(FuzzDifferential, ArchFaultIsContained)
{
    // A misaligned load must be a reportable interpreter fault, not a
    // process abort (minimization candidates are not valid programs).
    ProgramBuilder b;
    b.dword("pad", 0);
    b.ldi(1, 1);
    b.ld(2, 0, 1); // address 1: misaligned
    b.halt();
    Program prog = b.finish();

    Interpreter interp(prog, 1);
    interp.run();
    EXPECT_TRUE(interp.finished());
    EXPECT_TRUE(interp.anyFaulted());
    EXPECT_TRUE(interp.faulted(0));
    EXPECT_NE(interp.faultMessage().find("load"), std::string::npos);
}

TEST(FuzzDifferential, InterpreterUsesTheMachinePartition)
{
    // finalize() gives each of 8 threads 32 registers; the interpreter
    // must partition the same way, or a program naming r16+ aborts it.
    MachineConfig cfg = fuzzConfig(8);
    cfg.finalize();
    ASSERT_EQ(cfg.regsPerThread(), 32u);
    ProgramBuilder b;
    b.ldi(20, 7);
    b.halt();
    DiffResult result = runDifferential(b.finish(), cfg);
    EXPECT_TRUE(result.ok) << result.kind << " (" << result.detail << ")";
}

TEST(FuzzCli, CampaignOverEveryMachineShapePasses)
{
    // The first 12 cases of seed 1 already draw all eight machine
    // shapes of the CLI's grid (finalized configs) and all five
    // program shapes.
    FuzzCliOptions options;
    options.seed = 1;
    options.count = 48;
    std::ostringstream out;
    EXPECT_EQ(runFuzzCli(options, out), 0) << out.str();
    EXPECT_NE(out.str().find("ran 48 case(s): 0 failure(s)"),
              std::string::npos)
        << out.str();
}

TEST(FuzzMinimize, ShrinksWhilePreservingKind)
{
    Program prog = generateProgram(FuzzShape::preset("smoke"), 4242);

    // Synthetic monotone failure: "program still contains a store".
    FailureClassifier has_store = [](const Program &p) {
        for (InstWord word : p.code) {
            if (Instruction::decode(word).isStore())
                return std::string("contains-store");
        }
        return std::string();
    };
    ASSERT_EQ(has_store(prog), "contains-store");

    MinimizeResult result =
        minimizeProgram(prog, "contains-store", has_store);
    EXPECT_EQ(has_store(result.program), "contains-store");
    EXPECT_EQ(result.originalInsts, prog.code.size());
    EXPECT_LT(result.minimizedInsts, result.originalInsts);
    EXPECT_GE(result.rounds, 1u);
    // The epilogue alone has many stores; a single one (plus HALTs)
    // should survive.
    EXPECT_LE(result.minimizedInsts, 8u);
}

TEST(FuzzMinimize, AssemblyRoundTripIsExact)
{
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        Program prog =
            generateProgram(FuzzShape::preset("branchy"), seed);
        std::string source =
            programToAssembly(prog, "round-trip test");
        Program back = assemble(source).program;
        EXPECT_EQ(back.code, prog.code) << "seed " << seed;
        EXPECT_EQ(back.memorySize, prog.memorySize)
            << "seed " << seed;
    }
}

TEST(FuzzMinimize, MinimizedProgramStillAssembles)
{
    Program prog = generateProgram(FuzzShape::preset("loopy"), 99);
    FailureClassifier has_branch = [](const Program &p) {
        for (InstWord word : p.code) {
            if (Instruction::decode(word).isCondBranch())
                return std::string("contains-branch");
        }
        return std::string();
    };
    MinimizeResult result =
        minimizeProgram(prog, "contains-branch", has_branch);
    std::string source =
        programToAssembly(result.program, "minimized");
    Program back = assemble(source).program;
    EXPECT_EQ(back.code, result.program.code);
}

} // namespace
} // namespace sdsp
