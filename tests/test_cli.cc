/**
 * @file
 * Tests for the sdsp-run command-line interface: option parsing,
 * error reporting, and end-to-end runs over a temporary assembly
 * file.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "core/processor.hh"
#include "isa/interpreter.hh"
#include "tools/cli.hh"
#include "tools/critpath_cli.hh"
#include "tools/lint_cli.hh"

namespace sdsp
{
namespace
{

CliOptions
parse(std::initializer_list<const char *> args)
{
    return parseCliOptions(std::vector<std::string>(args.begin(),
                                                    args.end()));
}

class CliFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per test: ctest runs the tests of this fixture as
        // concurrent processes, which must not rewrite each other's
        // program.
        path = ::testing::TempDir() + "cli_test_prog_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".s";
        std::ofstream file(path);
        file << R"(
            .dword out 0
                tid  r2
                nth  r3
                ldi  r1, 10
                ldi  r4, 0
            loop:
                add  r4, r4, r1
                addi r1, r1, -1
                bne  r1, r0, loop
                beq  r2, r0, store
                halt
            store:
                la   r5, out
                st   r4, 0(r5)
                halt
        )";
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

TEST(CliParse, Defaults)
{
    CliOptions options = parse({"prog.s"});
    ASSERT_TRUE(options.ok);
    EXPECT_EQ(options.programPath, "prog.s");
    EXPECT_EQ(options.config.numThreads, 4u); // MachineConfig default
    EXPECT_NE(cliUsage().find("resident threads (default 4)"),
              std::string::npos);
    EXPECT_FALSE(options.trace);
    EXPECT_FALSE(options.stats);
}

TEST(CliParse, AllOptions)
{
    CliOptions options = parse(
        {"-t", "2", "-f", "cswitch", "-s", "64", "--commit", "lowest",
         "--rename", "scoreboard", "--no-bypass", "--cache-ways", "1",
         "--cache-size", "4096", "--cache-partitions", "2",
         "--btb-banks", "2", "--finite-icache", "--max-cycles",
         "1234", "--align", "--trace", "--stats", "prog.s"});
    ASSERT_TRUE(options.ok) << options.error;
    EXPECT_EQ(options.config.numThreads, 2u);
    EXPECT_EQ(options.config.fetchPolicy,
              FetchPolicy::ConditionalSwitch);
    EXPECT_EQ(options.config.suEntries, 64u);
    EXPECT_EQ(options.config.commitPolicy,
              CommitPolicy::LowestBlockOnly);
    EXPECT_EQ(options.config.renameScheme,
              RenameScheme::Scoreboard1Bit);
    EXPECT_FALSE(options.config.bypassing);
    EXPECT_EQ(options.config.dcache.ways, 1u);
    EXPECT_EQ(options.config.dcache.sizeBytes, 4096u);
    EXPECT_EQ(options.config.dcache.partitions, 2u);
    EXPECT_EQ(options.config.btbBanks, 2u);
    EXPECT_FALSE(options.config.perfectICache);
    EXPECT_EQ(options.config.maxCycles, 1234u);
    EXPECT_TRUE(options.align);
    EXPECT_TRUE(options.trace);
    EXPECT_TRUE(options.stats);
}

TEST(CliParse, WeightedPolicyWithWeights)
{
    CliOptions options =
        parse({"-f", "weightedrr", "-w", "4,2,1,1", "prog.s"});
    ASSERT_TRUE(options.ok) << options.error;
    EXPECT_EQ(options.config.fetchPolicy,
              FetchPolicy::WeightedRoundRobin);
    EXPECT_EQ(options.config.fetchWeights,
              (std::vector<unsigned>{4, 2, 1, 1}));
}

TEST(CliParse, Errors)
{
    EXPECT_FALSE(parse({}).ok);
    EXPECT_FALSE(parse({"-t"}).ok);
    EXPECT_FALSE(parse({"-t", "nope", "prog.s"}).ok);
    EXPECT_FALSE(parse({"-t", "99", "prog.s"}).ok);
    EXPECT_FALSE(parse({"-f", "bogus", "prog.s"}).ok);
    EXPECT_FALSE(parse({"--commit", "sideways", "prog.s"}).ok);
    EXPECT_FALSE(parse({"--what", "prog.s"}).ok);
    EXPECT_FALSE(parse({"a.s", "b.s"}).ok);
    EXPECT_FALSE(parse({"-w", "1,x", "prog.s"}).ok);
    EXPECT_FALSE(parse({"--timeout", "-1", "prog.s"}).ok);
    EXPECT_FALSE(parse({"--timeout", "fast", "prog.s"}).ok);
    EXPECT_FALSE(parse({"--timeout"}).ok);
    // Values wider than their 32-bit field are errors, not wrapped.
    EXPECT_FALSE(parse({"-s", "4294967328", "prog.s"}).ok);
    EXPECT_FALSE(parse({"--cache-ways", "4294967298", "prog.s"}).ok);
    EXPECT_FALSE(parse({"--cache-size", "4294975488", "prog.s"}).ok);
    EXPECT_FALSE(parse({"--btb-banks", "4294967297", "prog.s"}).ok);
    EXPECT_FALSE(parse({"-t", "4", "-f", "weightedrr", "-w",
                        "4294967297,1,1,1", "prog.s"})
                     .ok);
    // Signs, blanks and overflow are not numbers.
    EXPECT_FALSE(parse({"--max-cycles", "-1", "prog.s"}).ok);
    EXPECT_FALSE(parse({"--max-cycles", " 5", "prog.s"}).ok);
    EXPECT_FALSE(
        parse({"--max-cycles", "99999999999999999999", "prog.s"}).ok);
}

LintCliOptions
parseLint(std::initializer_list<const char *> args)
{
    return parseLintCliOptions(
        std::vector<std::string>(args.begin(), args.end()));
}

TEST(LintCliParse, NumericValuesAreCheckedNotThrownOrWrapped)
{
    LintCliOptions options = parseLint({"-t", "abc", "prog.s"});
    EXPECT_FALSE(options.ok);
    EXPECT_NE(options.error.find("abc"), std::string::npos)
        << options.error;
    EXPECT_FALSE(
        parseLint({"--all", "-t", "99999999999999999999"}).ok);
    EXPECT_FALSE(
        parseLint({"--all", "-t", "4", "--scale", "4294967321"}).ok);
    EXPECT_FALSE(
        parseLint({"--all", "--extra-memory", "4294967296"}).ok);
    EXPECT_FALSE(parseLint({"--all", "-t", "0"}).ok);

    options = parseLint({"--all", "-t", "2", "--scale", "25",
                         "--extra-memory", "64"});
    ASSERT_TRUE(options.ok) << options.error;
    EXPECT_EQ(options.threads, 2u);
    EXPECT_EQ(options.scale, 25u);
    EXPECT_EQ(options.extraMemory, 64u);
}

TEST(LintCliParse, ReadsNumbersInTheBasesOfTheOtherTools)
{
    // The shared reader takes 0x-hex and 0-octal like sdsp-run.
    LintCliOptions options = parseLint({"--all", "-t", "010", "--scale",
                                        "025", "--extra-memory", "0x40"});
    ASSERT_TRUE(options.ok) << options.error;
    EXPECT_EQ(options.threads, 8u);
    EXPECT_EQ(options.scale, 21u);
    EXPECT_EQ(options.extraMemory, 64u);
    EXPECT_EQ(parse({"-s", "0x20", "prog.s"}).config.suEntries, 32u);
}

TEST(CliParse, Timeout)
{
    EXPECT_EQ(parse({"prog.s"}).timeoutSeconds, 0.0);
    CliOptions options = parse({"--timeout", "2.5", "prog.s"});
    ASSERT_TRUE(options.ok) << options.error;
    EXPECT_EQ(options.timeoutSeconds, 2.5);
}

TEST(CliParse, UsageMentionsEveryOption)
{
    std::string usage = cliUsage();
    for (const char *token :
         {"-t", "-f", "-s", "-w", "--commit", "--rename",
          "--no-bypass", "--cache-ways", "--cache-partitions",
          "--btb-banks", "--finite-icache", "--max-cycles",
          "--timeout", "--align", "--trace", "--trace-file",
          "--trace-json", "--stats", "--disasm"}) {
        EXPECT_NE(usage.find(token), std::string::npos) << token;
    }
}

TEST(CliParse, TracePaths)
{
    CliOptions options = parse({"--trace-file", "t.txt",
                                "--trace-json", "t.json", "prog.s"});
    ASSERT_TRUE(options.ok) << options.error;
    EXPECT_EQ(options.traceFile, "t.txt");
    EXPECT_EQ(options.traceJson, "t.json");
    EXPECT_FALSE(options.trace);
    EXPECT_FALSE(parse({"--trace-file"}).ok);
    EXPECT_FALSE(parse({"--trace-json"}).ok);
}

TEST_F(CliFile, RunsProgramAndReports)
{
    CliOptions options = parse({"-t", "2", path.c_str()});
    ASSERT_TRUE(options.ok);
    std::ostringstream out, trace;
    int rc = runCli(options, out, trace);
    EXPECT_EQ(rc, 0);
    std::string text = out.str();
    EXPECT_NE(text.find("finished  : yes"), std::string::npos);
    EXPECT_NE(text.find("thread 1"), std::string::npos);
}

TEST_F(CliFile, StatsAndTrace)
{
    CliOptions options =
        parse({"--stats", "--trace", path.c_str()});
    ASSERT_TRUE(options.ok);
    options.config.numThreads = 1;
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 0);
    EXPECT_NE(out.str().find("sim.cycles"), std::string::npos);
    EXPECT_NE(trace.str().find("fetch:"), std::string::npos);
}

TEST_F(CliFile, StatsIncludeAttributionAndHistograms)
{
    CliOptions options = parse({"--stats", path.c_str()});
    ASSERT_TRUE(options.ok);
    options.config.numThreads = 2;
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 0);
    std::string text = out.str();
    EXPECT_NE(text.find("stall.total.active"), std::string::npos);
    EXPECT_NE(text.find("stall.thread1.done"), std::string::npos);
    EXPECT_NE(text.find("histogram latency.fetchToCommit"),
              std::string::npos);
}

TEST_F(CliFile, TraceFileMatchesTraceStream)
{
    std::string trace_path = ::testing::TempDir() + "cli_trace.txt";
    CliOptions options =
        parse({"--trace", "--trace-file", trace_path.c_str(),
               path.c_str()});
    ASSERT_TRUE(options.ok) << options.error;
    options.config.numThreads = 2;
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 0);

    std::ifstream file(trace_path);
    ASSERT_TRUE(file.is_open());
    std::ostringstream from_file;
    from_file << file.rdbuf();
    EXPECT_EQ(from_file.str(), trace.str());
    EXPECT_NE(from_file.str().find("fetch: tid="), std::string::npos);
    std::remove(trace_path.c_str());
}

TEST_F(CliFile, TraceJsonIsWellFormed)
{
    std::string json_path = ::testing::TempDir() + "cli_trace.json";
    CliOptions options =
        parse({"--trace-json", json_path.c_str(), path.c_str()});
    ASSERT_TRUE(options.ok) << options.error;
    options.config.numThreads = 2;
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 0);
    // The JSON path must not leak anything onto the text stream.
    EXPECT_EQ(trace.str(), "");

    std::ifstream file(json_path);
    ASSERT_TRUE(file.is_open());
    std::string first, line, last_nonempty;
    ASSERT_TRUE(std::getline(file, first));
    EXPECT_EQ(first, "[");
    unsigned records = 0;
    while (std::getline(file, line)) {
        if (!line.empty())
            last_nonempty = line;
        if (line.find("\"ph\":") != std::string::npos)
            ++records;
    }
    EXPECT_EQ(last_nonempty, "]");
    EXPECT_GT(records, 4u);
    std::remove(json_path.c_str());
}

TEST_F(CliFile, UnwritableTracePathFails)
{
    CliOptions options = parse(
        {"--trace-json", "/nonexistent/dir/t.json", path.c_str()});
    ASSERT_TRUE(options.ok);
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 1);
    EXPECT_NE(out.str().find("cannot open"), std::string::npos);
}

TEST_F(CliFile, DisasmOnly)
{
    CliOptions options = parse({"--disasm", path.c_str()});
    ASSERT_TRUE(options.ok);
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 0);
    EXPECT_NE(out.str().find("TID r2"), std::string::npos);
    EXPECT_EQ(out.str().find("cycles"), std::string::npos);
}

TEST_F(CliFile, AlignedRunMatchesPlainResult)
{
    std::ostringstream plain_out, aligned_out, trace;
    CliOptions plain = parse({path.c_str()});
    plain.config.numThreads = 1;
    CliOptions aligned = parse({"--align", path.c_str()});
    aligned.config.numThreads = 1;
    EXPECT_EQ(runCli(plain, plain_out, trace), 0);
    EXPECT_EQ(runCli(aligned, aligned_out, trace), 0);
    // Same committed-instruction count modulo the padding NOPs is not
    // guaranteed, but both must finish.
    EXPECT_NE(plain_out.str().find("finished  : yes"),
              std::string::npos);
    EXPECT_NE(aligned_out.str().find("finished  : yes"),
              std::string::npos);
}

TEST_F(CliFile, MissingFileReportsError)
{
    CliOptions options = parse({"/nonexistent/path.s"});
    ASSERT_TRUE(options.ok);
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 1);
    EXPECT_NE(out.str().find("cannot open"), std::string::npos);
}

TEST_F(CliFile, RegisterBudgetChecked)
{
    std::string wide = ::testing::TempDir() + "cli_wide.s";
    std::ofstream file(wide);
    file << "ldi r100, 1\nhalt\n";
    file.close();

    CliOptions options = parse({"-t", "4", wide.c_str()});
    ASSERT_TRUE(options.ok);
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 1);
    EXPECT_NE(out.str().find("allow only"), std::string::npos);
}

TEST_F(CliFile, CycleCapReturnsDistinctCode)
{
    std::string spin = ::testing::TempDir() + "cli_spin.s";
    std::ofstream file(spin);
    file << "forever:\nj forever\n";
    file.close();

    CliOptions options =
        parse({"--max-cycles", "200", spin.c_str()});
    ASSERT_TRUE(options.ok);
    options.config.numThreads = 1;
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 2);
    EXPECT_NE(out.str().find("NO (cycle cap)"), std::string::npos);
}

TEST_F(CliFile, WallClockTimeoutReturnsDistinctCode)
{
    std::string spin = ::testing::TempDir() + "cli_spin_wall.s";
    std::ofstream file(spin);
    file << "forever:\nj forever\n";
    file.close();

    // The deadline is already expired when the run starts, so the
    // watchdog fires at the first slice boundary, deterministically.
    CliOptions options =
        parse({"--timeout", "0.000000001", spin.c_str()});
    ASSERT_TRUE(options.ok) << options.error;
    options.config.numThreads = 1;
    std::ostringstream out, trace;
    EXPECT_EQ(runCli(options, out, trace), 3);
    EXPECT_NE(out.str().find("NO (wall-clock timeout)"),
              std::string::npos);

    // A generous budget must not change the result of a finishing
    // run: the deadline path steps the same cycle sequence.
    CliOptions plain = parse({path.c_str()});
    CliOptions budgeted = parse({"--timeout", "600", path.c_str()});
    std::ostringstream plain_out, budgeted_out;
    EXPECT_EQ(runCli(plain, plain_out, trace), 0);
    EXPECT_EQ(runCli(budgeted, budgeted_out, trace), 0);
    EXPECT_EQ(plain_out.str(), budgeted_out.str());
}

// ---- Integer overflow regression ----

/** INT64_MIN / -1 and INT64_MIN % -1: the quotient does not fit, and
 *  a host division of these operands raises SIGFPE. */
const char *const kOverflowPrograms[] = {
    "ldi r1, 1\nslli r1, r1, 63\nldi r2, -1\ndiv r3, r1, r2\nhalt\n",
    "ldi r1, 1\nslli r1, r1, 63\nldi r2, -1\nrem r3, r1, r2\nhalt\n",
};

TEST(CliOverflow, MostNegativeDivisionRunsInEveryTool)
{
    // RISC-V's answers: INT64_MIN for the quotient, 0 for the
    // remainder.
    const RegVal expected[] = {RegVal{1} << 63, 0};
    for (std::size_t k = 0; k < 2; ++k) {
        const char *source = kOverflowPrograms[k];
        SCOPED_TRACE(source);

        // The interpreter and the pipeline agree.
        Program program = assemble(source).program;
        Interpreter interp(program, 1);
        ASSERT_TRUE(interp.run());
        EXPECT_EQ(interp.reg(0, 3), expected[k]);
        MachineConfig config;
        config.numThreads = 1;
        Processor cpu(config, program);
        ASSERT_TRUE(cpu.run().finished);
        EXPECT_EQ(cpu.readReg(0, 3), expected[k]);

        // sdsp-run and sdsp-critpath finish; sdsp-lint, which folds
        // the division as a constant, reports its findings.
        std::string path = ::testing::TempDir() + "cli_overflow_" +
                           std::to_string(k) + ".s";
        std::ofstream(path) << source;
        std::ostringstream out, trace;
        EXPECT_EQ(runCli(parse({path.c_str()}), out, trace), 0)
            << out.str();
        EXPECT_EQ(runCritpathCli(parseCritpathCliOptions({path}), out),
                  0)
            << out.str();
        EXPECT_EQ(runLintCli(parseLintCliOptions({path}), out), 1)
            << out.str();
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace sdsp
