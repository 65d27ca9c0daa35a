/**
 * @file
 * Tests of the bench suite's definition and drivers. The paper grid
 * that sdsp_bench_all, sdsp_bench_critpath and perfbench all
 * enumerate must stay the grid the checked-in golden artifact
 * records, point for point, because CI's bit-identity gate and
 * perfbench match points by position. The driver tests run the real
 * binaries (paths baked in via SDSP_BENCH_*_PATH): experiment
 * selection with --only, and rejection of malformed numbers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.hh"
#include "common/json_reader.hh"

namespace sdsp
{
namespace
{

TEST(PaperGrid, MatchesGoldenGridPointForPoint)
{
    std::ifstream file(SDSP_GOLDEN_GRID_PATH);
    ASSERT_TRUE(file.is_open()) << SDSP_GOLDEN_GRID_PATH;
    std::ostringstream text;
    text << file.rdbuf();
    std::string error;
    std::optional<JsonValue> golden = parseJson(text.str(), &error);
    ASSERT_TRUE(golden.has_value()) << error;
    const JsonValue *runs = golden->find("runs");
    ASSERT_NE(runs, nullptr);

    bench::PaperGrid grid = bench::buildPaperGrid();
    EXPECT_EQ(grid.submitted, 396u);
    ASSERT_EQ(grid.points.size(), 253u);
    ASSERT_EQ(runs->items().size(), grid.points.size());
    for (std::size_t i = 0; i < grid.points.size(); ++i) {
        const bench::PaperGridPoint &point = grid.points[i];
        const JsonValue &run = runs->items()[i];
        SCOPED_TRACE("grid point " + std::to_string(i));
        EXPECT_EQ(point.workload->name(),
                  run.find("benchmark")->asString());
        EXPECT_EQ(std::uint64_t{point.config.numThreads},
                  run.find("threads")->toUint64().value_or(0));
        std::vector<std::string> tags;
        for (const JsonValue &tag : run.find("experiments")->items())
            tags.push_back(tag.asString());
        EXPECT_EQ(point.experiments, tags);
    }
}

/** Run @p command with stderr folded into stdout.
 *  @return the exit code (-1 if it did not exit normally). */
int
runCommand(const std::string &command, std::string *output)
{
    FILE *pipe = popen((command + " 2>&1").c_str(), "r");
    if (!pipe)
        return -1;
    char buffer[4096];
    std::size_t count = 0;
    while ((count = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        output->append(buffer, count);
    int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** sdsp_bench_all at scale 10 on @p selection, artifact in a
 *  per-test temporary file. */
int
runSelection(const std::string &selection, std::string *output)
{
    std::string out_path =
        ::testing::TempDir() + "sdsp_bench_suite_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".json";
    return runCommand(std::string(SDSP_BENCH_ALL_PATH) +
                          " --scale 10 --jobs 2 --no-checkpoint --out '" +
                          out_path + "' --only " + selection,
                      output);
}

TEST(BenchSelection, ListsAblationPoints)
{
    std::string output;
    ASSERT_EQ(runCommand(std::string(SDSP_BENCH_ALL_PATH) +
                             " --list --only abl_bypassing",
                         &output),
              0)
        << output;
    EXPECT_NE(output.find("\n44 grid points"), std::string::npos)
        << output;
}

TEST(BenchSelection, RunsAndPrintsAnAblation)
{
    std::string output;
    ASSERT_EQ(runSelection("abl_bypassing", &output), 0) << output;
    EXPECT_NE(output.find("Ablation: bypassing"), std::string::npos)
        << output;
    EXPECT_NE(output.find("\nmean "), std::string::npos) << output;
}

TEST(BenchSelection, RunsAndPrintsTable4)
{
    std::string output;
    ASSERT_EQ(runSelection("tab04_fu_usage", &output), 0) << output;
    EXPECT_NE(output.find(", 11/11 verified"), std::string::npos)
        << output;
    EXPECT_NE(output.find("Table 4: average usage of extra functional"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("\nGroup I   Load #2 "), std::string::npos)
        << output;
}

TEST(BenchSelection, PrintsATableWithoutSweepPoints)
{
    std::string output;
    ASSERT_EQ(runSelection("tab_instruction_mix", &output), 0) << output;
    EXPECT_NE(output.find(", 0/0 verified"), std::string::npos)
        << output;
    EXPECT_NE(output.find("Workload characterization: dynamic "
                          "instruction mix"),
              std::string::npos)
        << output;
}

TEST(BenchDrivers, RejectNumbersWithTrailingGarbage)
{
    for (std::string command :
         {std::string(SDSP_BENCH_EXPLORE_PATH) + " --reduced --scale 10abc",
          std::string(SDSP_BENCH_CRITPATH_PATH) + " --scale 10x",
          std::string(SDSP_BENCH_ALL_PATH) + " --list --jobs 2x"}) {
        std::string output;
        EXPECT_EQ(runCommand(command, &output), 1) << command;
        EXPECT_NE(output.find("bad --"), std::string::npos)
            << command << ": " << output;
    }
}

} // namespace
} // namespace sdsp
