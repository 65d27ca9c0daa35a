/**
 * @file
 * Tests of the bench suite's definition and drivers. The paper grid
 * that sdsp_bench_all (plain and --record) and perfbench enumerate
 * must stay the grid the checked-in golden artifact records, point
 * for point, because CI's bit-identity gate and perfbench match
 * points by position. The crit_whatif report must fail one gate per
 * spot check beyond its tolerance. The driver tests run the real
 * binaries (paths baked in via SDSP_*_PATH): experiment selection
 * with --only, point names and the fault ids they make, recorded
 * sweeps and their serial seconds, the crit_whatif artifact,
 * rejection of malformed numbers, and the exit status of a failed
 * sdsp-explore gate.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_reader.hh"
#include "experiments.hh"

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

/** The current test's sdsp_bench_all artifact. */
std::string
artifactPath()
{
    return ::testing::TempDir() + "sdsp_bench_suite_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".json";
}

/** sdsp_bench_all at scale 10 with @p flags (--only ...), artifact
 *  at artifactPath(), and SDSP_BENCH_FAULT=@p fault when given. */
int
runSelection(const std::string &flags, std::string *output,
             const std::string &fault = "")
{
    std::string command =
        fault.empty() ? "" : "SDSP_BENCH_FAULT='" + fault + "' ";
    return runCommand(command + SDSP_BENCH_ALL_PATH +
                          " --scale 10 --jobs 2 --no-checkpoint --out '" +
                          artifactPath() + "' " + flags,
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

TEST(BenchSelection, ListNamesEveryPointApart)
{
    // Each point by its benchmark and "<experiment>/<variant>": the
    // machine string alone reads the same for distinct machines (an
    // issueWidth=16 machine reads like the 4-thread baseline).
    for (const char *filter : {"abl", "crit_whatif"}) {
        std::string output;
        ASSERT_EQ(runCommand(std::string(SDSP_BENCH_ALL_PATH) +
                                 " --list --only " + filter,
                             &output),
                  0)
            << output;
        std::istringstream lines(output);
        std::set<std::string> seen;
        std::string line;
        while (std::getline(lines, line))
            EXPECT_TRUE(seen.insert(line).second) << filter << ": " << line;
        EXPECT_GT(seen.size(), 50u) << output;
    }
}

TEST(BenchSelection, RunsAndPrintsAnAblation)
{
    std::string output;
    ASSERT_EQ(runSelection("--only abl_bypassing", &output), 0) << output;
    EXPECT_NE(output.find("Ablation: bypassing"), std::string::npos)
        << output;
    EXPECT_NE(output.find("\nmean "), std::string::npos) << output;
}

TEST(BenchSelection, RunsAndPrintsTable4)
{
    std::string output;
    ASSERT_EQ(runSelection("--only tab04_fu_usage", &output), 0) << output;
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
    ASSERT_EQ(runSelection("--only tab_instruction_mix", &output), 0) << output;
    EXPECT_NE(output.find(", 0/0 verified"), std::string::npos)
        << output;
    EXPECT_NE(output.find("Workload characterization: dynamic "
                          "instruction mix"),
              std::string::npos)
        << output;
}

TEST(BenchSelection, RecordsEveryPointExact)
{
    std::string output;
    ASSERT_EQ(runSelection("--record --only abl_bypassing", &output), 0)
        << output;
    EXPECT_NE(output.find("\n44/44 recorded points exact\n"),
              std::string::npos)
        << output;
}

TEST(BenchSelection, SerialSecondsCountTheGraphWork)
{
    // Serially, the recorded sweep's serial-equivalent time holds the
    // runs and the graph builds beside them.
    std::string output;
    ASSERT_EQ(runCommand(std::string(SDSP_BENCH_ALL_PATH) +
                             " --scale 10 --jobs 1 --no-checkpoint "
                             "--record --only abl_bypassing --out '" +
                             artifactPath() + "'",
                         &output),
              0)
        << output;
    std::ifstream file(artifactPath());
    std::ostringstream text;
    text << file.rdbuf();
    std::string error;
    std::optional<JsonValue> artifact = parseJson(text.str(), &error);
    ASSERT_TRUE(artifact.has_value()) << error;
    double runs = 0.0;
    for (const JsonValue &run : artifact->find("runs")->items())
        runs += run.find("result")->find("wall_seconds")->asDouble();
    EXPECT_GT(artifact->find("serial_seconds")->asDouble(), runs);
}

TEST(BenchSelection, RecordRefusesToResume)
{
    // A restored point was never recorded, so its graph was never
    // checked.
    std::string output;
    EXPECT_EQ(runSelection("--record --only abl_bypassing --resume '" +
                               artifactPath() + ".checkpoint.jsonl'",
                           &output),
              1)
        << output;
    EXPECT_NE(output.find("--resume cannot restore recorded points"),
              std::string::npos)
        << output;
}

TEST(BenchSelection, RunsTheCritWhatIfGate)
{
    std::string output;
    ASSERT_EQ(runSelection("--only crit_whatif", &output), 0) << output;
    std::ifstream file(artifactPath());
    std::ostringstream text;
    text << file.rdbuf();
    std::string error;
    std::optional<JsonValue> artifact = parseJson(text.str(), &error);
    ASSERT_TRUE(artifact.has_value()) << error;
    const JsonValue *reports = artifact->find("reports");
    ASSERT_NE(reports, nullptr);
    const JsonValue *crit = reports->find("crit_whatif");
    ASSERT_NE(crit, nullptr);
    EXPECT_EQ(crit->find("schema")->asString(), "sdsp-bench-critpath-v1");
    std::size_t exact = 0;
    for (const JsonValue &run : crit->find("runs")->items())
        exact += run.find("exact")->asBool();
    EXPECT_EQ(exact, 22u);
    std::size_t passed = 0;
    for (const JsonValue &check : crit->find("spotChecks")->items())
        passed += check.find("pass")->asBool();
    EXPECT_EQ(passed, 3u);
}

TEST(BenchSelection, AFaultRuleFailsOneVariant)
{
    // The fault id is "<benchmark>/<experiment>/<variant>": only LL5's
    // 4-thread recording fails, and with it the spot check projected
    // from that recording.
    std::string output;
    EXPECT_EQ(runSelection("--only crit_whatif",
                           &output, "LL5/crit_whatif/4T=throw"),
              1)
        << output;
    // Counted anywhere: stderr's lines may land inside a stdout line
    // that the pipe's buffer split.
    auto count = [&](const std::string &needle) {
        std::size_t found = 0;
        for (std::size_t at = output.find(needle); at != std::string::npos;
             at = output.find(needle, at + 1))
            ++found;
        return found;
    };
    EXPECT_EQ(count("FAIL ["), 1u) << output;
    EXPECT_EQ(count("GATE crit_whatif: spot check"), 1u) << output;
    EXPECT_NE(output.find("FAIL [failed] LL5/crit_whatif/4T: "),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("\n21/22 recorded points exact\n"),
              std::string::npos)
        << output;
}

/** A crit_whatif run whose projections all equal their
 *  re-simulations: @p cycles everywhere. */
bench::ExperimentRun
critRun(const bench::Experiment &crit, Cycle cycles)
{
    bench::ExperimentRun run;
    run.scale = 25;
    for (std::size_t w = 0; w < crit.workloads.size(); ++w) {
        run.results.emplace_back(crit.variants.size());
        run.outcomes.emplace_back(crit.variants.size());
        for (std::size_t v = 0; v < crit.variants.size(); ++v) {
            run.results[w][v].cycles = cycles;
            if (!crit.variants[v].record)
                continue;
            bench::PointOutcome &point = run.outcomes[w][v];
            point.baseline.cycles = cycles;
            point.projections.resize(crit.whatIfs.size());
            for (RelaxResult &projection : point.projections)
                projection.cycles = cycles;
        }
    }
    return run;
}

TEST(CritWhatIfReport, FailsOneGatePerSpotCheckBeyondTolerance)
{
    const bench::Experiment *crit = nullptr;
    for (const bench::Experiment &experiment : bench::experiments()) {
        if (experiment.id == "crit_whatif")
            crit = &experiment;
    }
    ASSERT_NE(crit, nullptr);
    bench::ExperimentRun run = critRun(*crit, 1000);
    EXPECT_TRUE(crit->report(*crit, run).failures.empty());

    // LL5's issueWidth=16 machine re-simulates 10% slower than
    // projected; the tolerance at scale 25 is 5%.
    std::size_t ll5 = 0, spot = 0;
    while (ll5 < crit->workloads.size() &&
           crit->workloads[ll5]->name() != "LL5")
        ++ll5;
    while (spot < crit->variants.size() &&
           crit->variants[spot].name != "issueWidth=16")
        ++spot;
    ASSERT_LT(ll5, crit->workloads.size());
    ASSERT_LT(spot, crit->variants.size());
    run.results[ll5][spot].cycles = 1100;
    bench::ReportOutput output = crit->report(*crit, run);
    ASSERT_EQ(output.failures.size(), 1u);
    EXPECT_NE(output.failures[0].find("LL5 t=4 issueWidth=16"),
              std::string::npos)
        << output.failures[0];
    EXPECT_NE(output.json.find("\"spot_check_failures\":1"),
              std::string::npos);
}

TEST(BenchDrivers, RejectNumbersWithTrailingGarbage)
{
    std::vector<std::string> commands = {
        std::string(SDSP_BENCH_ALL_PATH) + " --list --scale 10x",
        std::string(SDSP_BENCH_ALL_PATH) + " --list --jobs 2x"};
    // Nor seconds that cannot become a deadline.
    for (const char *seconds : {"inf", "nan", "1e300", "-1", "1x"}) {
        commands.push_back(std::string(SDSP_BENCH_ALL_PATH) +
                           " --list --timeout " + seconds);
    }
    for (const std::string &command : commands) {
        std::string output;
        EXPECT_EQ(runCommand(command, &output), 1) << command;
        EXPECT_NE(output.find("bad --"), std::string::npos)
            << command << ": " << output;
    }
    // The driver reads integers as every tool does: 0x10 is 16.
    std::string output;
    EXPECT_EQ(runCommand(std::string(SDSP_BENCH_ALL_PATH) +
                             " --list --scale 0x10 --only abl_bypassing",
                         &output),
              0)
        << output;
}

TEST(BenchDrivers, ExploreExitsNonZeroOnAFailedGate)
{
    // Every point narrows issue, so every projection is a pessimistic
    // bound and none may enter the frontier.
    std::string output;
    EXPECT_EQ(runCommand(std::string(SDSP_EXPLORE_PATH) +
                             " --workloads LL1 --scale 10 --reduced "
                             "--no-resim --axis issueWidth=4",
                         &output),
              1)
        << output;
    EXPECT_NE(output.find("GATE: the frontier is empty"),
              std::string::npos)
        << output;
}

} // namespace
} // namespace sdsp
