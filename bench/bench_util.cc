#include "bench_util.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/logging.hh"
#include "harness/artifacts.hh"

namespace sdsp
{
namespace bench
{

unsigned
benchScale()
{
    const char *env = std::getenv("SDSP_BENCH_SCALE");
    if (!env)
        return 100;
    int value = std::atoi(env);
    if (value < 1 || value > 1000)
        fatal("SDSP_BENCH_SCALE out of range: %s", env);
    return static_cast<unsigned>(value);
}

unsigned
benchJobs()
{
    return SweepRunner::defaultJobs();
}

MachineConfig
paperConfig(unsigned threads)
{
    MachineConfig cfg;
    cfg.numThreads = threads;
    cfg.maxCycles = 500'000'000;
    cfg.finalize();
    return cfg;
}

std::vector<const Workload *>
groupI()
{
    return workloadsInGroup(BenchmarkGroup::LivermoreLoops);
}

std::vector<const Workload *>
groupII()
{
    return workloadsInGroup(BenchmarkGroup::GroupII);
}

namespace
{

/** Experiment id of the last printHeader, slugged for file names. */
std::string g_experiment_slug;

} // namespace

void
printHeader(const std::string &experiment_id, const std::string &title,
            const std::string &paper_expectation)
{
    g_experiment_slug.clear();
    for (char ch : experiment_id) {
        g_experiment_slug += std::isalnum(static_cast<unsigned char>(ch))
                                 ? static_cast<char>(std::tolower(
                                       static_cast<unsigned char>(ch)))
                                 : '_';
    }
    std::printf("================================================="
                "=============\n");
    std::printf("%s: %s\n", experiment_id.c_str(), title.c_str());
    std::printf("paper expectation: %s\n", paper_expectation.c_str());
    std::printf("problem scale: %u%%\n", benchScale());
    std::printf("================================================="
                "=============\n");
}

namespace
{

/**
 * Memoizing adapter: forwards name/group, caches build() images by
 * (threads, scale). Workload generators are deterministic, so serving
 * a copy of the first build is bit-identical to rebuilding.
 */
class CachedWorkload : public Workload
{
  public:
    explicit CachedWorkload(const Workload &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    BenchmarkGroup group() const override { return inner_.group(); }

    WorkloadImage
    build(unsigned num_threads, unsigned scale) const override
    {
        std::lock_guard<std::mutex> hold(mutex_);
        auto key = std::make_pair(num_threads, scale);
        auto it = cache_.find(key);
        if (it == cache_.end())
            it = cache_.emplace(key, inner_.build(num_threads, scale))
                     .first;
        return it->second;
    }

  private:
    const Workload &inner_;
    mutable std::mutex mutex_;
    mutable std::map<std::pair<unsigned, unsigned>, WorkloadImage>
        cache_;
};

} // namespace

const Workload &
cachedWorkload(const Workload &workload)
{
    static std::mutex registry_mutex;
    static std::map<const Workload *, std::unique_ptr<CachedWorkload>>
        registry;
    std::lock_guard<std::mutex> hold(registry_mutex);
    std::unique_ptr<CachedWorkload> &slot = registry[&workload];
    if (!slot)
        slot = std::make_unique<CachedWorkload>(workload);
    return *slot;
}

RunResult
runChecked(const Workload &workload, const MachineConfig &config)
{
    RunResult result =
        runWorkload(cachedWorkload(workload), config, benchScale());
    requireGood(result);
    return result;
}

namespace
{

/** $name if set and non-empty, with the directory created. */
const char *
exportDir(const char *name)
{
    const char *dir = std::getenv(name);
    if (!dir || !*dir)
        return nullptr;
    if (!ensureOutputDir(dir))
        return nullptr;
    return dir;
}

} // namespace

void
exportCsv(const Table &table, const std::string &suffix)
{
    const char *dir = exportDir("SDSP_BENCH_CSV");
    if (!dir)
        return;
    std::string path = std::string(dir) + "/" + g_experiment_slug +
                       suffix + ".csv";
    std::ofstream file(path);
    if (!file) {
        warn("cannot write %s", path.c_str());
        return;
    }
    file << table.toCsv();
    std::printf("(csv written to %s)\n", path.c_str());
}

void
exportRunsJson(const std::vector<Variant> &variants,
               const std::vector<std::vector<RunResult>> &grid,
               const std::string &suffix)
{
    const char *dir = exportDir("SDSP_BENCH_JSON");
    if (!dir)
        return;
    std::string path = std::string(dir) + "/" + g_experiment_slug +
                       suffix + ".json";

    JsonWriter writer;
    writer.beginObject();
    writer.field("experiment", g_experiment_slug);
    writer.field("scale", benchScale());
    writer.key("runs").beginArray();
    for (const std::vector<RunResult> &row : grid) {
        for (std::size_t v = 0; v < row.size(); ++v) {
            writer.beginObject();
            writer.field("variant", variants[v].name);
            writer.key("result");
            appendJson(writer, row[v], /*include_stats=*/false);
            writer.endObject();
        }
    }
    writer.endArray();
    writer.endObject();

    std::ofstream file(path);
    if (!file) {
        warn("cannot write %s", path.c_str());
        return;
    }
    file << writer.str() << '\n';
    std::printf("(json written to %s)\n", path.c_str());
}

std::vector<std::vector<RunResult>>
runGrid(const std::vector<const Workload *> &workloads,
        const std::vector<Variant> &variants)
{
    SweepRunner runner;
    for (const Workload *workload : workloads) {
        for (const Variant &variant : variants)
            runner.add(cachedWorkload(*workload), variant.config,
                       benchScale(), variant.name);
    }
    std::vector<JobOutcome> outcomes = runner.runAll();

    // Report every bad point before dying, not just the first: a
    // broken variant usually breaks many benchmarks at once and the
    // full list is what identifies it.
    std::size_t failures = 0;
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.ok())
            continue;
        ++failures;
        std::fprintf(stderr, "FAIL [%s] %s (%s): %s\n",
                     jobStatusName(outcome.status),
                     outcome.result.benchmark.c_str(),
                     outcome.result.config.toString().c_str(),
                     outcome.error.c_str());
    }
    if (failures) {
        fatal("%zu of %zu grid points failed", failures,
              outcomes.size());
    }

    std::vector<std::vector<RunResult>> grid;
    grid.reserve(workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        auto first =
            outcomes.begin() +
            static_cast<std::ptrdiff_t>(w * variants.size());
        auto last =
            first + static_cast<std::ptrdiff_t>(variants.size());
        std::vector<RunResult> row;
        row.reserve(variants.size());
        for (auto it = first; it != last; ++it)
            row.push_back(std::move(it->result));
        grid.push_back(std::move(row));
    }
    return grid;
}

std::vector<std::vector<Cycle>>
printCyclesTable(const std::vector<const Workload *> &workloads,
                 const std::vector<Variant> &variants)
{
    return printCyclesTable(workloads, variants,
                            runGrid(workloads, variants));
}

std::vector<std::vector<Cycle>>
printCyclesTable(const std::vector<const Workload *> &workloads,
                 const std::vector<Variant> &variants,
                 const std::vector<std::vector<RunResult>> &grid)
{
    std::vector<std::string> header{"benchmark"};
    for (const Variant &variant : variants)
        header.push_back(variant.name);
    Table table(header);

    std::vector<std::vector<Cycle>> cycles;
    std::vector<double> sums(variants.size(), 0.0);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        table.beginRow();
        table.cell(workloads[w]->name());
        std::vector<Cycle> row;
        for (std::size_t v = 0; v < variants.size(); ++v) {
            const RunResult &result = grid[w][v];
            row.push_back(result.cycles);
            sums[v] += static_cast<double>(result.cycles);
            table.cell(result.cycles);
        }
        cycles.push_back(std::move(row));
    }
    table.beginRow();
    table.cell(std::string("mean"));
    for (double sum : sums)
        table.cell(sum / static_cast<double>(workloads.size()), 1);
    std::printf("\ncycles:\n%s", table.toAscii().c_str());
    exportCsv(table, "_cycles");
    exportRunsJson(variants, grid);
    return cycles;
}

void
printSpeedupTable(const std::vector<const Workload *> &workloads,
                  const std::vector<Variant> &variants,
                  const std::vector<std::vector<Cycle>> &cycles,
                  std::size_t base_col)
{
    std::vector<std::string> header{"benchmark"};
    for (std::size_t v = 0; v < variants.size(); ++v) {
        if (v != base_col)
            header.push_back(variants[v].name);
    }
    Table table(header);

    std::vector<double> sums(variants.size(), 0.0);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        table.beginRow();
        table.cell(workloads[w]->name());
        for (std::size_t v = 0; v < variants.size(); ++v) {
            if (v == base_col)
                continue;
            double speedup =
                speedupPercent(cycles[w][v], cycles[w][base_col]);
            sums[v] += speedup;
            table.cell(speedup, 1);
        }
    }
    table.beginRow();
    table.cell(std::string("mean"));
    for (std::size_t v = 0; v < variants.size(); ++v) {
        if (v != base_col)
            table.cell(sums[v] / static_cast<double>(workloads.size()),
                       1);
    }
    std::printf("\nspeedup vs %s (%%, paper section 5.2 formula):\n%s",
                variants[base_col].name.c_str(),
                table.toAscii().c_str());
    exportCsv(table, "_speedup");
}

namespace
{

/** Deduplicating accumulator behind buildPaperGrid(). */
struct GridBuilder
{
    PaperGrid grid;
    /** (benchmark, configKey) -> index into grid.points. */
    std::map<std::string, std::size_t> index;

    void
    add(const Workload &workload, const MachineConfig &config,
        const std::string &experiment)
    {
        ++grid.submitted;
        std::string key = workload.name() + "\n" + configKey(config);
        auto [it, inserted] =
            index.try_emplace(key, grid.points.size());
        // Route every point through the assembly cache so the static
        // bounds pass and the sweep share one build per (benchmark,
        // threads, scale).
        if (inserted) {
            grid.points.push_back(
                {&cachedWorkload(workload), config, {}});
        }
        std::vector<std::string> &tags =
            grid.points[it->second].experiments;
        if (tags.empty() || tags.back() != experiment)
            tags.push_back(experiment);
    }

    void
    addForGroup(BenchmarkGroup group, const MachineConfig &config,
                const std::string &experiment)
    {
        for (const Workload *workload : workloadsInGroup(group))
            add(*workload, config, experiment);
    }
};

} // namespace

PaperGrid
buildPaperGrid()
{
    GridBuilder builder;
    const auto groups = {BenchmarkGroup::LivermoreLoops,
                         BenchmarkGroup::GroupII};
    auto figureId = [](BenchmarkGroup group, int ll_figure) {
        return format("fig%02d",
                      group == BenchmarkGroup::LivermoreLoops
                          ? ll_figure
                          : ll_figure + 1);
    };

    for (BenchmarkGroup group : groups) {
        // Figures 3/4: fetch policies (plus the base case).
        std::string fig = figureId(group, 3);
        builder.addForGroup(group, paperConfig(1), fig);
        for (FetchPolicy policy : {FetchPolicy::TrueRoundRobin,
                                   FetchPolicy::MaskedRoundRobin,
                                   FetchPolicy::ConditionalSwitch}) {
            MachineConfig cfg = paperConfig(4);
            cfg.fetchPolicy = policy;
            builder.addForGroup(group, cfg, fig);
        }

        // Figures 5/6 + the section 5.2 summary: 1-6 threads.
        fig = figureId(group, 5);
        for (unsigned threads = 1; threads <= 6; ++threads)
            builder.addForGroup(group, paperConfig(threads), fig);

        // Figures 7/8 and Table 3: cache organization x threads.
        fig = figureId(group, 7);
        for (unsigned threads = 1; threads <= 6; ++threads) {
            for (std::uint32_t ways : {1u, 2u}) {
                MachineConfig cfg = paperConfig(threads);
                cfg.dcache.ways = ways;
                builder.addForGroup(group, cfg, fig);
            }
        }

        // Figures 9/10: SU depth x {1,4} threads.
        fig = figureId(group, 9);
        for (unsigned threads : {1u, 4u}) {
            for (unsigned entries : {16u, 32u, 48u, 64u}) {
                MachineConfig cfg = paperConfig(threads);
                cfg.suEntries = entries;
                builder.addForGroup(group, cfg, fig);
            }
        }

        // Figures 11/12 and Table 4: FU complement x {1,4} threads.
        fig = figureId(group, 11);
        for (unsigned threads : {1u, 4u}) {
            for (bool enhanced : {false, true}) {
                MachineConfig cfg = paperConfig(threads);
                if (enhanced)
                    cfg.fu = FuConfig::sdspEnhanced();
                builder.addForGroup(group, cfg, fig);
            }
        }

        // Figures 13/14: commit policy, 4 threads.
        fig = figureId(group, 13);
        for (CommitPolicy policy : {CommitPolicy::FlexibleFourBlocks,
                                    CommitPolicy::LowestBlockOnly}) {
            MachineConfig cfg = paperConfig(4);
            cfg.commitPolicy = policy;
            builder.addForGroup(group, cfg, fig);
        }
    }
    return std::move(builder.grid);
}

} // namespace bench
} // namespace sdsp
