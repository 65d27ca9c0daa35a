#include "bench_util.hh"

#include <cctype>
#include <cerrno>
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
    return static_cast<unsigned>(
        parseIntOption("SDSP_BENCH_SCALE", env, 1, 1000));
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
            const std::string &paper_expectation, unsigned scale)
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
    std::printf("problem scale: %u%%\n", scale);
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

void
exportCsv(const Table &table, const std::string &suffix)
{
    const char *dir = std::getenv("SDSP_BENCH_CSV");
    if (!dir || !*dir || !ensureOutputDir(dir))
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

long
parseIntOption(const char *name, const char *text, long min_value,
               long max_value)
{
    char *end = nullptr;
    errno = 0;
    long value = std::strtol(text, &end, 10);
    if (end == text || *end || errno == ERANGE)
        fatal("bad %s value: %s", name, text);
    if (value < min_value || value > max_value)
        fatal("%s out of range: %s", name, text);
    return value;
}

} // namespace bench
} // namespace sdsp
