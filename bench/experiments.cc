#include "experiments.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "asm/rewrite.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/processor.hh"
#include "explore/explore.hh"
#include "harness/artifacts.hh"
#include "isa/interpreter.hh"

namespace sdsp
{
namespace bench
{

namespace
{

const char *
groupName(BenchmarkGroup group)
{
    return group == BenchmarkGroup::LivermoreLoops
               ? "Group I (Livermore loops)"
               : "Group II (Laplace, MPD, Matrix, Sieve, Water)";
}

/** The cycles table alone: the report of most grid experiments. */
ReportOutput
reportCycles(const Experiment &experiment, const ExperimentRun &run)
{
    printCyclesTable(experiment.workloads, experiment.variants,
                     run.results);
    return {};
}

/** Cycles, then speedup over the first (single-threaded) column. */
ReportOutput
reportSpeedup(const Experiment &experiment, const ExperimentRun &run)
{
    auto cycles = printCyclesTable(experiment.workloads,
                                   experiment.variants, run.results);
    printSpeedupTable(experiment.workloads, experiment.variants, cycles,
                      0);
    return {};
}

// ---- Figures 3-14 (each pair differs only in its benchmark group).

/** Figure @p ll_figure for Group I, the next one for Group II. */
Experiment
figure(BenchmarkGroup group, int ll_figure, std::string title,
       std::string expectation, std::vector<Variant> variants,
       Report report)
{
    int number = group == BenchmarkGroup::LivermoreLoops ? ll_figure
                                                         : ll_figure + 1;
    return {format("fig%02d", number),
            format("Figure %d", number),
            std::move(title),
            std::move(expectation),
            workloadsInGroup(group),
            std::move(variants),
            report};
}

/** Figures 3/4: the three fetch policies vs the base case. */
std::vector<Variant>
fetchPolicyVariants()
{
    MachineConfig masked = paperConfig(4);
    masked.fetchPolicy = FetchPolicy::MaskedRoundRobin;
    MachineConfig cswitch = paperConfig(4);
    cswitch.fetchPolicy = FetchPolicy::ConditionalSwitch;
    return {
        {"BaseCase", paperConfig(1)},
        {"TrueRR", paperConfig(4)},
        {"MaskedRR", masked},
        {"CSwitch", cswitch},
    };
}

/** Figures 5/6 and the section 5.2 summary: 1-6 threads. */
std::vector<Variant>
threadCountVariants()
{
    std::vector<Variant> variants;
    for (unsigned threads = 1; threads <= 6; ++threads)
        variants.push_back({format("%uT", threads), paperConfig(threads)});
    return variants;
}

ReportOutput
reportThreadCount(const Experiment &experiment, const ExperimentRun &run)
{
    const auto &workloads = experiment.workloads;
    const auto &variants = experiment.variants;
    auto cycles = printCyclesTable(workloads, variants, run.results);
    printSpeedupTable(workloads, variants, cycles, 0);

    // Peak improvement per benchmark (the paper's section 5.2
    // summary statistic).
    Table peaks({"benchmark", "peak speedup %", "at threads"});
    double sum = 0.0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        double best = -1e9;
        unsigned best_threads = 2;
        for (std::size_t v = 1; v < variants.size(); ++v) {
            double speedup = speedupPercent(cycles[w][v], cycles[w][0]);
            if (speedup > best) {
                best = speedup;
                best_threads = static_cast<unsigned>(v + 1);
            }
        }
        sum += best;
        peaks.beginRow();
        peaks.cell(workloads[w]->name());
        peaks.cell(best, 1);
        peaks.cell(std::uint64_t{best_threads});
    }
    std::printf("\npeak improvement per benchmark:\n%s",
                peaks.toAscii().c_str());
    std::printf("group average peak improvement: %.1f%%\n",
                sum / static_cast<double>(workloads.size()));
    return {};
}

/** Figures 7/8 and Table 3: direct then 2-way associative for each
 *  of 1-6 threads, so column 2 * (threads - 1) + (ways - 1). */
std::vector<Variant>
cacheVariants()
{
    std::vector<Variant> variants;
    for (unsigned threads = 1; threads <= 6; ++threads) {
        MachineConfig direct = paperConfig(threads);
        direct.dcache.ways = 1;
        variants.push_back({format("direct/%uT", threads), direct});
        variants.push_back(
            {format("assoc/%uT", threads), paperConfig(threads)});
    }
    return variants;
}

ReportOutput
reportCache(const Experiment &experiment, const ExperimentRun &run)
{
    Table table({"threads", "direct", "assoc", "assoc gain %"});
    double n = static_cast<double>(experiment.workloads.size());
    for (unsigned threads = 1; threads <= 6; ++threads) {
        double direct_sum = 0.0, assoc_sum = 0.0;
        for (const std::vector<RunResult> &row : run.results) {
            direct_sum +=
                static_cast<double>(row[2 * (threads - 1)].cycles);
            assoc_sum +=
                static_cast<double>(row[2 * (threads - 1) + 1].cycles);
        }
        table.beginRow();
        table.cell(std::uint64_t{threads});
        table.cell(direct_sum / n, 1);
        table.cell(assoc_sum / n, 1);
        table.cell((direct_sum - assoc_sum) / direct_sum * 100.0, 2);
    }
    std::printf("\n%s", table.toAscii().c_str());
    exportCsv(table);
    return {};
}

/** Figures 9/10: SU depth x {1,4} threads. */
std::vector<Variant>
suDepthVariants()
{
    std::vector<Variant> variants;
    for (unsigned threads : {1u, 4u}) {
        for (unsigned entries : {16u, 32u, 48u, 64u}) {
            MachineConfig cfg = paperConfig(threads);
            cfg.suEntries = entries;
            variants.push_back(
                {format("%uT/SU%u", threads, entries), cfg});
        }
    }
    return variants;
}

/** Figures 11/12: FU complement x {1,4} threads. Table 4 runs the
 *  last variant, 4Thread++. */
std::vector<Variant>
fuConfigVariants()
{
    MachineConfig enh1 = paperConfig(1);
    enh1.fu = FuConfig::sdspEnhanced();
    MachineConfig enh4 = paperConfig(4);
    enh4.fu = FuConfig::sdspEnhanced();
    return {
        {"Base", paperConfig(1)},
        {"Base++", enh1},
        {"4Thread", paperConfig(4)},
        {"4Thread++", enh4},
    };
}

ReportOutput
reportFuConfig(const Experiment &experiment, const ExperimentRun &run)
{
    const auto &workloads = experiment.workloads;
    auto cycles =
        printCyclesTable(workloads, experiment.variants, run.results);

    // The paper's headline: relative multithreaded speedup within
    // each FU configuration.
    double default_sum = 0.0, enhanced_sum = 0.0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        default_sum += speedupPercent(cycles[w][2], cycles[w][0]);
        enhanced_sum += speedupPercent(cycles[w][3], cycles[w][1]);
    }
    double n = static_cast<double>(workloads.size());
    std::printf("\nmultithreading speedup, default FUs:  %.1f%%\n",
                default_sum / n);
    std::printf("multithreading speedup, enhanced FUs: %.1f%%\n",
                enhanced_sum / n);
    return {};
}

/** Figures 13/14: flexible vs lowest-block-only commit, 4 threads. */
std::vector<Variant>
commitVariants()
{
    MachineConfig lowest = paperConfig(4);
    lowest.commitPolicy = CommitPolicy::LowestBlockOnly;
    return {
        {"Multiple", paperConfig(4)},
        {"Lowest", lowest},
    };
}

ReportOutput
reportCommit(const Experiment &experiment, const ExperimentRun &run)
{
    const auto &workloads = experiment.workloads;
    auto cycles =
        printCyclesTable(workloads, experiment.variants, run.results);

    // SU-stall counts, the paper's explanation for the gap, from the
    // same runs the cycles table reports.
    Table stalls(
        {"benchmark", "suStalls multiple", "suStalls lowest",
         "flexCommits"});
    double gain_sum = 0.0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const RunResult &multiple = run.results[w][0];
        const RunResult &only_lowest = run.results[w][1];
        stalls.beginRow();
        stalls.cell(workloads[w]->name());
        stalls.cell(multiple.suStalls);
        stalls.cell(only_lowest.suStalls);
        stalls.cell(multiple.flexCommits);
        gain_sum += speedupPercent(cycles[w][0], cycles[w][1]);
    }
    std::printf("\n%s", stalls.toAscii().c_str());
    std::printf("average improvement from flexible commit: %.1f%%\n",
                gain_sum / static_cast<double>(workloads.size()));
    return {};
}

void
addFigures(std::vector<Experiment> &registry, BenchmarkGroup group)
{
    const std::string name = groupName(group);
    registry.push_back(figure(
        group, 3,
        "cycles of execution of " + name + " under the fetch policies",
        "TrueRR ~ MaskedRR ~ CSwitch, all well ahead of the "
        "single-threaded base case for most benchmarks (LL5 behind it)",
        fetchPolicyVariants(), reportSpeedup));
    registry.push_back(figure(
        group, 5, "cycles of execution of " + name + " for 1-6 threads",
        "peak improvements mostly +20..55%; LL5 negative; Livermore "
        "group deteriorates by ~6 threads",
        threadCountVariants(), reportThreadCount));
    registry.push_back(figure(
        group, 7,
        "average cycles of " + name +
            " with direct-mapped vs 2-way associative caches, 1-6 "
            "threads",
        "associative ahead of direct everywhere, and the gap widens as "
        "threads contend for the cache",
        cacheVariants(), reportCache));
    registry.push_back(figure(
        group, 9,
        "performance of " + name +
            " for scheduling units of 16/32/48/64 entries, 1 and 4 "
            "threads",
        "big step 16->32, small 32->48, negligible 48->64; a deeper SU "
        "narrows the multithreading advantage; occasional inversions "
        "from commit-time predictor updates and the restricted "
        "load/store policy",
        suDepthVariants(), reportCycles));
    registry.push_back(figure(
        group, 11,
        "cycles of " + name +
            " with default vs enhanced (++) functional units",
        "multithreaded speedup over single-threaded is larger under the "
        "enhanced configuration, especially for the compute-bound "
        "Livermore group",
        fuConfigVariants(), reportFuConfig));
    registry.push_back(figure(
        group, 13,
        "cycles of " + name +
            " committing from multiple (four) vs the lowest block only, "
            "4 threads",
        "flexible result commit ahead (Group I ~+x%, Group II smaller); "
        "without it, scheduling-unit stalls occur more often",
        commitVariants(), reportCommit));
}

// ---- Tables.

/** Table 3: average data-cache hit rates per group. */
ReportOutput
reportHitRates(const Experiment &experiment, const ExperimentRun &run)
{
    auto averageHitRate = [&](BenchmarkGroup group, std::size_t col) {
        double sum = 0.0;
        std::size_t count = 0;
        for (std::size_t w = 0; w < run.results.size(); ++w) {
            if (experiment.workloads[w]->group() != group)
                continue;
            sum += run.results[w][col].cacheHitRate;
            ++count;
        }
        return sum / static_cast<double>(count);
    };

    Table table({"threads", "group", "direct %", "assoc %"});
    for (unsigned threads = 1; threads <= 6; ++threads) {
        for (BenchmarkGroup group :
             {BenchmarkGroup::LivermoreLoops, BenchmarkGroup::GroupII}) {
            table.beginRow();
            table.cell(std::uint64_t{threads});
            table.cell(group == BenchmarkGroup::LivermoreLoops
                           ? "Group I"
                           : "Group II");
            table.cell(100.0 * averageHitRate(group, 2 * (threads - 1)),
                       2);
            table.cell(
                100.0 * averageHitRate(group, 2 * (threads - 1) + 1),
                2);
        }
    }
    std::printf("\n%s", table.toAscii().c_str());
    exportCsv(table);
    return {};
}

/**
 * Table 4: busy cycles of the enhanced configuration's extra FU
 * instances, from each run's fu.<class>[i].busyFraction statistic.
 * Issue always picks the lowest-numbered free instance of a class,
 * so the instances at indices >= the default configuration's count
 * are exactly the "extra" units the paper tracks.
 */
ReportOutput
reportFuUsage(const Experiment &experiment, const ExperimentRun &run)
{
    FuConfig def = FuConfig::sdspDefault();
    FuConfig enh = FuConfig::sdspEnhanced();

    Table table({"group", "extra unit", "% cycles used"});
    for (BenchmarkGroup group :
         {BenchmarkGroup::LivermoreLoops, BenchmarkGroup::GroupII}) {
        for (unsigned cls = 0; cls < kNumFuClasses; ++cls) {
            const char *fu_class = fuClassName(static_cast<FuClass>(cls));
            for (unsigned i = def.count[cls]; i < enh.count[cls]; ++i) {
                // Average the instance's busy fraction over the
                // group's benchmarks.
                std::string stat =
                    format("fu.%s[%u].busyFraction", fu_class, i);
                double sum = 0.0;
                std::size_t count = 0;
                for (std::size_t w = 0; w < run.results.size(); ++w) {
                    if (experiment.workloads[w]->group() != group)
                        continue;
                    sum += run.results[w][0].stats.get(stat);
                    ++count;
                }
                table.beginRow();
                table.cell(group == BenchmarkGroup::LivermoreLoops
                               ? "Group I"
                               : "Group II");
                table.cell(format("%s #%u", fu_class, i + 1));
                table.cell(100.0 * sum / static_cast<double>(count), 2);
            }
        }
    }
    std::printf("\n%s", table.toAscii().c_str());
    return {};
}

/** Section 5.2: peak improvement per benchmark over 2-6 threads. */
ReportOutput
reportSpeedupSummary(const Experiment &experiment, const ExperimentRun &run)
{
    Table table({"benchmark", "group", "base cycles", "peak speedup %",
                 "at threads"});
    double group_sum[2] = {0.0, 0.0};
    unsigned group_count[2] = {0, 0};
    std::vector<std::vector<double>> ll_speedups(7);

    for (std::size_t w = 0; w < experiment.workloads.size(); ++w) {
        const Workload *workload = experiment.workloads[w];
        Cycle base = run.results[w][0].cycles;
        double best = -1e9;
        unsigned best_threads = 2;
        for (unsigned threads = 2; threads <= 6; ++threads) {
            Cycle cycles = run.results[w][threads - 1].cycles;
            double speedup = speedupPercent(cycles, base);
            if (workload->group() == BenchmarkGroup::LivermoreLoops)
                ll_speedups[threads].push_back(speedup);
            if (speedup > best) {
                best = speedup;
                best_threads = threads;
            }
        }
        unsigned group_idx =
            workload->group() == BenchmarkGroup::LivermoreLoops ? 0 : 1;
        group_sum[group_idx] += best;
        ++group_count[group_idx];

        table.beginRow();
        table.cell(workload->name());
        table.cell(group_idx == 0 ? "I" : "II");
        table.cell(base);
        table.cell(best, 1);
        table.cell(std::uint64_t{best_threads});
    }
    std::printf("\n%s", table.toAscii().c_str());
    std::printf("\naverage peak improvement, Group I : %.1f%%\n",
                group_sum[0] / group_count[0]);
    std::printf("average peak improvement, Group II: %.1f%%\n",
                group_sum[1] / group_count[1]);

    std::printf("\nLivermore average speedup by thread count:\n");
    for (unsigned threads = 2; threads <= 6; ++threads) {
        std::printf("  %u threads: %+.1f%%\n", threads,
                    mean(ll_speedups[threads]));
    }
    return {};
}

/**
 * Workload characterization: dynamic instruction mix, counted on the
 * functional interpreter at 4 threads so the numbers are
 * architectural (no wrong-path pollution).
 */
ReportOutput
reportInstructionMix(const Experiment &, const ExperimentRun &run)
{
    std::vector<std::string> header{"benchmark", "dyn.insts"};
    for (unsigned cls = 0; cls < kNumFuClasses; ++cls)
        header.push_back(fuClassName(static_cast<FuClass>(cls)));
    Table table(header);

    for (const Workload *workload : allWorkloads()) {
        WorkloadImage image = workload->build(4, run.scale);
        Interpreter interp(image.program, 4);
        if (!interp.run())
            fatal("%s did not terminate", workload->name().c_str());

        double total =
            static_cast<double>(interp.totalInstructionCount());
        table.beginRow();
        table.cell(workload->name());
        table.cell(interp.totalInstructionCount());
        for (unsigned cls = 0; cls < kNumFuClasses; ++cls) {
            table.cell(100.0 *
                           static_cast<double>(
                               interp.classCounts()[cls]) /
                           total,
                       1);
        }
    }
    std::printf("\n%s", table.toAscii().c_str());
    return {};
}

void
addTables(std::vector<Experiment> &registry)
{
    registry.push_back(
        {"tab03_hit_rates", "Table 3",
         "average hit rates for direct and 2-way set associative "
         "caches, 1-6 threads",
         "hit rate rises then falls with thread count (working sets "
         "first coexist, then thrash); associative ahead of direct "
         "throughout, by a growing margin",
         allWorkloads(), cacheVariants(), reportHitRates});
    registry.push_back(
        {"tab04_fu_usage", "Table 4",
         "average usage of extra functional units as a percentage of "
         "total cycles (enhanced config, 4 threads)",
         "the second load unit and the FP multiplier are the most "
         "valuable extras; the FP multiplier matters most to the "
         "compute-intensive Group I",
         allWorkloads(), {fuConfigVariants().back()}, reportFuUsage});
    registry.push_back(
        {"tab_speedup_summary", "Section 5.2 summary",
         "peak multithreading improvement per benchmark",
         "peak improvements roughly -8%..+75% with most benchmarks "
         "gaining 20-55%; LL5 negative; Livermore average positive at "
         "3 threads, deteriorating by 6",
         allWorkloads(), threadCountVariants(), reportSpeedupSummary});
    registry.push_back(
        {"tab_instruction_mix", "Workload characterization",
         "dynamic instruction mix per benchmark (percent of committed "
         "instructions, 4 threads)",
         "Group I is FP-multiply/add heavy; Water is the FP "
         "divide/sqrt user; Sieve is integer stores; the sync "
         "benchmarks show their spin overhead as extra loads/branches",
         {}, {}, reportInstructionMix});
}

// ---- Ablations: the design alternatives of Table 2 and section 6.1.

/** Section 6.1 item 3: adaptive fetch vs the three policies. */
std::vector<Variant>
adaptiveFetchVariants()
{
    MachineConfig adaptive = paperConfig(4);
    adaptive.fetchPolicy = FetchPolicy::Adaptive;
    std::vector<Variant> variants = fetchPolicyVariants();
    variants.erase(variants.begin()); // no single-threaded base case
    variants.push_back({"Adaptive", adaptive});
    return variants;
}

/** One program's cycles, fatal unless it finishes and verifies. */
Cycle
runProgram(const Program &prog, const WorkloadImage &image,
           const MachineConfig &cfg)
{
    Processor cpu(cfg, prog);
    SimResult sim = cpu.run();
    if (!sim.finished || !image.verify(cpu.memory()).ok)
        fatal("%s failed", image.name.c_str());
    return sim.cycles;
}

/**
 * Section 6.1 item 2: branch targets at the beginning of a fetch
 * block and control transfers at its end, applied to every benchmark
 * with the binary-rewriting pass. The rewritten programs are not
 * workload builds, so this entry runs its own simulations.
 */
ReportOutput
reportAlignment(const Experiment &, const ExperimentRun &run)
{
    LayoutOptions both;
    both.alignTargetsToBlocks = true;
    both.alignBranchesToBlockEnd = true;
    LayoutOptions targets_only;
    targets_only.alignTargetsToBlocks = true;

    Table table({"benchmark", "plain", "targets-aligned",
                 "fully-aligned", "gain %", "code growth %"});
    MachineConfig cfg = paperConfig(4);
    for (const Workload *workload : allWorkloads()) {
        WorkloadImage image = workload->build(4, run.scale);
        Program targets = realignProgram(image.program, targets_only);
        Program full = realignProgram(image.program, both);

        Cycle plain = runProgram(image.program, image, cfg);
        Cycle aligned_targets = runProgram(targets, image, cfg);
        Cycle aligned_full = runProgram(full, image, cfg);

        table.beginRow();
        table.cell(workload->name());
        table.cell(plain);
        table.cell(aligned_targets);
        table.cell(aligned_full);
        table.cell(speedupPercent(aligned_full, plain), 1);
        table.cell(100.0 *
                       (static_cast<double>(full.code.size()) /
                            static_cast<double>(
                                image.program.code.size()) -
                        1.0),
                   1);
    }
    std::printf("\n%s", table.toAscii().c_str());
    return {};
}

/** Section 4: one shared BTB vs private per-thread slices. */
std::vector<Variant>
btbVariants()
{
    MachineConfig banked = paperConfig(4);
    banked.btbBanks = 4;
    return {
        {"shared", paperConfig(4)},
        {"private", banked},
    };
}

ReportOutput
reportBtbBanks(const Experiment &experiment, const ExperimentRun &run)
{
    Table table({"benchmark", "shared cycles", "private cycles",
                 "shared acc %", "private acc %"});
    for (std::size_t w = 0; w < experiment.workloads.size(); ++w) {
        const RunResult &s = run.results[w][0];
        const RunResult &p = run.results[w][1];
        table.beginRow();
        table.cell(experiment.workloads[w]->name());
        table.cell(s.cycles);
        table.cell(p.cycles);
        table.cell(100.0 * s.branchAccuracy, 2);
        table.cell(100.0 * p.branchAccuracy, 2);
    }
    std::printf("\n%s", table.toAscii().c_str());
    exportCsv(table);
    return {};
}

/** Table 2: result bypassing on vs off, 1 and 4 threads. */
std::vector<Variant>
bypassingVariants()
{
    MachineConfig without1 = paperConfig(1);
    without1.bypassing = false;
    MachineConfig without = paperConfig(4);
    without.bypassing = false;
    return {
        {"1T/bypass", paperConfig(1)},
        {"1T/no-bypass", without1},
        {"4T/bypass", paperConfig(4)},
        {"4T/no-bypass", without},
    };
}

/** Section 5.3: uniform vs per-thread partitioned data cache. */
std::vector<Variant>
cachePartitioningVariants()
{
    std::vector<Variant> variants;
    for (unsigned threads : {2u, 4u, 6u}) {
        MachineConfig partitioned = paperConfig(threads);
        partitioned.dcache.partitions = threads;
        variants.push_back(
            {format("%uT/uniform", threads), paperConfig(threads)});
        variants.push_back(
            {format("%uT/partitioned", threads), partitioned});
    }
    return variants;
}

/** Section 6.1 item 1: cache ports swept with the load units, since
 *  either one alone leaves the other the bottleneck. */
std::vector<Variant>
cachePortVariants()
{
    auto with_ports = [](std::uint32_t ports, unsigned load_units) {
        MachineConfig cfg = paperConfig(4);
        cfg.dcache.ports = ports;
        cfg.fu.count[static_cast<unsigned>(FuClass::Load)] = load_units;
        return cfg;
    };
    return {
        {"1port/1load", with_ports(1, 1)},
        {"2port/1load", with_ports(2, 1)},
        {"2port/2load", with_ports(2, 2)},
    };
}

/** Table 2's perfect I-cache vs finite 4KB/1KB I-caches. */
std::vector<Variant>
icacheVariants()
{
    MachineConfig big = paperConfig(4);
    big.perfectICache = false;
    MachineConfig small = paperConfig(4);
    small.perfectICache = false;
    small.icache.sizeBytes = 1024;
    return {
        {"perfect", paperConfig(4)},
        {"4KB", big},
        {"1KB", small},
    };
}

/** Section 3.3: weighted round robin favoring thread 0. */
std::vector<Variant>
priorityFetchVariants()
{
    std::vector<Variant> variants;
    for (unsigned boost : {1u, 2u, 4u}) {
        MachineConfig cfg = paperConfig(4);
        cfg.fetchPolicy = FetchPolicy::WeightedRoundRobin;
        cfg.fetchWeights = {boost, 1, 1, 1};
        variants.push_back({format("%ux", boost), cfg});
    }
    return variants;
}

/** Committed share of thread 0 at the end of the run. */
double
thread0Share(const RunResult &result)
{
    double total = result.stats.get("sim.committed");
    double t0 = result.stats.get("sim.committed.thread0");
    return total > 0 ? t0 / total : 0.0;
}

ReportOutput
reportPriorityFetch(const Experiment &experiment, const ExperimentRun &run)
{
    Table table({"benchmark", "equal cycles", "2x cycles", "4x cycles",
                 "t0 share equal %", "t0 share 4x %"});
    for (std::size_t w = 0; w < experiment.workloads.size(); ++w) {
        const std::vector<RunResult> &row = run.results[w];
        table.beginRow();
        table.cell(experiment.workloads[w]->name());
        table.cell(row[0].cycles);
        table.cell(row[1].cycles);
        table.cell(row[2].cycles);
        table.cell(100.0 * thread0Share(row[0]), 1);
        table.cell(100.0 * thread0Share(row[2]), 1);
    }
    std::printf("\n%s", table.toAscii().c_str());
    exportCsv(table);
    return {};
}

/** Table 2: full tag renaming vs 1-bit scoreboarding. */
std::vector<Variant>
renamingVariants()
{
    std::vector<Variant> variants;
    for (unsigned threads : {1u, 4u}) {
        MachineConfig scoreboarded = paperConfig(threads);
        scoreboarded.renameScheme = RenameScheme::Scoreboard1Bit;
        variants.push_back(
            {format("%uT/rename", threads), paperConfig(threads)});
        variants.push_back(
            {format("%uT/scoreboard", threads), scoreboarded});
    }
    return variants;
}

/** Section 6.1 item 4: LL5 (block-cyclic distribution, per-block
 *  flags) vs LL5sched (one chunk per thread, one flag per
 *  repetition), 1-6 threads. */
ReportOutput
reportSoftwareSched(const Experiment &, const ExperimentRun &run)
{
    Table table({"threads", "LL5 cycles", "LL5sched cycles",
                 "LL5 speedup %", "LL5sched speedup %"});
    Cycle base_naive = run.results[0][0].cycles;
    Cycle base_sched = run.results[1][0].cycles;
    for (unsigned threads = 1; threads <= 6; ++threads) {
        Cycle n = run.results[0][threads - 1].cycles;
        Cycle s = run.results[1][threads - 1].cycles;
        table.beginRow();
        table.cell(std::uint64_t{threads});
        table.cell(n);
        table.cell(s);
        table.cell(speedupPercent(n, base_naive), 1);
        table.cell(speedupPercent(s, base_sched), 1);
    }
    std::printf("\n%s", table.toAscii().c_str());
    exportCsv(table);
    return {};
}

/** Store buffers of 4-32 entries under the commit-gated drain. */
std::vector<Variant>
storeBufferVariants()
{
    std::vector<Variant> variants;
    for (unsigned entries : {4u, 8u, 16u, 32u}) {
        MachineConfig cfg = paperConfig(4);
        cfg.storeBufferEntries = entries;
        variants.push_back({format("SB%u", entries), cfg});
    }
    return variants;
}

void
addAblations(std::vector<Experiment> &registry)
{
    const std::vector<const Workload *> &all = allWorkloads();
    registry.push_back(
        {"abl_adaptive_fetch", "Ablation: adaptive fetch (section 6.1)",
         "adaptive (commit-stall-scored) fetch vs the paper's three "
         "policies, 4 threads",
         "adaptive should match or beat round robin on "
         "synchronization-bound benchmarks (LL5) by stealing fetch "
         "slots from stalled threads",
         all, adaptiveFetchVariants(), reportCycles});
    registry.push_back(
        {"abl_alignment", "Ablation: code alignment (section 6.1)",
         "plain layout vs block-aligned branch targets / block-ending "
         "control transfers, 4 threads",
         "alignment recovers fetch slots wasted on invalid "
         "instructions; gains are largest for short-loop benchmarks, "
         "at the cost of a larger code image",
         {}, {}, reportAlignment});
    registry.push_back(
        {"abl_btb_banks", "Ablation: BTB sharing (section 4)",
         "shared 512-entry BTB vs private per-thread slices (same "
         "total budget), 4 threads",
         "with homogeneous code, sharing wins or ties: threads train "
         "each other's branches, and each private slice is only a "
         "quarter of the budget",
         all, btbVariants(), reportBtbBanks});
    registry.push_back(
        {"abl_bypassing", "Ablation: bypassing",
         "result bypassing enabled vs disabled, 4 threads",
         "bypassing ahead on every benchmark; multithreading partially "
         "hides the lost cycle by filling it with other threads' "
         "instructions",
         all, bypassingVariants(), reportCycles});
    registry.push_back(
        {"abl_cache_partitioning",
         "Ablation: cache partitioning (section 5.3)",
         "uniform shared cache vs per-thread partitions, 2/4/6 threads",
         "partitioning removes inter-thread conflicts but shrinks each "
         "thread's usable capacity to 1/N; the paper expects (and we "
         "confirm) the uniform cache to be the better default for "
         "these working sets",
         all, cachePartitioningVariants(), reportCycles});
    registry.push_back(
        {"abl_cache_ports", "Ablation: cache ports (section 6.1)",
         "1 vs 2 data-cache ports, with 1 or 2 load units, 4 threads",
         "memory-bound benchmarks (Sieve, Matrix) gain from the "
         "port+load-unit combination; compute-bound ones barely move",
         all, cachePortVariants(), reportCycles});
    registry.push_back(
        {"abl_icache", "Ablation: instruction cache (Table 2 assumption)",
         "perfect I-cache vs finite 4KB/1KB 2-way I-caches, 4 threads",
         "the benchmark kernels are small and loop-resident, so a "
         "modest real I-cache costs only cold misses — the paper's "
         "perfect-cache assumption is benign here",
         all, icacheVariants(), reportCycles});
    registry.push_back(
        {"abl_priority_fetch", "Ablation: thread priorities (section 3.3)",
         "weighted round robin favoring thread 0 by 1x/2x/4x, 4 threads",
         "higher weight advances the favored thread at a modest "
         "total-throughput cost; useful when one stream is "
         "latency-critical",
         all, priorityFetchVariants(), reportPriorityFetch});
    registry.push_back(
        {"abl_renaming", "Ablation: renaming",
         "full register renaming vs 1-bit scoreboarding, 1 and 4 "
         "threads",
         "renaming ahead everywhere; the gap grows with multithreading "
         "because the shared window holds more in-flight writers per "
         "register",
         all, renamingVariants(), reportCycles});
    registry.push_back(
        {"abl_software_sched", "Ablation: software scheduling (section 6.1)",
         "LL5 naive (fine-grained sync) vs LL5sched (rearranged, "
         "coarse-grained sync), 1-6 threads",
         "the rearranged division turns LL5's negative speedup into a "
         "gain — the 'great impact' the paper attributes to judicious "
         "task division",
         {&workloadByName("LL5"), &workloadByName("LL5sched")},
         threadCountVariants(), reportSoftwareSched});
    registry.push_back(
        {"abl_store_buffer", "Ablation: store buffer depth",
         "store buffer of 4/8/16/32 entries, 4 threads",
         "the commit-gated drain policy needs one commit block of slots "
         "(4) as a structural minimum; beyond that the paper's 8 "
         "entries are ample and depth is insensitive",
         all, storeBufferVariants(), reportCycles});
}

// ---- The critical-path what-if gate (DESIGN.md section 10).

/** Spot-check error tolerance at the golden scale and its cap,
 *  percent (see scaledTolerancePercent). */
constexpr double kSpotTolerancePercent = 5.0;
constexpr double kSpotToleranceCapPercent = 30.0;

/** The projected machine changes, one column each. */
std::vector<NamedWhatIf>
critWhatIfs()
{
    std::vector<NamedWhatIf> what_ifs;
    for (const char *spec :
         {"issueWidth=16", "suEntries=64", "perfectDCache=1",
          "infiniteStoreBuffer=1", "bypassing=0",
          "issueWidth=16,suEntries=64"}) {
        NamedWhatIf &what_if = what_ifs.emplace_back();
        what_if.name = spec;
        std::string error;
        if (!what_if.whatIf.applyKeyValues(spec, &error))
            fatal("bad what-if %s: %s", spec, error.c_str());
    }
    return what_ifs;
}

/** critVariants() puts the 1- and 4-thread recorded variants first,
 *  then one re-simulated variant per spot check. */
constexpr std::size_t kCritRecorded = 2;
constexpr std::size_t kCritFourThreads = 1;

/**
 * One projection of the 4-thread recording checked against a real
 * re-simulation. Chosen where the recorded-trace model is
 * predictive: capacity increases that relieve a recorded bottleneck
 * without changing the memory behavior (LL1/LL5), and a pure
 * edge-weight change (Sieve without bypassing). Projections that
 * alter cache contention second-order (e.g. deeper SU on a thrashing
 * workload) are reported in the JSON but not gated.
 */
struct SpotCheck
{
    const char *workload;
    /** A what-if of critWhatIfs(), by name; also its variant's. */
    const char *whatIf;
};
constexpr SpotCheck kSpotChecks[] = {{"LL1", "suEntries=64"},
                                     {"LL5", "issueWidth=16"},
                                     {"Sieve", "bypassing=0"}};

/** The recorded 1- and 4-thread machines, then each spot check's
 *  4-thread machine under its what-if, re-simulated. */
std::vector<Variant>
critVariants(const std::vector<NamedWhatIf> &what_ifs)
{
    std::vector<Variant> variants{{"1T", paperConfig(1), true},
                                  {"4T", paperConfig(4), true}};
    for (const SpotCheck &check : kSpotChecks) {
        auto what_if = std::find_if(
            what_ifs.begin(), what_ifs.end(),
            [&](const auto &entry) { return entry.name == check.whatIf; });
        sdsp_assert(what_if != what_ifs.end(),
                    "spot-check what-if %s not projected", check.whatIf);
        variants.push_back(
            {check.whatIf, applyWhatIf(what_if->whatIf, paperConfig(4))});
    }
    return variants;
}

/**
 * Print every recorded run's critical path and projections, then the
 * spot checks against their re-simulations, gated at every scale with
 * a scale-aware tolerance; write the sdsp-bench-critpath-v1 object. A
 * failed recorded run was never shown exact, so it counts as inexact;
 * its status and error say why.
 */
ReportOutput
reportCritWhatIf(const Experiment &experiment, const ExperimentRun &run)
{
    const std::vector<const Workload *> &workloads = experiment.workloads;
    const std::vector<Variant> &variants = experiment.variants;
    std::size_t inexact = 0;
    std::printf("\n%-10s %3s %10s %6s %9s |", "benchmark", "t",
                "cycles", "exact", "ms/relax");
    for (const NamedWhatIf &what_if : experiment.whatIfs)
        std::printf(" %-12.12s", what_if.name.c_str());
    std::printf("\n");
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t v = 0; v < kCritRecorded; ++v) {
            const PointOutcome &point = run.outcomes[w][v];
            const std::string name = workloads[w]->name();
            unsigned threads = variants[v].config.numThreads;
            if (point.status != JobStatus::Ok) {
                ++inexact;
                std::printf("%-10s %3u %10s %6s | %s: %s\n",
                            name.c_str(), threads, "-", "NO",
                            jobStatusName(point.status),
                            point.error.c_str());
                continue;
            }
            std::printf("%-10s %3u %10llu %6s %9.2f |", name.c_str(),
                        threads,
                        static_cast<unsigned long long>(
                            run.results[w][v].cycles),
                        "yes", point.meanRelaxMs);
            for (const RelaxResult &projection : point.projections)
                std::printf(" %-12llu",
                            static_cast<unsigned long long>(
                                projection.cycles));
            std::printf("\n");
        }
    }

    // Spot checks: each projection against its re-simulation.
    struct Check
    {
        Cycle projected = 0;
        Cycle resimulated = 0;
        double errorPercent = 0.0;
        bool pass = false;
        /** Why the check could not be made; empty when it was. */
        std::string error;
    };
    const double tolerance = scaledTolerancePercent(
        run.scale, kSpotTolerancePercent, kSpotToleranceCapPercent);
    const unsigned threads = variants[kCritFourThreads].config.numThreads;
    ReportOutput output;
    std::vector<Check> checks;
    std::printf("\nspot checks (projection vs. re-simulation, gated "
                "at %.1f%% for scale %u):\n",
                tolerance, run.scale);
    for (std::size_t c = 0; c < std::size(kSpotChecks); ++c) {
        const SpotCheck &spot = kSpotChecks[c];
        std::size_t w = 0;
        while (workloads[w]->name() != spot.workload)
            ++w;
        const PointOutcome &recorded = run.outcomes[w][kCritFourThreads];
        const PointOutcome &real = run.outcomes[w][kCritRecorded + c];
        Check &check = checks.emplace_back();
        for (std::size_t i = 0; i < recorded.projections.size(); ++i) {
            if (experiment.whatIfs[i].name == spot.whatIf)
                check.projected = recorded.projections[i].cycles;
        }
        if (recorded.status != JobStatus::Ok) {
            check.error = "its recorded point failed";
        } else if (real.status != JobStatus::Ok) {
            check.error = std::string(jobStatusName(real.status)) +
                          ": " + real.error;
        } else {
            check.resimulated = run.results[w][kCritRecorded + c].cycles;
            check.errorPercent =
                (static_cast<double>(check.projected) -
                 static_cast<double>(check.resimulated)) /
                static_cast<double>(check.resimulated) * 100.0;
            check.pass = check.errorPercent <= tolerance &&
                         check.errorPercent >= -tolerance;
        }
        if (!check.error.empty()) {
            std::printf("  %-6s t=%u %-22s FAIL (%s)\n", spot.workload,
                        threads, spot.whatIf, check.error.c_str());
            output.failures.push_back(
                format("spot check %s t=%u %s: %s", spot.workload,
                       threads, spot.whatIf, check.error.c_str()));
            continue;
        }
        std::printf("  %-6s t=%u %-22s projected %8llu  real %8llu  "
                    "error %+.2f%%  %s\n",
                    spot.workload, threads, spot.whatIf,
                    static_cast<unsigned long long>(check.projected),
                    static_cast<unsigned long long>(check.resimulated),
                    check.errorPercent, check.pass ? "ok" : "FAIL");
        if (!check.pass) {
            output.failures.push_back(format(
                "spot check %s t=%u %s: error %+.2f%% beyond %.1f%%",
                spot.workload, threads, spot.whatIf, check.errorPercent,
                tolerance));
        }
    }

    JsonWriter writer;
    writer.beginObject();
    writer.field("schema", "sdsp-bench-critpath-v1");
    writer.field("scale", run.scale);
    writer.field("spotTolerancePercent", tolerance);
    writer.field("points",
                 std::uint64_t{workloads.size() * kCritRecorded});
    writer.field("inexact", std::uint64_t{inexact});
    writer.field("spot_check_failures",
                 std::uint64_t{output.failures.size()});
    writer.key("runs").beginArray();
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t v = 0; v < kCritRecorded; ++v) {
            const PointOutcome &point = run.outcomes[w][v];
            const Cycle measured = run.results[w][v].cycles;
            writer.beginObject();
            writer.field("workload", workloads[w]->name());
            writer.field("threads", variants[v].config.numThreads);
            writer.field("measuredCycles", measured);
            if (point.status != JobStatus::Ok) {
                writer.field("exact", false);
                writer.field("status", jobStatusName(point.status));
                writer.field("error", point.error);
                writer.endObject();
                continue;
            }
            writer.field("criticalPath", point.baseline.cycles);
            writer.field("exact", true);
            writer.field("nodes", std::uint64_t{point.nodes});
            writer.field("edges", std::uint64_t{point.edges});
            writer.field("buildMs", point.buildMs);
            writer.field("meanRelaxMs", point.meanRelaxMs);
            writer.key("breakdown").beginObject();
            for (unsigned e = 0; e < kNumEdgeClasses; ++e) {
                if (!point.baseline.breakdown[e])
                    continue;
                writer.field(edgeClassName(static_cast<EdgeClass>(e)),
                             point.baseline.breakdown[e]);
            }
            writer.endObject();
            writer.key("whatIf").beginArray();
            for (std::size_t i = 0; i < point.projections.size(); ++i) {
                const RelaxResult &projection = point.projections[i];
                const Cycle cycles = projection.cycles;
                writer.beginObject();
                writer.field("name", experiment.whatIfs[i].name);
                writer.field("cycles", cycles);
                writer.field("confidence",
                             confidenceName(projection.confidence));
                writer.field("speedup",
                             cycles ? static_cast<double>(measured) /
                                          static_cast<double>(cycles)
                                    : 0.0);
                writer.endObject();
            }
            writer.endArray();
            writer.endObject();
        }
    }
    writer.endArray();
    writer.key("spotChecks").beginArray();
    for (std::size_t c = 0; c < checks.size(); ++c) {
        const Check &check = checks[c];
        writer.beginObject();
        writer.field("workload", kSpotChecks[c].workload);
        writer.field("threads", threads);
        writer.field("whatIf", kSpotChecks[c].whatIf);
        writer.field("projected", check.projected);
        writer.field("resimulated", check.resimulated);
        writer.field("errorPercent", check.errorPercent);
        writer.field("gated", true);
        writer.field("scale", run.scale);
        writer.field("tolerancePercent", tolerance);
        writer.field("pass", check.pass);
        if (!check.error.empty())
            writer.field("error", check.error);
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
    output.json = writer.str();
    return output;
}

void
addCritWhatIf(std::vector<Experiment> &registry)
{
    std::vector<NamedWhatIf> what_ifs = critWhatIfs();
    std::vector<Variant> variants = critVariants(what_ifs);
    registry.push_back(
        {"crit_whatif", "Critical-path what-ifs (DESIGN.md section 10)",
         "every benchmark recorded at 1 and 4 threads, six machine "
         "changes projected from each dependence graph, three "
         "projections re-simulated",
         "every critical path equals the measured cycle count; the "
         "spot-checked projections land within 5% of their "
         "re-simulations at the golden scale (wider above it)",
         allWorkloads(), std::move(variants), reportCritWhatIf,
         std::move(what_ifs)});
}

/** Deduplicating accumulator of experiment points. */
class GridBuilder
{
  public:
    /** Start from @p grid, whose points are already distinct. */
    explicit GridBuilder(PaperGrid grid) : grid_(std::move(grid))
    {
        for (std::size_t i = 0; i < grid_.points.size(); ++i) {
            const PaperGridPoint &point = grid_.points[i];
            index_.emplace(key(*point.workload, point.config), i);
        }
    }

    /** Submit every point of @p experiment under its id: variants
     *  outer, workloads inner. */
    void
    add(const Experiment &experiment)
    {
        for (const Variant &variant : experiment.variants) {
            for (const Workload *workload : experiment.workloads) {
                ++grid_.submitted;
                auto [it, inserted] = index_.try_emplace(
                    key(*workload, variant.config), grid_.points.size());
                // Route every point through the assembly cache so the
                // static bounds pass and the sweep share one build
                // per (benchmark, threads, scale).
                if (inserted) {
                    grid_.points.push_back(
                        {&cachedWorkload(*workload), variant.config, {},
                         experiment.id + "/" + variant.name});
                }
                PaperGridPoint &point = grid_.points[it->second];
                point.record |= variant.record;
                if (point.experiments.empty() ||
                    point.experiments.back() != experiment.id)
                    point.experiments.push_back(experiment.id);
            }
        }
    }

    /** grid().points index of each of @p experiment's points. */
    std::vector<std::vector<std::size_t>>
    indices(const Experiment &experiment) const
    {
        std::vector<std::vector<std::size_t>> rows;
        for (const Workload *workload : experiment.workloads) {
            std::vector<std::size_t> row;
            for (const Variant &variant : experiment.variants)
                row.push_back(index_.at(key(*workload, variant.config)));
            rows.push_back(std::move(row));
        }
        return rows;
    }

    PaperGrid &grid() { return grid_; }

  private:
    static std::string
    key(const Workload &workload, const MachineConfig &config)
    {
        return workload.name() + "\n" + configKey(config);
    }

    PaperGrid grid_;
    /** (benchmark, configKey) -> index into grid_.points. */
    std::map<std::string, std::size_t> index_;
};

/** The paper-grid half of --only: a tag or the benchmark name of
 *  @p point contains @p filter. */
bool
matchesFilter(const PaperGridPoint &point, const std::string &filter)
{
    for (const std::string &experiment : point.experiments) {
        if (experiment.find(filter) != std::string::npos)
            return true;
    }
    return point.workload->name().find(filter) != std::string::npos;
}

/**
 * The 12 figure entries, whose points are the paper grid. Kept apart
 * from the full registry so that buildPaperGrid() does not reach the
 * reports that run their own simulations: in a link-time-optimized
 * program that only enumerates the grid (perfbench), those extra
 * callers of the cycle loop change how it is inlined and slow it.
 */
const std::vector<Experiment> &
figureExperiments()
{
    static const std::vector<Experiment> figures = [] {
        std::vector<Experiment> all;
        addFigures(all, BenchmarkGroup::LivermoreLoops);
        addFigures(all, BenchmarkGroup::GroupII);
        return all;
    }();
    return figures;
}

} // namespace

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> registry = [] {
        std::vector<Experiment> all = figureExperiments();
        addTables(all);
        addAblations(all);
        addCritWhatIf(all);
        return all;
    }();
    return registry;
}

PaperGrid
buildPaperGrid()
{
    GridBuilder builder(PaperGrid{});
    for (const Experiment &experiment : figureExperiments())
        builder.add(experiment);
    return std::move(builder.grid());
}

Selection
selectExperiments(const std::string &filter)
{
    PaperGrid paper = buildPaperGrid();
    if (!filter.empty()) {
        auto unmatched = std::remove_if(
            paper.points.begin(), paper.points.end(),
            [&](const PaperGridPoint &point) {
                return !matchesFilter(point, filter);
            });
        paper.points.erase(unmatched, paper.points.end());
        if (paper.points.empty())
            paper.submitted = 0;
    }

    GridBuilder builder(std::move(paper));
    Selection selection;
    // experiments() begins with the figure entries.
    const std::size_t figures = figureExperiments().size();
    const std::vector<Experiment> &registry = experiments();
    for (std::size_t e = 0; e < registry.size(); ++e) {
        const Experiment &experiment = registry[e];
        bool figure = e < figures;
        bool selected = filter.empty()
                            ? figure
                            : experiment.id.find(filter) !=
                                  std::string::npos;
        if (!selected)
            continue;
        // A selected figure's points all carry its id as a tag, so
        // the paper-grid filter above already kept them.
        if (!figure)
            builder.add(experiment);
        selection.experiments.push_back(
            {&experiment, builder.indices(experiment)});
    }
    selection.grid = std::move(builder.grid());
    return selection;
}

} // namespace bench
} // namespace sdsp
