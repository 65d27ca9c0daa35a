/**
 * @file
 * A guided tour of the paper's main results at reduced scale — a
 * five-minute version of the full bench suite, printing one mini
 * experiment per headline finding with the paper's claim above each.
 *
 *   $ ./build/examples/paper_tour [scale%]
 */

#include <cstdio>
#include <cstdlib>

#include "common/table.hh"
#include "harness/runner.hh"

namespace
{

using namespace sdsp;

unsigned g_scale = 25;

MachineConfig
machine(unsigned threads)
{
    MachineConfig cfg;
    cfg.numThreads = threads;
    return cfg;
}

Cycle
cyclesOf(const char *benchmark, const MachineConfig &cfg)
{
    RunResult result =
        runWorkload(workloadByName(benchmark), cfg, g_scale);
    requireGood(result);
    return result.cycles;
}

void
claim(const char *number, const char *text)
{
    std::printf("\n--- %s ------------------------------------\n", number);
    std::printf("paper: %s\n", text);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1)
        g_scale = static_cast<unsigned>(std::atoi(argv[1]));
    std::printf("paper tour at %u%% problem scale\n", g_scale);

    claim("1 (abstract)",
          "multithreading yields a significant gain across a range "
          "of benchmarks");
    {
        Table table({"benchmark", "1 thread", "4 threads", "speedup %"});
        for (const char *name : {"LL1", "LL7", "Water", "Laplace"}) {
            Cycle base = cyclesOf(name, machine(1));
            Cycle multi = cyclesOf(name, machine(4));
            table.beginRow();
            table.cell(std::string(name));
            table.cell(base);
            table.cell(multi);
            table.cell(speedupPercent(multi, base), 1);
        }
        std::printf("%s", table.toAscii().c_str());
    }

    claim("2 (section 5.2)",
          "LL5's cross-iteration dependency makes it the negative "
          "case, worsening with thread count");
    {
        Table table({"threads", "LL5 cycles", "speedup %"});
        Cycle base = cyclesOf("LL5", machine(1));
        for (unsigned threads : {1u, 2u, 4u, 6u}) {
            Cycle cycles = cyclesOf("LL5", machine(threads));
            table.beginRow();
            table.cell(std::uint64_t{threads});
            table.cell(cycles);
            table.cell(speedupPercent(cycles, base), 1);
        }
        std::printf("%s", table.toAscii().c_str());
    }

    claim("3 (section 5.1)",
          "the three fetch policies perform about equivalently; "
          "True Round Robin is the simplest");
    {
        Table table({"policy", "Water cycles"});
        for (auto [name, policy] :
             {std::pair{"TrueRR", FetchPolicy::TrueRoundRobin},
              std::pair{"MaskedRR", FetchPolicy::MaskedRoundRobin},
              std::pair{"CSwitch", FetchPolicy::ConditionalSwitch}}) {
            MachineConfig cfg = machine(4);
            cfg.fetchPolicy = policy;
            table.beginRow();
            table.cell(std::string(name));
            table.cell(cyclesOf("Water", cfg));
        }
        std::printf("%s", table.toAscii().c_str());
    }

    claim("4 (section 5.5)",
          "Flexible Result Commit beats committing from the lowest "
          "block only");
    {
        MachineConfig lowest = machine(4);
        lowest.commitPolicy = CommitPolicy::LowestBlockOnly;
        Table table({"benchmark", "flexible", "lowest-only", "gain %"});
        for (const char *name : {"LL2", "MPD"}) {
            Cycle flexible = cyclesOf(name, machine(4));
            Cycle strict = cyclesOf(name, lowest);
            table.beginRow();
            table.cell(std::string(name));
            table.cell(flexible);
            table.cell(strict);
            table.cell(speedupPercent(flexible, strict), 1);
        }
        std::printf("%s", table.toAscii().c_str());
    }

    claim("5 (section 6.1)",
          "software scheduling - dividing tasks judiciously - can "
          "have a great impact (LL5 rearranged)");
    {
        Table table({"variant", "4T cycles", "vs its own 1T %"});
        for (const char *name : {"LL5", "LL5sched"}) {
            Cycle base = cyclesOf(name, machine(1));
            Cycle multi = cyclesOf(name, machine(4));
            table.beginRow();
            table.cell(std::string(name));
            table.cell(multi);
            table.cell(speedupPercent(multi, base), 1);
        }
        std::printf("%s", table.toAscii().c_str());
    }

    std::printf("\ntour complete; the full suite is "
                "`./build/bench/sdsp_bench_all`\n");
    return 0;
}
