/**
 * @file
 * Watching the pipeline work: runs a tiny two-thread program with the
 * per-cycle event trace enabled, printing fetches, commits and
 * branch-misprediction squashes as they happen — then a summary of
 * where the cycles went.
 *
 *   $ ./build/examples/pipeline_trace
 */

#include <cstdio>
#include <iostream>

#include "asm/builder.hh"
#include "core/processor.hh"

int
main()
{
    using namespace sdsp;

    // Two threads; each sums tid+1 ten times into cells[tid].
    ProgramBuilder b;
    b.array("cells", 2);
    b.tid(2);
    b.addi(3, 2, 1);  // value = tid + 1
    b.ldi(4, 10);     // iterations
    b.ldi(5, 0);      // accumulator
    b.label("loop");
    b.add(5, 5, 3);
    b.addi(4, 4, -1);
    b.bne(4, 0, "loop");
    b.la(6, "cells");
    b.slli(7, 2, 3);
    b.add(6, 6, 7);
    b.st(5, 0, 6);
    b.halt();
    Program prog = b.finish();

    MachineConfig cfg;
    cfg.numThreads = 2;

    Processor cpu(cfg, prog);
    TextTraceSink trace(std::cout);
    cpu.setTraceSink(&trace);
    std::printf("--- per-cycle pipeline events ---\n");
    SimResult sim = cpu.run();
    std::printf("--- end of trace ---\n\n");

    if (!sim.finished)
        return 1;

    std::printf("cells = {%llu, %llu} (expected {10, 20})\n",
                static_cast<unsigned long long>(cpu.memory().read(0)),
                static_cast<unsigned long long>(cpu.memory().read(8)));
    std::printf("cycles=%llu committed=%llu IPC=%.2f\n",
                static_cast<unsigned long long>(sim.cycles),
                static_cast<unsigned long long>(
                    sim.committedInstructions),
                sim.ipc());

    StatsRegistry stats;
    cpu.reportStats(stats);
    std::printf("\nfull statistics dump:\n%s",
                stats.toString().c_str());
    return 0;
}
