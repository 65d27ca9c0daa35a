/**
 * @file
 * Functional reference interpreter.
 *
 * Executes a program with architectural semantics only (no timing).
 * Threads are stepped round-robin, one instruction at a time, which is
 * one legal interleaving of the machine; programs whose threads touch
 * disjoint data — or synchronize through spin flags — produce the same
 * final memory image here as on the cycle-level pipeline, which is how
 * the test suite cross-checks the pipeline's correctness and how
 * workloads validate their expected outputs.
 */

#ifndef SDSP_ISA_INTERPRETER_HH
#define SDSP_ISA_INTERPRETER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"

namespace sdsp
{

/** Architectural executor for a Program. */
class Interpreter
{
  public:
    /**
     * @param program    The program image (copied).
     * @param num_threads Resident threads.
     * @param regs_per_thread Registers in each thread's static
     *                    partition; 0 splits the 128 architectural
     *                    registers equally. Pass
     *                    MachineConfig::regsPerThread() to match a
     *                    machine's partition.
     */
    Interpreter(const Program &program, unsigned num_threads,
                unsigned regs_per_thread = 0);

    /**
     * Run until every thread has executed HALT.
     *
     * @param max_steps Abort guard (total instructions, all threads).
     * @return True iff all threads halted within the budget.
     */
    bool run(std::uint64_t max_steps = 50'000'000);

    /** Execute a single instruction of thread @p tid (if not halted). */
    void stepThread(ThreadId tid);

    /** Has thread @p tid executed HALT? */
    bool halted(ThreadId tid) const { return threads[tid].halted; }

    /**
     * Did thread @p tid take an architectural fault (misaligned or
     * out-of-bounds access, runaway PC)? A faulted thread counts as
     * halted; its architectural state is whatever it was at the
     * fault. This keeps invalid programs — fuzz-minimization
     * candidates in particular — a reportable outcome instead of a
     * process abort.
     */
    bool faulted(ThreadId tid) const { return threads[tid].faulted; }

    /** Did any thread fault? */
    bool anyFaulted() const;

    /** Description of the first fault (empty when none). */
    const std::string &faultMessage() const { return faultMsg; }

    /** Have all threads halted? */
    bool finished() const;

    /** Architectural register @p reg of thread @p tid. */
    RegVal reg(ThreadId tid, RegIndex reg) const;

    /** Set architectural register @p reg of thread @p tid. */
    void setReg(ThreadId tid, RegIndex reg, RegVal value);

    /** Current PC of thread @p tid. */
    InstAddr pc(ThreadId tid) const { return threads[tid].pc; }

    /** Data memory image. */
    const std::vector<std::uint8_t> &memory() const { return mem; }
    std::vector<std::uint8_t> &memory() { return mem; }

    /** Instructions executed by thread @p tid. */
    std::uint64_t
    instructionCount(ThreadId tid) const
    {
        return threads[tid].instructions;
    }

    /** Total instructions executed by all threads. */
    std::uint64_t totalInstructionCount() const;

    /** Registers each thread may name (by default
     *  128 / numThreads). */
    unsigned registersPerThread() const { return regsPerThread; }

    /**
     * Dynamic instruction count per functional-unit class, summed
     * over all threads (workload characterization).
     */
    const std::array<std::uint64_t, kNumFuClasses> &
    classCounts() const
    {
        return opClassCounts;
    }

  private:
    PhysRegIndex physReg(ThreadId tid, RegIndex reg) const;

    struct ThreadState
    {
        InstAddr pc = 0;
        bool halted = false;
        bool faulted = false;
        std::uint64_t instructions = 0;
    };

    /** Halt @p tid with an architectural fault. */
    void fault(ThreadId tid, const std::string &why);

    Program prog;
    unsigned numThreads;
    unsigned regsPerThread;
    std::vector<RegVal> regs;
    std::vector<std::uint8_t> mem;
    std::vector<ThreadState> threads;
    std::string faultMsg;
    std::array<std::uint64_t, kNumFuClasses> opClassCounts{};
};

} // namespace sdsp

#endif // SDSP_ISA_INTERPRETER_HH
