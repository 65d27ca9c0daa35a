#include "isa/interpreter.hh"

#include "common/logging.hh"
#include "isa/semantics.hh"

namespace sdsp
{

Interpreter::Interpreter(const Program &program, unsigned num_threads,
                         unsigned regs_per_thread)
    : prog(program),
      numThreads(num_threads),
      regsPerThread(regs_per_thread
                        ? regs_per_thread
                        : kNumArchRegs / (num_threads ? num_threads : 1)),
      regs(static_cast<std::size_t>(num_threads) * regsPerThread, 0),
      threads(num_threads)
{
    sdsp_assert(num_threads >= 1 && num_threads <= kNumArchRegs,
                "bad thread count %u", num_threads);
    sdsp_assert(regsPerThread >= 1 && regsPerThread <= kNumArchRegs,
                "bad register partition %u", regsPerThread);
    mem.assign(prog.memorySize, 0);
    sdsp_assert(prog.data.size() <= mem.size(),
                "program data larger than its declared memory size");
    std::copy(prog.data.begin(), prog.data.end(), mem.begin());
    for (unsigned tid = 0; tid < threads.size(); ++tid)
        threads[tid].pc = prog.entryOf(static_cast<ThreadId>(tid));
}

PhysRegIndex
Interpreter::physReg(ThreadId tid, RegIndex reg) const
{
    sdsp_assert(reg < regsPerThread,
                "thread %u names register r%u but its static partition "
                "has only %u registers",
                unsigned{tid}, unsigned{reg}, regsPerThread);
    return static_cast<PhysRegIndex>(tid * regsPerThread + reg);
}

RegVal
Interpreter::reg(ThreadId tid, RegIndex reg) const
{
    return regs[physReg(tid, reg)];
}

void
Interpreter::setReg(ThreadId tid, RegIndex reg, RegVal value)
{
    regs[physReg(tid, reg)] = value;
}

bool
Interpreter::finished() const
{
    for (const auto &thread : threads) {
        if (!thread.halted)
            return false;
    }
    return true;
}

bool
Interpreter::anyFaulted() const
{
    for (const auto &thread : threads) {
        if (thread.faulted)
            return true;
    }
    return false;
}

void
Interpreter::fault(ThreadId tid, const std::string &why)
{
    ThreadState &thread = threads[tid];
    thread.faulted = true;
    thread.halted = true;
    if (faultMsg.empty()) {
        faultMsg = format("thread %u at pc %u: %s", unsigned{tid},
                          thread.pc, why.c_str());
    }
}

std::uint64_t
Interpreter::totalInstructionCount() const
{
    std::uint64_t total = 0;
    for (const auto &thread : threads)
        total += thread.instructions;
    return total;
}

void
Interpreter::stepThread(ThreadId tid)
{
    ThreadState &thread = threads[tid];
    if (thread.halted)
        return;

    if (thread.pc >= prog.size()) {
        fault(tid, "instruction fetch past the end of the image");
        return;
    }
    Instruction inst = prog.fetch(thread.pc);
    InstAddr pc = thread.pc;
    ++thread.instructions;
    ++opClassCounts[static_cast<unsigned>(inst.info().fuClass)];

    RegVal s1 = inst.readsRs1() ? reg(tid, inst.rs1) : 0;
    RegVal s2 = inst.readsRs2() ? reg(tid, inst.rs2) : 0;

    InstAddr next_pc = pc + 1;

    if (inst.isHalt()) {
        thread.halted = true;
        return;
    } else if (inst.isCondBranch()) {
        if (evalBranchTaken(inst, s1, s2))
            next_pc = inst.staticTarget(pc);
    } else if (inst.isDirectJump()) {
        if (inst.writesRd())
            setReg(tid, inst.rd, evalLinkValue(pc));
        next_pc = inst.staticTarget(pc);
    } else if (inst.isIndirectJump()) {
        next_pc = static_cast<InstAddr>(s1);
    } else if (inst.isLoad()) {
        Addr addr = evalEffectiveAddress(inst, s1);
        if (addr % 8 != 0 || addr + 8 > mem.size()) {
            fault(tid, format("misaligned or out-of-bounds load at "
                              "0x%x",
                              addr));
            return;
        }
        setReg(tid, inst.rd, readWord(mem, addr));
    } else if (inst.isStore()) {
        Addr addr = evalEffectiveAddress(inst, s1);
        if (addr % 8 != 0 || addr + 8 > mem.size()) {
            fault(tid, format("misaligned or out-of-bounds store at "
                              "0x%x",
                              addr));
            return;
        }
        writeWord(mem, addr, s2);
    } else if (inst.op == Opcode::NOP || inst.op == Opcode::SPIN) {
        // No architectural effect.
    } else {
        setReg(tid, inst.rd,
               evalCompute(inst, s1, s2, tid, numThreads));
    }

    thread.pc = next_pc;
}

bool
Interpreter::run(std::uint64_t max_steps)
{
    std::uint64_t steps = 0;
    while (!finished()) {
        for (unsigned tid = 0; tid < numThreads; ++tid)
            stepThread(static_cast<ThreadId>(tid));
        steps += numThreads;
        if (steps >= max_steps)
            return false;
    }
    return true;
}

} // namespace sdsp
