/**
 * @file
 * A loadable program image.
 *
 * The machine is Harvard-style at the simulator level: instruction
 * memory is an array of 32-bit words indexed by instruction address
 * (the paper assumes a perfect instruction cache), and data memory is
 * a flat byte-addressable space initialized from the image's data
 * section at address zero.
 *
 * In the paper's homogeneous-multitasking model, all threads execute
 * the same code; every thread therefore starts at the same entry point
 * and uses the TID instruction to locate its data partition.
 */

#ifndef SDSP_ISA_PROGRAM_HH
#define SDSP_ISA_PROGRAM_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace sdsp
{

/** A binary program image plus its initial data memory contents. */
struct Program
{
    /** Encoded instructions, indexed by instruction address. */
    std::vector<InstWord> code;

    /** Initial contents of data memory, loaded at address 0. */
    std::vector<std::uint8_t> data;

    /**
     * Total bytes of data memory the program requires (>= data.size();
     * the remainder is zero-initialized scratch space).
     */
    std::uint32_t memorySize = 0;

    /** Entry instruction address for every thread. */
    InstAddr entry = 0;

    /**
     * Optional per-thread entry points. Empty for normal programs
     * (every thread starts at `entry`, the homogeneous-multitasking
     * model); a trace-stream cocktail flattens one instruction stream
     * per hardware thread into a single image and starts thread t at
     * threadEntries[t]. When non-empty it must provide an entry for
     * every resident thread.
     */
    std::vector<InstAddr> threadEntries;

    /** Entry instruction address of thread @p tid. */
    InstAddr
    entryOf(ThreadId tid) const
    {
        return tid < threadEntries.size() ? threadEntries[tid] : entry;
    }

    /** Number of instructions. */
    std::size_t size() const { return code.size(); }

    /** Decode the instruction at index @p pc. Fatal if out of range. */
    Instruction
    fetch(InstAddr pc) const
    {
        sdsp_assert(pc < code.size(), "instruction fetch out of range: %u",
                    pc);
        return Instruction::decode(code[pc]);
    }
};

/**
 * Does the 8-byte word at @p addr lie inside a memory of @p size
 * bytes? Computed in 64 bits: in the 32-bit Addr type, addr + 8 wraps
 * to a small number for the top eight addresses.
 */
inline bool
wordInRange(Addr addr, std::size_t size)
{
    return std::uint64_t{addr} + 8 <= size;
}

/**
 * Why an 8-byte load (or, with @p store, store) at @p addr faults when
 * the address is misaligned or outside memory: the interpreter reports
 * it, and the pipeline when such an access commits.
 */
inline std::string
badAccessText(bool store, Addr addr)
{
    return format("misaligned or out-of-bounds %s at 0x%x",
                  store ? "store" : "load", addr);
}

/** Read a 64-bit little-endian word from a byte buffer. */
inline std::uint64_t
readWord(const std::vector<std::uint8_t> &mem, Addr addr)
{
    sdsp_assert(addr % 8 == 0, "misaligned 8-byte read at 0x%x", addr);
    sdsp_assert(wordInRange(addr, mem.size()), "read out of range at 0x%x",
                addr);
    std::uint64_t value;
    std::memcpy(&value, mem.data() + addr, 8);
    return value;
}

/** Write a 64-bit little-endian word to a byte buffer. */
inline void
writeWord(std::vector<std::uint8_t> &mem, Addr addr, std::uint64_t value)
{
    sdsp_assert(addr % 8 == 0, "misaligned 8-byte write at 0x%x", addr);
    sdsp_assert(wordInRange(addr, mem.size()), "write out of range at 0x%x",
                addr);
    std::memcpy(mem.data() + addr, &value, 8);
}

/** Read a double stored as its bit pattern. */
inline double
readDouble(const std::vector<std::uint8_t> &mem, Addr addr)
{
    std::uint64_t raw = readWord(mem, addr);
    double value;
    std::memcpy(&value, &raw, 8);
    return value;
}

/** Write a double as its bit pattern. */
inline void
writeDouble(std::vector<std::uint8_t> &mem, Addr addr, double value)
{
    std::uint64_t raw;
    std::memcpy(&raw, &value, 8);
    writeWord(mem, addr, raw);
}

} // namespace sdsp

#endif // SDSP_ISA_PROGRAM_HH
