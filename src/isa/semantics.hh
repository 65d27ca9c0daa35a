/**
 * @file
 * Architectural semantics of each opcode, shared by the reference
 * interpreter and the cycle-level pipeline so that the two can never
 * disagree about what an instruction computes.
 *
 * Conventions:
 *  - Registers hold 64-bit values; integer ops treat them as signed
 *    two's-complement, FP ops as IEEE double bit patterns.
 *  - ADDI/SLTI/LDI/LD/ST sign-extend their 10-bit immediate;
 *    ANDI/ORI/XORI zero-extend it so that LUI+ORI composes 27-bit
 *    constants; shift immediates use the low 6 bits.
 *  - Integer add, subtract and multiply wrap modulo 2^64.
 *  - Integer divide by zero yields 0 (quotient) / the dividend
 *    (remainder), and INT64_MIN / -1 yields INT64_MIN with remainder
 *    0, as in RISC-V: a hardware unit that never traps.
 *  - CVTFI truncates toward zero; NaN and out-of-range values give
 *    INT64_MIN.
 */

#ifndef SDSP_ISA_SEMANTICS_HH
#define SDSP_ISA_SEMANTICS_HH

#include "common/types.hh"
#include "isa/instruction.hh"

namespace sdsp
{

/**
 * Compute the result value of a register-writing, non-memory,
 * non-control instruction.
 *
 * @param inst     The instruction.
 * @param s1       Value of rs1 (ignored when not read).
 * @param s2       Value of rs2 (ignored when not read).
 * @param tid      Executing hardware thread (for TID).
 * @param nthreads Number of resident threads (for NTH).
 * @return The value to write to rd.
 */
RegVal evalCompute(const Instruction &inst, RegVal s1, RegVal s2,
                   ThreadId tid, unsigned nthreads);

/**
 * Evaluate a conditional branch.
 *
 * @return True iff the branch is taken.
 */
bool evalBranchTaken(const Instruction &inst, RegVal s1, RegVal s2);

/** Effective byte address of a load or store. */
Addr evalEffectiveAddress(const Instruction &inst, RegVal base);

/** Link value written by JAL at instruction index @p pc. */
inline RegVal
evalLinkValue(InstAddr pc)
{
    return static_cast<RegVal>(pc) + 1;
}

} // namespace sdsp

#endif // SDSP_ISA_SEMANTICS_HH
