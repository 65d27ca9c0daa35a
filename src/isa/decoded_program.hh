/**
 * @file
 * A program plus its pre-decoded instruction text, shareable across
 * processors.
 *
 * Every Processor needs the program's words decoded into Instruction
 * records before fetch can read them. The Program constructor of
 * Processor decodes its own copy; a caller that runs many machine
 * variants of one program can instead decode it once and hand every
 * processor the same immutable table, which removes the
 * per-processor decode pass and the per-processor copy of the text.
 *
 * A DecodedProgram is immutable after decode(): processors hold it by
 * shared_ptr<const>, so its lifetime outlives any of them and the
 * fetch unit's reference into `code` stays valid for the whole run.
 */

#ifndef SDSP_ISA_DECODED_PROGRAM_HH
#define SDSP_ISA_DECODED_PROGRAM_HH

#include <memory>
#include <vector>

#include "isa/instruction.hh"
#include "isa/program.hh"

namespace sdsp
{

/** An assembled program with its decoded instruction table. */
struct DecodedProgram
{
    Program program;
    /** program.code decoded one-to-one (code[i] = decode(code[i])). */
    std::vector<Instruction> code;

    /** Decode @p prog once, ready for any number of processors. */
    static std::shared_ptr<const DecodedProgram> decode(Program prog);

    /**
     * Fatal unless every register the program names fits the
     * per-thread partition [0, budget). The Processor constructor
     * runs it for its configuration's thread count.
     */
    void checkRegisterPartition(unsigned num_threads,
                                unsigned budget) const;
};

} // namespace sdsp

#endif // SDSP_ISA_DECODED_PROGRAM_HH
