#include "isa/semantics.hh"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.hh"

namespace sdsp
{

namespace
{

using S64 = std::int64_t;
using U64 = std::uint64_t;

double
asDouble(RegVal raw)
{
    return std::bit_cast<double>(raw);
}

RegVal
fromDouble(double value)
{
    return std::bit_cast<RegVal>(value);
}

/** Zero-extended 10-bit immediate for the logical immediates. */
U64
uimm(const Instruction &inst)
{
    return static_cast<U64>(static_cast<std::uint32_t>(inst.imm)) &
           0x3ffu;
}

/** Signed quotient, RISC-V style: x/0 = 0 and INT64_MIN/-1 =
 *  INT64_MIN (the one quotient that does not fit). */
RegVal
signedQuotient(S64 a, S64 b)
{
    if (b == 0)
        return 0;
    if (b == -1)
        return U64{0} - static_cast<U64>(a);
    return static_cast<RegVal>(a / b);
}

/** Signed remainder, RISC-V style: x%0 = x and INT64_MIN%-1 = 0. */
RegVal
signedRemainder(S64 a, S64 b)
{
    if (b == 0)
        return static_cast<RegVal>(a);
    if (b == -1)
        return 0;
    return static_cast<RegVal>(a % b);
}

/** Truncating double-to-integer conversion; NaN and values outside
 *  the int64 range give INT64_MIN, as x86's cvttsd2si does. */
RegVal
truncateToInt(double value)
{
    constexpr double kLimit = 9223372036854775808.0; // 2^63
    if (!(value >= -kLimit && value < kLimit))
        return static_cast<RegVal>(std::numeric_limits<S64>::min());
    return static_cast<RegVal>(static_cast<S64>(value));
}

} // namespace

// Integer arithmetic wraps: it is done in U64, whose overflow is
// defined, and gives the two's-complement bits of the signed result.
RegVal
evalCompute(const Instruction &inst, RegVal s1, RegVal s2, ThreadId tid,
            unsigned nthreads)
{
    auto a = static_cast<S64>(s1);
    auto b = static_cast<S64>(s2);
    S64 imm = inst.imm;

    switch (inst.op) {
      case Opcode::ADD: return s1 + s2;
      case Opcode::SUB: return s1 - s2;
      case Opcode::AND: return s1 & s2;
      case Opcode::OR: return s1 | s2;
      case Opcode::XOR: return s1 ^ s2;
      case Opcode::SLL: return s1 << (s2 & 63);
      case Opcode::SRL: return s1 >> (s2 & 63);
      case Opcode::SRA: return static_cast<RegVal>(a >> (b & 63));
      case Opcode::SLT: return a < b ? 1 : 0;
      case Opcode::SLTU: return s1 < s2 ? 1 : 0;
      case Opcode::ADDI: return s1 + static_cast<U64>(imm);
      case Opcode::ANDI: return s1 & uimm(inst);
      case Opcode::ORI: return s1 | uimm(inst);
      case Opcode::XORI: return s1 ^ uimm(inst);
      case Opcode::SLTI: return a < imm ? 1 : 0;
      case Opcode::SLLI: return s1 << (imm & 63);
      case Opcode::SRLI: return s1 >> (imm & 63);
      case Opcode::SRAI: return static_cast<RegVal>(a >> (imm & 63));
      case Opcode::LDI: return static_cast<RegVal>(imm);
      case Opcode::LUI:
        return static_cast<RegVal>(static_cast<std::uint32_t>(inst.imm))
               << kImmBits;
      case Opcode::TID: return tid;
      case Opcode::NTH: return nthreads;
      case Opcode::MUL: return s1 * s2;
      case Opcode::DIV: return signedQuotient(a, b);
      case Opcode::REM: return signedRemainder(a, b);
      case Opcode::FADD: return fromDouble(asDouble(s1) + asDouble(s2));
      case Opcode::FSUB: return fromDouble(asDouble(s1) - asDouble(s2));
      case Opcode::FMUL: return fromDouble(asDouble(s1) * asDouble(s2));
      case Opcode::FDIV: return fromDouble(asDouble(s1) / asDouble(s2));
      case Opcode::FSQRT: return fromDouble(std::sqrt(asDouble(s1)));
      case Opcode::FNEG: return fromDouble(-asDouble(s1));
      case Opcode::FABS: return fromDouble(std::fabs(asDouble(s1)));
      case Opcode::FCMPLT: return asDouble(s1) < asDouble(s2) ? 1 : 0;
      case Opcode::FCMPLE: return asDouble(s1) <= asDouble(s2) ? 1 : 0;
      case Opcode::FCMPEQ: return asDouble(s1) == asDouble(s2) ? 1 : 0;
      case Opcode::CVTIF: return fromDouble(static_cast<double>(a));
      case Opcode::CVTFI: return truncateToInt(asDouble(s1));
      default:
        panic("evalCompute called on non-compute opcode %s",
              opName(inst.op));
    }
}

bool
evalBranchTaken(const Instruction &inst, RegVal s1, RegVal s2)
{
    auto a = static_cast<S64>(s1);
    auto b = static_cast<S64>(s2);
    switch (inst.op) {
      case Opcode::BEQ: return a == b;
      case Opcode::BNE: return a != b;
      case Opcode::BLT: return a < b;
      case Opcode::BGE: return a >= b;
      default:
        panic("evalBranchTaken called on non-branch opcode %s",
              opName(inst.op));
    }
}

Addr
evalEffectiveAddress(const Instruction &inst, RegVal base)
{
    return static_cast<Addr>(base + static_cast<U64>(inst.imm));
}

} // namespace sdsp
