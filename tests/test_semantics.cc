/**
 * @file
 * Unit tests for the architectural semantics shared by the
 * interpreter and the pipeline.
 */

#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "isa/semantics.hh"

namespace sdsp
{
namespace
{

RegVal
fp(double value)
{
    return std::bit_cast<RegVal>(value);
}

double
asD(RegVal raw)
{
    return std::bit_cast<double>(raw);
}

/** INT64_MIN and INT64_MAX as register values. */
constexpr RegVal kMin = RegVal{1} << 63;
constexpr RegVal kMax = kMin - 1;

RegVal
run(Opcode op, RegVal s1 = 0, RegVal s2 = 0, std::int32_t imm = 0)
{
    Instruction inst;
    inst.op = op;
    inst.imm = imm;
    return evalCompute(inst, s1, s2, /*tid=*/2, /*nthreads=*/4);
}

TEST(IntOps, Arithmetic)
{
    EXPECT_EQ(run(Opcode::ADD, 3, 4), 7u);
    EXPECT_EQ(static_cast<std::int64_t>(run(Opcode::SUB, 3, 4)), -1);
    EXPECT_EQ(run(Opcode::MUL, 7, 6), 42u);
    EXPECT_EQ(run(Opcode::AND, 0b1100, 0b1010), 0b1000u);
    EXPECT_EQ(run(Opcode::OR, 0b1100, 0b1010), 0b1110u);
    EXPECT_EQ(run(Opcode::XOR, 0b1100, 0b1010), 0b0110u);
    // Two's-complement wrap, not undefined behaviour.
    EXPECT_EQ(run(Opcode::ADD, kMax, 1), kMin);
    EXPECT_EQ(run(Opcode::SUB, kMin, 1), kMax);
    EXPECT_EQ(run(Opcode::ADDI, kMax, 0, 1), kMin);
    EXPECT_EQ(run(Opcode::MUL, kMax, 2), static_cast<RegVal>(-2));
}

TEST(IntOps, ShiftsAndCompares)
{
    EXPECT_EQ(run(Opcode::SLL, 1, 8), 256u);
    EXPECT_EQ(run(Opcode::SRL, 256, 8), 1u);
    EXPECT_EQ(static_cast<std::int64_t>(
                  run(Opcode::SRA, static_cast<RegVal>(-256), 4)),
              -16);
    EXPECT_EQ(run(Opcode::SLT, static_cast<RegVal>(-1), 0), 1u);
    EXPECT_EQ(run(Opcode::SLTU, static_cast<RegVal>(-1), 0), 0u);
    // Shift amounts use the low 6 bits.
    EXPECT_EQ(run(Opcode::SLL, 1, 64), 1u);
}

TEST(IntOps, Immediates)
{
    EXPECT_EQ(static_cast<std::int64_t>(run(Opcode::ADDI, 10, 0, -3)),
              7);
    EXPECT_EQ(run(Opcode::SLTI, 5, 0, 6), 1u);
    EXPECT_EQ(run(Opcode::SLLI, 3, 0, 4), 48u);
    EXPECT_EQ(run(Opcode::LDI, 0, 0, -100),
              static_cast<RegVal>(-100));
}

TEST(IntOps, LogicalImmediatesZeroExtend)
{
    // ORI with the raw field 0x3FF must OR in 1023, not sign-extend
    // to -1.
    EXPECT_EQ(run(Opcode::ORI, 0, 0, 0x3FF), 1023u);
    EXPECT_EQ(run(Opcode::ANDI, ~0ull, 0, 0x3FF), 1023u);
    EXPECT_EQ(run(Opcode::XORI, 0, 0, 0x200), 512u);
}

TEST(IntOps, LuiComposesWithOri)
{
    RegVal high = run(Opcode::LUI, 0, 0, 0x1234);
    EXPECT_EQ(high, static_cast<RegVal>(0x1234) << 10);
    EXPECT_EQ(run(Opcode::ORI, high, 0, 0x3F),
              (static_cast<RegVal>(0x1234) << 10) | 0x3F);
}

TEST(IntOps, DivideAndRemainder)
{
    EXPECT_EQ(run(Opcode::DIV, 42, 5), 8u);
    EXPECT_EQ(run(Opcode::REM, 42, 5), 2u);
    EXPECT_EQ(static_cast<std::int64_t>(
                  run(Opcode::DIV, static_cast<RegVal>(-7), 2)),
              -3);
    // Hardware-style divide-by-zero: no trap.
    EXPECT_EQ(run(Opcode::DIV, 42, 0), 0u);
    EXPECT_EQ(run(Opcode::REM, 42, 0), 42u);
    // The one quotient that overflows, RISC-V style: no trap either.
    const RegVal minus_one = static_cast<RegVal>(-1);
    EXPECT_EQ(run(Opcode::DIV, kMin, minus_one), kMin);
    EXPECT_EQ(run(Opcode::REM, kMin, minus_one), 0u);
    EXPECT_EQ(static_cast<std::int64_t>(run(Opcode::DIV, 7, minus_one)),
              -7);
}

TEST(ThreadOps, TidAndNth)
{
    EXPECT_EQ(run(Opcode::TID), 2u);
    EXPECT_EQ(run(Opcode::NTH), 4u);
}

TEST(FpOps, Arithmetic)
{
    EXPECT_DOUBLE_EQ(asD(run(Opcode::FADD, fp(1.5), fp(2.25))), 3.75);
    EXPECT_DOUBLE_EQ(asD(run(Opcode::FSUB, fp(1.5), fp(2.25))), -0.75);
    EXPECT_DOUBLE_EQ(asD(run(Opcode::FMUL, fp(3.0), fp(0.5))), 1.5);
    EXPECT_DOUBLE_EQ(asD(run(Opcode::FDIV, fp(1.0), fp(4.0))), 0.25);
    EXPECT_DOUBLE_EQ(asD(run(Opcode::FSQRT, fp(9.0))), 3.0);
    EXPECT_DOUBLE_EQ(asD(run(Opcode::FNEG, fp(2.0))), -2.0);
    EXPECT_DOUBLE_EQ(asD(run(Opcode::FABS, fp(-2.0))), 2.0);
}

TEST(FpOps, Compares)
{
    EXPECT_EQ(run(Opcode::FCMPLT, fp(1.0), fp(2.0)), 1u);
    EXPECT_EQ(run(Opcode::FCMPLT, fp(2.0), fp(2.0)), 0u);
    EXPECT_EQ(run(Opcode::FCMPLE, fp(2.0), fp(2.0)), 1u);
    EXPECT_EQ(run(Opcode::FCMPEQ, fp(2.0), fp(2.0)), 1u);
    EXPECT_EQ(run(Opcode::FCMPEQ, fp(2.0), fp(2.1)), 0u);
}

TEST(FpOps, Conversions)
{
    EXPECT_DOUBLE_EQ(asD(run(Opcode::CVTIF, static_cast<RegVal>(-3))),
                     -3.0);
    EXPECT_EQ(static_cast<std::int64_t>(
                  run(Opcode::CVTFI, fp(-3.75))),
              -3); // truncation toward zero
    // NaN and out-of-range values give INT64_MIN.
    EXPECT_EQ(run(Opcode::CVTFI, fp(std::nan(""))), kMin);
    EXPECT_EQ(run(Opcode::CVTFI, fp(1e300)), kMin);
    EXPECT_EQ(run(Opcode::CVTFI, fp(-1e300)), kMin);
    EXPECT_EQ(run(Opcode::CVTFI, fp(-9223372036854775808.0)), kMin);
}

TEST(Branches, Conditions)
{
    auto taken = [](Opcode op, std::int64_t a, std::int64_t b) {
        Instruction inst;
        inst.op = op;
        return evalBranchTaken(inst, static_cast<RegVal>(a),
                               static_cast<RegVal>(b));
    };
    EXPECT_TRUE(taken(Opcode::BEQ, 5, 5));
    EXPECT_FALSE(taken(Opcode::BEQ, 5, 6));
    EXPECT_TRUE(taken(Opcode::BNE, 5, 6));
    EXPECT_TRUE(taken(Opcode::BLT, -1, 0));
    EXPECT_FALSE(taken(Opcode::BLT, 0, 0));
    EXPECT_TRUE(taken(Opcode::BGE, 0, 0));
    EXPECT_FALSE(taken(Opcode::BGE, -1, 0));
}

TEST(Memory, EffectiveAddress)
{
    Instruction load = Instruction::makeI(Opcode::LD, 1, 2, -8);
    EXPECT_EQ(evalEffectiveAddress(load, 100), 92u);
    Instruction store = Instruction::makeB(Opcode::ST, 2, 1, 16);
    EXPECT_EQ(evalEffectiveAddress(store, 100), 116u);
}

TEST(Link, JalLinkValue)
{
    EXPECT_EQ(evalLinkValue(41), 42u);
}

TEST(Semantics, NonComputeOpcodePanics)
{
    Instruction inst = Instruction::makeB(Opcode::BEQ, 0, 0, 0);
    EXPECT_DEATH(evalCompute(inst, 0, 0, 0, 1), "non-compute");
    Instruction add = Instruction::makeR(Opcode::ADD, 0, 0, 0);
    EXPECT_DEATH(evalBranchTaken(add, 0, 0), "non-branch");
}

} // namespace
} // namespace sdsp
