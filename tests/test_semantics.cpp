// The ISA-semantics table (arch/semantics.hpp): RISC-V corner cases pinned
// one function call at a time, the documented deviations pinned as they
// are, and a sweep that runs every FGPU_SEM_OPS entry as a one-instruction
// program on both simulator tiers and requires each lane to equal the
// table's value on the host.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/semantics.hpp"
#include "common/bits.hpp"
#include "mem/memory.hpp"
#include "vasm/assembler.hpp"
#include "vortex/cluster.hpp"
#include "vortex/jit/turbo.hpp"

namespace fgpu {
namespace {

namespace sem = arch::sem;
using arch::Op;
using sem::Opd;

constexpr uint32_t kIntMin = 0x80000000u;
constexpr uint32_t kIntMax = 0x7FFFFFFFu;
constexpr uint32_t kAllOnes = 0xFFFFFFFFu;
constexpr uint32_t kPosZero = 0x00000000u;
constexpr uint32_t kNegZero = 0x80000000u;
constexpr uint32_t kPosInf = 0x7F800000u;
constexpr uint32_t kNegInf = 0xFF800000u;
constexpr uint32_t kQNaN = 0x7FC00000u;
constexpr uint32_t kSNaN = 0x7F800001u;

// ---------------------------------------------------------------------------
// Integer corner cases
// ---------------------------------------------------------------------------

TEST(SemanticsTest, DivisionByZeroDoesNotTrap) {
  EXPECT_EQ(sem::div(7, 0), kAllOnes);
  EXPECT_EQ(sem::div(kIntMin, 0), kAllOnes);
  EXPECT_EQ(sem::divu(7, 0), kAllOnes);
  EXPECT_EQ(sem::rem(7, 0), 7u);
  EXPECT_EQ(sem::rem(static_cast<uint32_t>(-7), 0), static_cast<uint32_t>(-7));
  EXPECT_EQ(sem::remu(7, 0), 7u);
}

TEST(SemanticsTest, SignedOverflowOfDivision) {
  EXPECT_EQ(sem::div(kIntMin, kAllOnes), kIntMin);
  EXPECT_EQ(sem::rem(kIntMin, kAllOnes), 0u);
  // Unsigned division sees 0x80000000 / 0xFFFFFFFF.
  EXPECT_EQ(sem::divu(kIntMin, kAllOnes), 0u);
  EXPECT_EQ(sem::remu(kIntMin, kAllOnes), kIntMin);
}

TEST(SemanticsTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ(sem::div(static_cast<uint32_t>(-7), 2), static_cast<uint32_t>(-3));
  EXPECT_EQ(sem::rem(static_cast<uint32_t>(-7), 2), static_cast<uint32_t>(-1));
  EXPECT_EQ(sem::rem(7, static_cast<uint32_t>(-2)), 1u);
}

TEST(SemanticsTest, HighMultiplySignHandling) {
  // -1 * -1 = 1: high word 0 signed; as unsigned (2^32-1)^2 has high word
  // 0xFFFFFFFE; signed x unsigned is -(2^32-1), high word 0xFFFFFFFF.
  EXPECT_EQ(sem::mulh(kAllOnes, kAllOnes), 0u);
  EXPECT_EQ(sem::mulhu(kAllOnes, kAllOnes), 0xFFFFFFFEu);
  EXPECT_EQ(sem::mulhsu(kAllOnes, kAllOnes), kAllOnes);
  // INT_MIN * INT_MIN = 2^62.
  EXPECT_EQ(sem::mulh(kIntMin, kIntMin), 0x40000000u);
  EXPECT_EQ(sem::mulhsu(kIntMin, kIntMin), 0xC0000000u);
  EXPECT_EQ(sem::mulhu(kIntMin, kIntMin), 0x40000000u);
  EXPECT_EQ(sem::mulhsu(2, kAllOnes), 1u);
  EXPECT_EQ(sem::mul(kIntMin, kAllOnes), kIntMin);
}

TEST(SemanticsTest, ShiftAmountUsesLowFiveBits) {
  EXPECT_EQ(sem::sll(1, 33), 2u);
  EXPECT_EQ(sem::srl(kIntMin, 33), 0x40000000u);
  EXPECT_EQ(sem::sra(kIntMin, 33), 0xC0000000u);
  EXPECT_EQ(sem::sll(1, 32), 1u);
  EXPECT_EQ(sem::sra(kIntMin, kAllOnes), kAllOnes);  // shift by 31
}

TEST(SemanticsTest, SetLessThanSignedAndUnsigned) {
  EXPECT_EQ(sem::slt(kAllOnes, 0), 1u);
  EXPECT_EQ(sem::sltu(kAllOnes, 0), 0u);
  EXPECT_EQ(sem::slt(kIntMin, kIntMax), 1u);
  EXPECT_EQ(sem::sltu(kIntMin, kIntMax), 0u);
}

TEST(SemanticsTest, BranchConditions) {
  EXPECT_TRUE(sem::branch_taken(Op::kBlt, kAllOnes, 0));
  EXPECT_FALSE(sem::branch_taken(Op::kBltu, kAllOnes, 0));
  EXPECT_TRUE(sem::branch_taken(Op::kBge, 0, kAllOnes));
  EXPECT_FALSE(sem::branch_taken(Op::kBgeu, 0, kAllOnes));
  EXPECT_TRUE(sem::branch_taken(Op::kBeq, 5, 5));
  EXPECT_TRUE(sem::branch_taken(Op::kBne, 5, 6));
}

TEST(SemanticsTest, AmoMinMaxAreSigned) {
  EXPECT_EQ(sem::amo(Op::kAmominW, kAllOnes, 1), kAllOnes);
  EXPECT_EQ(sem::amo(Op::kAmomaxW, kAllOnes, 1), 1u);
  EXPECT_EQ(sem::amo(Op::kAmominW, kIntMax, kIntMin), kIntMin);
  EXPECT_EQ(sem::amo(Op::kAmomaxW, kIntMax, kIntMin), kIntMax);
  EXPECT_EQ(sem::amo(Op::kAmoswapW, 3, 9), 9u);
  EXPECT_EQ(sem::amo(Op::kAmoaddW, kAllOnes, 2), 1u);
  EXPECT_EQ(sem::amo(Op::kAmoxorW, 0xF0, 0xFF), 0x0Fu);
}

TEST(SemanticsTest, SubWordLoadsExtend) {
  EXPECT_EQ(sem::load_extend(Op::kLb, 0x80), 0xFFFFFF80u);
  EXPECT_EQ(sem::load_extend(Op::kLb, 0x7F), 0x7Fu);
  EXPECT_EQ(sem::load_extend(Op::kLbu, 0x80), 0x80u);
  EXPECT_EQ(sem::load_extend(Op::kLh, 0x8000), 0xFFFF8000u);
  EXPECT_EQ(sem::load_extend(Op::kLh, 0x7FFF), 0x7FFFu);
  EXPECT_EQ(sem::load_extend(Op::kLhu, 0x8000), 0x8000u);
  EXPECT_EQ(sem::load_extend(Op::kLw, kIntMin), kIntMin);
}

TEST(SemanticsTest, IntegerFoldCoversOnlyIntegerRegisterOps) {
  EXPECT_EQ(sem::eval_int(Op::kAddi, 5, static_cast<uint32_t>(-7)).value_or(0),
            static_cast<uint32_t>(-2));
  EXPECT_EQ(sem::eval_int(Op::kDiv, kIntMin, kAllOnes).value_or(0), kIntMin);
  EXPECT_EQ(sem::eval_int(Op::kSrai, kIntMin, 4).value_or(0), 0xF8000000u);
  EXPECT_FALSE(sem::eval_int(Op::kLui, 1, 0).has_value());      // reads the immediate only
  EXPECT_FALSE(sem::eval_int(Op::kAuipc, 1, 0).has_value());    // reads the PC
  EXPECT_FALSE(sem::eval_int(Op::kFaddS, 1, 2).has_value());    // f registers
  EXPECT_FALSE(sem::eval_int(Op::kFcvtWS, 1, 0).has_value());   // f source
  EXPECT_FALSE(sem::eval_int(Op::kLw, 1, 0).has_value());       // not a lane op
}

// ---------------------------------------------------------------------------
// Floating-point corner cases
// ---------------------------------------------------------------------------

TEST(SemanticsTest, FloatToIntSaturatesAndMapsNaNToMax) {
  EXPECT_EQ(sem::fcvt_w_s(kQNaN), kIntMax);
  EXPECT_EQ(sem::fcvt_w_s(kPosInf), kIntMax);
  EXPECT_EQ(sem::fcvt_w_s(kNegInf), kIntMin);
  EXPECT_EQ(sem::fcvt_w_s(f2u(3.0e9f)), kIntMax);
  EXPECT_EQ(sem::fcvt_w_s(f2u(-3.0e9f)), kIntMin);
  EXPECT_EQ(sem::fcvt_w_s(f2u(-2.75f)), static_cast<uint32_t>(-2));
  EXPECT_EQ(sem::fcvt_w_s(f2u(2.75f)), 2u);

  EXPECT_EQ(sem::fcvt_wu_s(kQNaN), kAllOnes);
  EXPECT_EQ(sem::fcvt_wu_s(kPosInf), kAllOnes);
  EXPECT_EQ(sem::fcvt_wu_s(kNegInf), 0u);
  EXPECT_EQ(sem::fcvt_wu_s(f2u(5.0e9f)), kAllOnes);
  EXPECT_EQ(sem::fcvt_wu_s(f2u(3.0e9f)), 3000000000u);
  EXPECT_EQ(sem::fcvt_wu_s(f2u(-0.5f)), 0u);
  EXPECT_EQ(sem::fcvt_wu_s(f2u(-1.0f)), 0u);
}

TEST(SemanticsTest, IntToFloatRoundsToNearest) {
  EXPECT_EQ(sem::fcvt_s_w(kAllOnes), f2u(-1.0f));
  EXPECT_EQ(sem::fcvt_s_wu(kAllOnes), f2u(4294967296.0f));
  EXPECT_EQ(sem::fcvt_s_w(kIntMin), f2u(-2147483648.0f));
  EXPECT_EQ(sem::fcvt_s_w(16777217), f2u(16777216.0f));  // ties to even
}

TEST(SemanticsTest, FclassSetsOneBitPerClass) {
  EXPECT_EQ(sem::fclass(kNegInf), 1u << 0);
  EXPECT_EQ(sem::fclass(f2u(-1.5f)), 1u << 1);
  EXPECT_EQ(sem::fclass(0x80000001u), 1u << 2);  // negative subnormal
  EXPECT_EQ(sem::fclass(kNegZero), 1u << 3);
  EXPECT_EQ(sem::fclass(kPosZero), 1u << 4);
  EXPECT_EQ(sem::fclass(0x00000001u), 1u << 5);  // positive subnormal
  EXPECT_EQ(sem::fclass(f2u(1.5f)), 1u << 6);
  EXPECT_EQ(sem::fclass(kPosInf), 1u << 7);
  EXPECT_EQ(sem::fclass(kQNaN), 1u << 9);
  // Deviation: a signalling NaN is reported quiet (the spec sets bit 8).
  EXPECT_EQ(sem::fclass(kSNaN), 1u << 9);
  EXPECT_EQ(sem::fclass(0xFFC00001u), 1u << 9);
}

TEST(SemanticsTest, MinMaxOrderSignedZeros) {
  EXPECT_EQ(sem::fmin(kPosZero, kNegZero), kNegZero);
  EXPECT_EQ(sem::fmin(kNegZero, kPosZero), kNegZero);
  EXPECT_EQ(sem::fmax(kPosZero, kNegZero), kPosZero);
  EXPECT_EQ(sem::fmax(kNegZero, kPosZero), kPosZero);
  EXPECT_EQ(sem::fmin(kNegZero, kNegZero), kNegZero);
  EXPECT_EQ(sem::fmax(kPosZero, kPosZero), kPosZero);
}

TEST(SemanticsTest, MinMaxReturnTheNonNaNOperand) {
  const uint32_t three = f2u(3.0f);
  EXPECT_EQ(sem::fmin(kQNaN, three), three);
  EXPECT_EQ(sem::fmin(three, kQNaN), three);
  EXPECT_EQ(sem::fmax(kQNaN, three), three);
  EXPECT_EQ(sem::fmax(three, kQNaN), three);
  EXPECT_EQ(sem::fmin(f2u(-1.0f), f2u(2.0f)), f2u(-1.0f));
  EXPECT_EQ(sem::fmax(kNegInf, f2u(-2.0f)), f2u(-2.0f));
}

// NaN results are not canonicalised (the spec's 0x7FC00000): a quiet NaN
// operand's payload comes through, and of two NaN min/max operands one of
// them is returned, payload intact.
TEST(SemanticsTest, NaNPayloadsAreNotCanonicalised) {
  const uint32_t payload = 0x7FC00123u, other = 0x7FC00456u;
  EXPECT_EQ(sem::fadd(payload, f2u(1.0f)), payload);
  EXPECT_EQ(sem::fmul(f2u(2.0f), payload), payload);
  EXPECT_EQ(sem::fsqrt(payload), payload);
  const uint32_t lo = sem::fmin(payload, other), hi = sem::fmax(payload, other);
  EXPECT_TRUE(lo == payload || lo == other) << std::hex << lo;
  EXPECT_TRUE(hi == payload || hi == other) << std::hex << hi;
  EXPECT_NE(lo, kQNaN);
  EXPECT_TRUE(std::isnan(u2f(sem::fsqrt(f2u(-1.0f)))));
}

TEST(SemanticsTest, ComparisonsWithNaNAreFalse) {
  const uint32_t one = f2u(1.0f);
  EXPECT_EQ(sem::feq(kQNaN, kQNaN), 0u);
  EXPECT_EQ(sem::flt(kQNaN, one), 0u);
  EXPECT_EQ(sem::fle(one, kQNaN), 0u);
  EXPECT_EQ(sem::feq(kPosZero, kNegZero), 1u);
  EXPECT_EQ(sem::flt(kNegZero, kPosZero), 0u);
  EXPECT_EQ(sem::fle(kNegZero, kPosZero), 1u);
}

TEST(SemanticsTest, SignInjection) {
  const uint32_t pos = f2u(2.5f), neg = f2u(-4.0f);
  EXPECT_EQ(sem::fsgnj(pos, neg), f2u(-2.5f));
  EXPECT_EQ(sem::fsgnj(neg, pos), f2u(4.0f));
  EXPECT_EQ(sem::fsgnjn(pos, neg), f2u(2.5f));
  EXPECT_EQ(sem::fsgnjn(pos, pos), f2u(-2.5f));  // fneg.s
  EXPECT_EQ(sem::fsgnjx(neg, neg), f2u(4.0f));   // fabs.s
  EXPECT_EQ(sem::fsgnjx(pos, neg), f2u(-2.5f));
  EXPECT_EQ(sem::fsgnjx(neg, pos), neg);
  // Sign injection is a bit operation: NaN payloads and signs pass through.
  EXPECT_EQ(sem::fsgnjn(kQNaN, kQNaN), 0xFFC00000u);
}

// a = b = 1 + 2^-12: a*b = 1 + 2^-11 + 2^-24 rounds (ties to even) to
// 1 + 2^-11, so with c = -1 two roundings give 2^-11, while a fused
// multiply-add keeps the 2^-24 term.
TEST(SemanticsTest, FusedMultiplyAddRoundsTwice) {
  const uint32_t a = 0x3F800800u, one = f2u(1.0f), minus_one = f2u(-1.0f);
  const uint32_t two_roundings = f2u(std::ldexp(1.0f, -11));
  const uint32_t fused = f2u(std::fma(u2f(a), u2f(a), -1.0f));
  ASSERT_NE(fused, two_roundings);
  EXPECT_EQ(sem::fmadd(a, a, minus_one), two_roundings);
  EXPECT_EQ(sem::fmsub(a, a, one), two_roundings);
  EXPECT_EQ(sem::fnmsub(a, a, one), two_roundings | 0x80000000u);
  EXPECT_EQ(sem::fnmadd(a, a, minus_one), two_roundings | 0x80000000u);
}

// ---------------------------------------------------------------------------
// Every listed op on both simulator tiers
// ---------------------------------------------------------------------------

// One FGPU_SEM_OPS entry as the executors see it.
struct OpCase {
  Op op;
  const char* name;
  Opd rd, s1, s2, s3;
};

// gtest appends the printed parameter to each listed test name; without
// this it prints the struct's raw bytes, the name pointer among them.
void PrintTo(const OpCase& c, std::ostream* os) { *os << c.name; }

std::vector<OpCase> op_cases() {
  return {
#define FGPU_TEST_OP_CASE(OP, FN, RD, S1, S2, S3) \
  {Op::k##OP, #OP, Opd::RD, Opd::S1, Opd::S2, Opd::S3},
      FGPU_SEM_OPS(FGPU_TEST_OP_CASE)
#undef FGPU_TEST_OP_CASE
  };
}

// The sweep's oracle is independent of the list: operand classes come from
// the ISA's encoding metadata and each op's function is named again below,
// so a list entry with the wrong function or operand class fails.
OpCase spec_classes(Op op) {
  const arch::OpInfo& info = arch::op_info(op);
  auto reg = [](bool fp) { return fp ? Opd::F : Opd::X; };
  OpCase c{op, info.name, reg(arch::writes_freg(op)), Opd::N, Opd::N, Opd::N};
  switch (info.fmt) {
    case arch::Format::kU:
      c.s1 = op == Op::kAuipc ? Opd::P : Opd::I;
      c.s2 = op == Op::kAuipc ? Opd::I : Opd::N;
      break;
    case arch::Format::kI:
    case arch::Format::kIShift:
      c.s1 = reg(arch::reads_freg_rs1(op));
      c.s2 = Opd::I;
      break;
    case arch::Format::kR:
      c.s1 = reg(arch::reads_freg_rs1(op));
      // A fixed rs2 field selects the operation (fsqrt, fcvt, fmv, fclass).
      if (!info.match_rs2) c.s2 = reg(arch::reads_freg_rs2(op));
      break;
    case arch::Format::kR4:
      c.s1 = c.s2 = c.s3 = Opd::F;
      break;
    default:
      break;
  }
  return c;
}

uint32_t spec_value(Op op, uint32_t a, uint32_t b, uint32_t c) {
  switch (op) {
    case Op::kLui: return sem::lui(a);
    case Op::kAuipc: return sem::auipc(a, b);
    case Op::kAddi: case Op::kAdd: return sem::add(a, b);
    case Op::kSub: return sem::sub(a, b);
    case Op::kSlti: case Op::kSlt: return sem::slt(a, b);
    case Op::kSltiu: case Op::kSltu: return sem::sltu(a, b);
    case Op::kXori: case Op::kXor: return sem::xor_(a, b);
    case Op::kOri: case Op::kOr: return sem::or_(a, b);
    case Op::kAndi: case Op::kAnd: return sem::and_(a, b);
    case Op::kSlli: case Op::kSll: return sem::sll(a, b);
    case Op::kSrli: case Op::kSrl: return sem::srl(a, b);
    case Op::kSrai: case Op::kSra: return sem::sra(a, b);
    case Op::kMul: return sem::mul(a, b);
    case Op::kMulh: return sem::mulh(a, b);
    case Op::kMulhsu: return sem::mulhsu(a, b);
    case Op::kMulhu: return sem::mulhu(a, b);
    case Op::kDiv: return sem::div(a, b);
    case Op::kDivu: return sem::divu(a, b);
    case Op::kRem: return sem::rem(a, b);
    case Op::kRemu: return sem::remu(a, b);
    case Op::kFaddS: return sem::fadd(a, b);
    case Op::kFsubS: return sem::fsub(a, b);
    case Op::kFmulS: return sem::fmul(a, b);
    case Op::kFdivS: return sem::fdiv(a, b);
    case Op::kFsqrtS: return sem::fsqrt(a);
    case Op::kFsgnjS: return sem::fsgnj(a, b);
    case Op::kFsgnjnS: return sem::fsgnjn(a, b);
    case Op::kFsgnjxS: return sem::fsgnjx(a, b);
    case Op::kFminS: return sem::fmin(a, b);
    case Op::kFmaxS: return sem::fmax(a, b);
    case Op::kFcvtWS: return sem::fcvt_w_s(a);
    case Op::kFcvtWuS: return sem::fcvt_wu_s(a);
    case Op::kFcvtSW: return sem::fcvt_s_w(a);
    case Op::kFcvtSWu: return sem::fcvt_s_wu(a);
    case Op::kFmvXW: case Op::kFmvWX: return a;
    case Op::kFclassS: return sem::fclass(a);
    case Op::kFeqS: return sem::feq(a, b);
    case Op::kFltS: return sem::flt(a, b);
    case Op::kFleS: return sem::fle(a, b);
    case Op::kFmaddS: return sem::fmadd(a, b, c);
    case Op::kFmsubS: return sem::fmsub(a, b, c);
    case Op::kFnmsubS: return sem::fnmsub(a, b, c);
    case Op::kFnmaddS: return sem::fnmadd(a, b, c);
    default: ADD_FAILURE() << "no spec value for " << arch::op_info(op).name; return 0;
  }
}

// Operand rows, one word per lane of an 8-thread warp. The integer rows
// pair INT_MIN with -1, a dividend with 0, and shift amounts of 33 and -3;
// the float rows pair the signed zeros, NaNs (one with a payload), the
// infinities, subnormals, out-of-range conversions and, in lane 7, the
// operands on which a fused multiply-add differs from two roundings.
constexpr uint32_t kRows[5][8] = {
    {kIntMin, 7, kAllOnes, 0, kIntMax, 33, 0xFFFFFFF9u, 0x12345678u},
    {kAllOnes, 0, kIntMin, 5, 33, 0xFFFFFFFDu, 2, kIntMax},
    {kPosZero, kNegZero, kQNaN, kNegInf, 0x3FC00000u, 0xCF32D05Eu, 0x00000001u, 0x3F800800u},
    {kNegZero, kPosZero, 0x3F800000u, kPosInf, 0x7FC00123u, 0xBFC00000u, 0x80000001u, 0x3F800800u},
    {0x3F800000u, kNegZero, kPosZero, 0x40000000u, kQNaN, 0x4F9502F9u, 0x7F7FFFFFu, 0xBF800000u},
};
constexpr uint32_t kRowBase = arch::kHeapBase;           // row r, lane l at + r*32 + l*4
constexpr uint32_t kOutBase = arch::kHeapBase + 0x1000;  // lane l at + l*4
constexpr uint32_t kThreads = 8;

// Registers the op reads and writes: x11/x12 or f1/f2/f3 for sources, x13
// or f4 for the result.
arch::Instr op_instr(const OpCase& c) {
  arch::Instr in;
  in.op = c.op;
  in.rd = c.rd == Opd::X ? 13 : 4;
  in.rs1 = c.s1 == Opd::X ? 11 : 1;
  in.rs2 = c.s2 == Opd::X ? 12 : 2;
  in.rs3 = 3;
  switch (arch::op_info(c.op).fmt) {
    case arch::Format::kI: in.imm = -1366; break;
    case arch::Format::kIShift: in.imm = 29; break;
    case arch::Format::kU: in.imm = 0xABCDE; break;
    default: in.imm = 0; break;
  }
  return in;
}

// Prologue, the op, and a store of its result, as one word image at
// kCodeBase; `op_pc` receives the op's address.
std::vector<uint32_t> one_op_program(const OpCase& c, uint32_t* op_pc) {
  auto prologue = vasm::assemble(R"(
    li t0, 255
    tmc t0
    csrr t1, 0xCC0
    slli t1, t1, 2
    li t2, )" + std::to_string(kRowBase) + R"(
    add t2, t2, t1
    lw a1, 0(t2)
    lw a2, 32(t2)
    flw f1, 64(t2)
    flw f2, 96(t2)
    flw f3, 128(t2)
  )");
  auto epilogue = vasm::assemble(R"(
    li t3, )" + std::to_string(kOutBase) + R"(
    add t3, t3, t1
    )" + std::string(c.rd == Opd::X ? "sw a3, 0(t3)" : "fsw f4, 0(t3)") + R"(
    tmc zero
  )");
  EXPECT_TRUE(prologue.is_ok()) << prologue.status().to_string();
  EXPECT_TRUE(epilogue.is_ok()) << epilogue.status().to_string();
  std::vector<uint32_t> words = prologue->words;
  *op_pc = arch::kCodeBase + static_cast<uint32_t>(words.size()) * 4;
  words.push_back(arch::encode(op_instr(c)));
  words.insert(words.end(), epilogue->words.begin(), epilogue->words.end());
  return words;
}

void load_image(mem::MainMemory& memory, const std::vector<uint32_t>& words) {
  memory.write(arch::kCodeBase, words.data(), static_cast<uint32_t>(words.size() * 4));
  memory.write(kRowBase, &kRows[0][0], sizeof(kRows));
}

class SemOpSweep : public ::testing::TestWithParam<OpCase> {};

TEST_P(SemOpSweep, BothTiersMatchTheTable) {
  const OpCase& listed = GetParam();
  const OpCase c = spec_classes(listed.op);
  EXPECT_EQ(static_cast<int>(listed.rd), static_cast<int>(c.rd)) << c.name << " rd class";
  EXPECT_EQ(static_cast<int>(listed.s1), static_cast<int>(c.s1)) << c.name << " rs1 class";
  EXPECT_EQ(static_cast<int>(listed.s2), static_cast<int>(c.s2)) << c.name << " rs2 class";
  EXPECT_EQ(static_cast<int>(listed.s3), static_cast<int>(c.s3)) << c.name << " rs3 class";
  uint32_t pc = 0;
  const std::vector<uint32_t> words = one_op_program(c, &pc);
  // The executors see the op as decoded from its encoding.
  const auto decoded = arch::decode(arch::encode(op_instr(c)));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->op, c.op);
  const auto config = vortex::Config::with(1, 4, kThreads);

  mem::MainMemory cycle_mem;
  load_image(cycle_mem, words);
  vortex::Cluster cluster(config, cycle_mem);
  ASSERT_TRUE(cluster.run(arch::kCodeBase).is_ok());

  mem::MainMemory turbo_mem;
  load_image(turbo_mem, words);
  vortex::jit::TurboEngine engine(config, turbo_mem);
  ASSERT_TRUE(engine.run(arch::kCodeBase).is_ok());

  auto source = [&](Opd cls, int x_row, int f_row, uint32_t lane) -> uint32_t {
    switch (cls) {
      case Opd::X: return kRows[x_row][lane];
      case Opd::F: return kRows[f_row][lane];
      case Opd::I: return static_cast<uint32_t>(decoded->imm);
      case Opd::P: return pc;
      case Opd::N: break;
    }
    return 0;
  };
  for (uint32_t lane = 0; lane < kThreads; ++lane) {
    const uint32_t a = source(c.s1, 0, 2, lane), b = source(c.s2, 1, 3, lane),
                   d = source(c.s3, 1, 4, lane);
    const uint32_t expected = spec_value(c.op, a, b, d);
    const uint32_t out = kOutBase + lane * 4;
    const uint32_t cycle = cycle_mem.load32(out), turbo = turbo_mem.load32(out);
    // Of two NaN operands, which payload a float add or multiply returns
    // depends on the operand order the compiler emitted for the commutative
    // host instruction, which differs between the tiers' builds (turbo.cpp
    // is compiled with -O3 -march=native). Such a result only has to be NaN.
    int nan_sources = 0;
    for (const auto& [cls, v] : {std::pair{c.s1, a}, {c.s2, b}, {c.s3, d}}) {
      nan_sources += cls == Opd::F && std::isnan(u2f(v));
    }
    if (c.rd == Opd::F && nan_sources >= 2) {
      EXPECT_TRUE(std::isnan(u2f(cycle))) << c.name << " lane " << lane << std::hex << cycle;
      EXPECT_TRUE(std::isnan(u2f(turbo))) << c.name << " lane " << lane << std::hex << turbo;
      continue;
    }
    EXPECT_EQ(turbo, cycle) << c.name << " lane " << lane;
    EXPECT_EQ(cycle, expected) << c.name << " lane " << lane;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, SemOpSweep, ::testing::ValuesIn(op_cases()),
                         [](const ::testing::TestParamInfo<OpCase>& info) {
                           return std::string(info.param.name);
                         });

// x0 is hardwired to zero on both tiers: an ALU result, a load and a CSR
// read aimed at x0 are discarded, so x0 still reads 0 afterwards.
TEST(SemanticsTest, WritesToX0AreDiscardedOnBothTiers) {
  auto prog = vasm::assemble(R"(
    li t1, )" + std::to_string(kOutBase) + R"(
    li t2, 77
    sw t2, 16(t1)
    addi x0, x0, 5
    addi t0, x0, 0
    sw t0, 0(t1)
    lw x0, 16(t1)
    sw x0, 4(t1)
    csrr x0, 0xFC0
    sw x0, 8(t1)
    tmc zero
  )");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  const auto config = vortex::Config::with(1, 1, 4);
  auto check = [&](const mem::MainMemory& memory, const char* tier) {
    EXPECT_EQ(memory.load32(kOutBase), 0u) << tier << ": addi x0 stuck";
    EXPECT_EQ(memory.load32(kOutBase + 4), 0u) << tier << ": lw x0 stuck";
    EXPECT_EQ(memory.load32(kOutBase + 8), 0u) << tier << ": csrr x0 stuck";
    EXPECT_EQ(memory.load32(kOutBase + 16), 77u) << tier;
  };

  mem::MainMemory cycle_mem;
  cycle_mem.write(prog->base, prog->words.data(), prog->size_bytes());
  vortex::Cluster cluster(config, cycle_mem);
  ASSERT_TRUE(cluster.run(prog->entry()).is_ok());
  check(cycle_mem, "cycle-exact");
  EXPECT_EQ(cluster.core(0).xreg(0, 0, 0), 0u);

  mem::MainMemory turbo_mem;
  turbo_mem.write(prog->base, prog->words.data(), prog->size_bytes());
  vortex::jit::TurboEngine engine(config, turbo_mem);
  ASSERT_TRUE(engine.run(prog->entry()).is_ok());
  check(turbo_mem, "turbo");
}

}  // namespace
}  // namespace fgpu
