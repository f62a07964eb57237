// ISA semantics: the lane-level value of every RV32IMF op, written once.
//
// Every executor computes lane results through these functions: the
// cycle-exact core and the turbo tier (through the FGPU_SEM_OPS list and the
// warp-level lane driver in vortex/lanes.hpp), the KIR interpreter, and the
// two constant folders (KIR const_fold and the machine-code peephole). So
// folded, interpreted and simulated code agree bit for bit by construction,
// and a new ISA op lands in one line of the list below.
//
// Values are raw 32-bit register contents; float operands and results are
// IEEE-754 binary32 bit patterns. Floating-point results depend on the
// host's round-to-nearest binary32 arithmetic and on the build compiling
// with -ffp-contract=off (src/CMakeLists.txt): a fused a*b+c would skip
// the product rounding that fmadd.s and friends perform here.
//
// Deviations from the RISC-V spec that every executor shares:
//  * NaN results are not canonicalised (the spec returns 0x7FC00000): a NaN
//    operand's payload propagates as the host FPU propagates it (of two NaN
//    operands of a commutative op, the one the compiler placed first), an
//    invalid operation yields the host's default NaN, and fmin/fmax leave NaN
//    operands to the host libm (glibc x86-64: of two NaNs fmin returns the
//    second and fmax the first; a signalling NaN operand yields a NaN where
//    the spec returns the other operand).
//  * fclass.s reports every NaN as quiet (bit 9).
//
// Everything here has internal linkage (an anonymous namespace): turbo.cpp
// is compiled with different optimization flags than the rest of the
// library, and an inline function with external linkage would let the
// linker pick one translation unit's copy for both.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "arch/isa.hpp"
#include "common/bits.hpp"

namespace fgpu::arch::sem {
namespace {

constexpr int32_t as_i32(uint32_t v) { return static_cast<int32_t>(v); }

// ---------------------------------------------------------------------------
// RV32I
// ---------------------------------------------------------------------------

constexpr uint32_t lui(uint32_t imm) { return imm << 12; }
constexpr uint32_t auipc(uint32_t pc, uint32_t imm) { return pc + (imm << 12); }
constexpr uint32_t add(uint32_t a, uint32_t b) { return a + b; }
constexpr uint32_t sub(uint32_t a, uint32_t b) { return a - b; }
constexpr uint32_t and_(uint32_t a, uint32_t b) { return a & b; }
constexpr uint32_t or_(uint32_t a, uint32_t b) { return a | b; }
constexpr uint32_t xor_(uint32_t a, uint32_t b) { return a ^ b; }
// Shifts use the low five bits of the amount.
constexpr uint32_t sll(uint32_t a, uint32_t b) { return a << (b & 31); }
constexpr uint32_t srl(uint32_t a, uint32_t b) { return a >> (b & 31); }
constexpr uint32_t sra(uint32_t a, uint32_t b) {
  return static_cast<uint32_t>(as_i32(a) >> (b & 31));
}
constexpr uint32_t slt(uint32_t a, uint32_t b) { return as_i32(a) < as_i32(b) ? 1 : 0; }
constexpr uint32_t sltu(uint32_t a, uint32_t b) { return a < b ? 1 : 0; }

// Branch conditions.
constexpr bool branch_taken(Op op, uint32_t a, uint32_t b) {
  switch (op) {
    case Op::kBeq: return a == b;
    case Op::kBne: return a != b;
    case Op::kBlt: return as_i32(a) < as_i32(b);
    case Op::kBge: return as_i32(a) >= as_i32(b);
    case Op::kBltu: return a < b;
    case Op::kBgeu: return a >= b;
    default: return false;
  }
}

// Loads: the raw byte/halfword/word read from memory, extended to 32 bits.
constexpr uint32_t load_extend(Op op, uint32_t raw) {
  switch (op) {
    case Op::kLb: return static_cast<uint32_t>(static_cast<int8_t>(raw));
    case Op::kLh: return static_cast<uint32_t>(static_cast<int16_t>(raw));
    case Op::kLbu: return raw & 0xFFu;
    case Op::kLhu: return raw & 0xFFFFu;
    default: return raw;
  }
}

// ---------------------------------------------------------------------------
// RV32M. Division never traps: x / 0 == -1 (all ones unsigned), x % 0 == x,
// INT_MIN / -1 == INT_MIN and INT_MIN % -1 == 0.
// ---------------------------------------------------------------------------

constexpr uint32_t mul(uint32_t a, uint32_t b) { return a * b; }
constexpr uint32_t mulh(uint32_t a, uint32_t b) {
  const int64_t p = static_cast<int64_t>(as_i32(a)) * static_cast<int64_t>(as_i32(b));
  return static_cast<uint32_t>(static_cast<uint64_t>(p) >> 32);
}
constexpr uint32_t mulhsu(uint32_t a, uint32_t b) {
  const int64_t p = static_cast<int64_t>(as_i32(a)) * static_cast<int64_t>(b);
  return static_cast<uint32_t>(static_cast<uint64_t>(p) >> 32);
}
constexpr uint32_t mulhu(uint32_t a, uint32_t b) {
  return static_cast<uint32_t>((static_cast<uint64_t>(a) * b) >> 32);
}
constexpr uint32_t div(uint32_t a, uint32_t b) {
  if (b == 0) return 0xFFFFFFFFu;
  if (as_i32(a) == std::numeric_limits<int32_t>::min() && as_i32(b) == -1) return a;
  return static_cast<uint32_t>(as_i32(a) / as_i32(b));
}
constexpr uint32_t divu(uint32_t a, uint32_t b) { return b == 0 ? 0xFFFFFFFFu : a / b; }
constexpr uint32_t rem(uint32_t a, uint32_t b) {
  if (b == 0) return a;
  if (as_i32(a) == std::numeric_limits<int32_t>::min() && as_i32(b) == -1) return 0;
  return static_cast<uint32_t>(as_i32(a) % as_i32(b));
}
constexpr uint32_t remu(uint32_t a, uint32_t b) { return b == 0 ? a : a % b; }

// ---------------------------------------------------------------------------
// RV32A: the value an AMO writes back, from the old memory word and rs2.
// ---------------------------------------------------------------------------

constexpr uint32_t min(uint32_t a, uint32_t b) { return as_i32(a) < as_i32(b) ? a : b; }
constexpr uint32_t max(uint32_t a, uint32_t b) { return as_i32(a) < as_i32(b) ? b : a; }

constexpr uint32_t amo(Op op, uint32_t old, uint32_t src) {
  switch (op) {
    case Op::kAmoswapW: return src;
    case Op::kAmoaddW: return old + src;
    case Op::kAmoandW: return old & src;
    case Op::kAmoorW: return old | src;
    case Op::kAmoxorW: return old ^ src;
    case Op::kAmominW: return min(old, src);
    case Op::kAmomaxW: return max(old, src);
    default: return old;
  }
}

// ---------------------------------------------------------------------------
// RV32F
// ---------------------------------------------------------------------------

inline uint32_t fadd(uint32_t a, uint32_t b) { return f2u(u2f(a) + u2f(b)); }
inline uint32_t fsub(uint32_t a, uint32_t b) { return f2u(u2f(a) - u2f(b)); }
inline uint32_t fmul(uint32_t a, uint32_t b) { return f2u(u2f(a) * u2f(b)); }
inline uint32_t fdiv(uint32_t a, uint32_t b) { return f2u(u2f(a) / u2f(b)); }
inline uint32_t fsqrt(uint32_t a) { return f2u(std::sqrt(u2f(a))); }

// Fused multiply-add family, computed with two roundings (product, then sum).
inline uint32_t fmadd(uint32_t a, uint32_t b, uint32_t c) {
  return f2u(u2f(a) * u2f(b) + u2f(c));
}
inline uint32_t fmsub(uint32_t a, uint32_t b, uint32_t c) {
  return f2u(u2f(a) * u2f(b) - u2f(c));
}
inline uint32_t fnmsub(uint32_t a, uint32_t b, uint32_t c) {
  return f2u(-(u2f(a) * u2f(b)) + u2f(c));
}
inline uint32_t fnmadd(uint32_t a, uint32_t b, uint32_t c) {
  return f2u(-(u2f(a) * u2f(b)) - u2f(c));
}

constexpr uint32_t kSignBit = 0x80000000u;
constexpr uint32_t fsgnj(uint32_t a, uint32_t b) { return (a & ~kSignBit) | (b & kSignBit); }
constexpr uint32_t fsgnjn(uint32_t a, uint32_t b) { return (a & ~kSignBit) | (~b & kSignBit); }
constexpr uint32_t fsgnjx(uint32_t a, uint32_t b) { return a ^ (b & kSignBit); }

// A NaN operand yields the other operand. -0 orders below +0; std::fmin and
// std::fmax treat the two zeros as equal and return either.
inline uint32_t fmin(uint32_t a, uint32_t b) {
  if (((a | b) & ~kSignBit) == 0) return a | b;
  return f2u(std::fmin(u2f(a), u2f(b)));
}
inline uint32_t fmax(uint32_t a, uint32_t b) {
  if (((a | b) & ~kSignBit) == 0) return a & b;
  return f2u(std::fmax(u2f(a), u2f(b)));
}

// Comparisons are quiet: any NaN operand compares false.
inline uint32_t feq(uint32_t a, uint32_t b) { return u2f(a) == u2f(b) ? 1 : 0; }
inline uint32_t flt(uint32_t a, uint32_t b) { return u2f(a) < u2f(b) ? 1 : 0; }
inline uint32_t fle(uint32_t a, uint32_t b) { return u2f(a) <= u2f(b) ? 1 : 0; }

// Float -> integer conversions truncate and saturate; NaN converts to the
// largest value of the destination type.
inline uint32_t fcvt_w_s(uint32_t a) {
  const float f = u2f(a);
  if (std::isnan(f)) return 0x7FFFFFFFu;
  if (f <= -2147483648.0f) return 0x80000000u;
  if (f >= 2147483648.0f) return 0x7FFFFFFFu;
  return static_cast<uint32_t>(static_cast<int32_t>(f));
}
inline uint32_t fcvt_wu_s(uint32_t a) {
  const float f = u2f(a);
  if (std::isnan(f)) return 0xFFFFFFFFu;
  if (f <= -1.0f) return 0;
  if (f >= 4294967296.0f) return 0xFFFFFFFFu;
  return static_cast<uint32_t>(f);
}
inline uint32_t fcvt_s_w(uint32_t a) { return f2u(static_cast<float>(as_i32(a))); }
inline uint32_t fcvt_s_wu(uint32_t a) { return f2u(static_cast<float>(a)); }
constexpr uint32_t fmv(uint32_t a) { return a; }

// fclass.s: one-hot class mask. Bit 0 -inf, 1 negative normal, 2 negative
// subnormal, 3 -0, 4 +0, 5 positive subnormal, 6 positive normal, 7 +inf,
// 9 NaN.
inline uint32_t fclass(uint32_t a) {
  const float f = u2f(a);
  if (std::isnan(f)) return 1u << 9;
  if (std::isinf(f)) return f < 0 ? 1u << 0 : 1u << 7;
  if (f == 0.0f) return std::signbit(f) ? 1u << 3 : 1u << 4;
  if (std::fpclassify(f) == FP_SUBNORMAL) return f < 0 ? 1u << 2 : 1u << 5;
  return f < 0 ? 1u << 1 : 1u << 6;
}

// ---------------------------------------------------------------------------
// The op list
// ---------------------------------------------------------------------------

// Operand classes: an x or f register, the instruction's immediate, the
// instruction's own PC, or no operand.
enum class Opd : uint8_t { N, X, F, I, P };

// Every op whose effect is one lane-wise register write:
//   M(op, function, rd, src1, src2, src3)
// `op` names arch::Op::k<op>; the function takes one argument per source
// class other than N, in order.
#define FGPU_SEM_OPS(M)                    \
  /* RV32I */                              \
  M(Lui, lui, X, I, N, N)                  \
  M(Auipc, auipc, X, P, I, N)              \
  M(Addi, add, X, X, I, N)                 \
  M(Slti, slt, X, X, I, N)                 \
  M(Sltiu, sltu, X, X, I, N)               \
  M(Xori, xor_, X, X, I, N)                \
  M(Ori, or_, X, X, I, N)                  \
  M(Andi, and_, X, X, I, N)                \
  M(Slli, sll, X, X, I, N)                 \
  M(Srli, srl, X, X, I, N)                 \
  M(Srai, sra, X, X, I, N)                 \
  M(Add, add, X, X, X, N)                  \
  M(Sub, sub, X, X, X, N)                  \
  M(Sll, sll, X, X, X, N)                  \
  M(Slt, slt, X, X, X, N)                  \
  M(Sltu, sltu, X, X, X, N)                \
  M(Xor, xor_, X, X, X, N)                 \
  M(Srl, srl, X, X, X, N)                  \
  M(Sra, sra, X, X, X, N)                  \
  M(Or, or_, X, X, X, N)                   \
  M(And, and_, X, X, X, N)                 \
  /* RV32M */                              \
  M(Mul, mul, X, X, X, N)                  \
  M(Mulh, mulh, X, X, X, N)                \
  M(Mulhsu, mulhsu, X, X, X, N)            \
  M(Mulhu, mulhu, X, X, X, N)              \
  M(Div, div, X, X, X, N)                  \
  M(Divu, divu, X, X, X, N)                \
  M(Rem, rem, X, X, X, N)                  \
  M(Remu, remu, X, X, X, N)                \
  /* RV32F */                              \
  M(FaddS, fadd, F, F, F, N)               \
  M(FsubS, fsub, F, F, F, N)               \
  M(FmulS, fmul, F, F, F, N)               \
  M(FdivS, fdiv, F, F, F, N)               \
  M(FsqrtS, fsqrt, F, F, N, N)             \
  M(FsgnjS, fsgnj, F, F, F, N)             \
  M(FsgnjnS, fsgnjn, F, F, F, N)           \
  M(FsgnjxS, fsgnjx, F, F, F, N)           \
  M(FminS, fmin, F, F, F, N)               \
  M(FmaxS, fmax, F, F, F, N)               \
  M(FcvtWS, fcvt_w_s, X, F, N, N)          \
  M(FcvtWuS, fcvt_wu_s, X, F, N, N)        \
  M(FcvtSW, fcvt_s_w, F, X, N, N)          \
  M(FcvtSWu, fcvt_s_wu, F, X, N, N)        \
  M(FmvXW, fmv, X, F, N, N)                \
  M(FmvWX, fmv, F, X, N, N)                \
  M(FclassS, fclass, X, F, N, N)           \
  M(FeqS, feq, X, F, F, N)                 \
  M(FltS, flt, X, F, F, N)                 \
  M(FleS, fle, X, F, F, N)                 \
  M(FmaddS, fmadd, F, F, F, F)             \
  M(FmsubS, fmsub, F, F, F, F)             \
  M(FnmsubS, fnmsub, F, F, F, F)           \
  M(FnmaddS, fnmadd, F, F, F, F)

// Calls `Fn` with the source values its classes use (a, then b, then c).
template <auto Fn, Opd S1, Opd S2, Opd S3>
inline uint32_t apply(uint32_t a, uint32_t b, uint32_t c) {
  if constexpr (S2 == Opd::N) {
    return Fn(a);
  } else if constexpr (S3 == Opd::N) {
    return Fn(a, b);
  } else {
    return Fn(a, b, c);
  }
}

// Value of a listed integer op that reads x[rs1] and x[rs2] or the
// immediate (`a` and `b`); nullopt for every other op.
inline std::optional<uint32_t> eval_int(Op op, uint32_t a, uint32_t b) {
  switch (op) {
#define FGPU_SEM_EVAL_INT(OP, FN, RD, S1, S2, S3)                                  \
  case Op::k##OP:                                                                  \
    if (Opd::RD == Opd::X && Opd::S1 == Opd::X && Opd::S3 == Opd::N &&              \
        (Opd::S2 == Opd::X || Opd::S2 == Opd::I)) {                                \
      return apply<FN, Opd::S1, Opd::S2, Opd::S3>(a, b, 0);                        \
    }                                                                              \
    return std::nullopt;
    FGPU_SEM_OPS(FGPU_SEM_EVAL_INT)
#undef FGPU_SEM_EVAL_INT
    default:
      return std::nullopt;
  }
}

}  // namespace
}  // namespace fgpu::arch::sem
