// The warp-level lane driver shared by the cycle-exact core and the turbo
// tier. Both keep their register files register-major, [warp][reg][lane]:
// register r of lane l of a warp lives at base[r * threads + l], so one
// warp instruction's operand rows are contiguous runs of `threads` words,
// the layout the lane loops need to autovectorize. A warp's x file has one
// row past x31, the discard row: an instruction whose x destination is x0
// writes there instead, so x0's row stays zero and no lane loop tests rd.
//
// Internal linkage for the same reason as arch/semantics.hpp: turbo.cpp and
// core.cpp compile these templates with different optimization flags, and
// each must keep its own copy.
#pragma once

#include <cstdint>

#include "arch/isa.hpp"
#include "arch/semantics.hpp"

namespace fgpu::vortex {
namespace {

#define FGPU_LANES_INLINE inline __attribute__((always_inline))

// Rows per warp of the x register file: x0..x31, then the discard row.
constexpr uint32_t kXRows = 33;
constexpr uint8_t kDiscardRow = 32;

// The row an instruction's result goes to, chosen once at decode or
// translate time: the discard row for an x0 destination, else rd (an f
// destination, f0 included, is a real register). Instructions without a
// destination never write the row they get.
inline uint8_t dest_row(const arch::Instr& in) {
  return in.rd == 0 && !arch::writes_freg(in.op) ? kDiscardRow : in.rd;
}

// Lowest active lane (0 for an empty mask): the lane whose registers decide
// a warp-uniform branch, jump or SIMT-control operand.
FGPU_LANES_INLINE uint32_t first_lane(uint64_t mask) {
  return mask != 0 ? static_cast<uint32_t>(__builtin_ctzll(mask)) : 0;
}

// Calls fn(lane) for every set bit of `mask`, in ascending lane order.
template <typename Fn>
FGPU_LANES_INLINE void for_lanes(uint64_t mask, uint32_t threads, Fn&& fn) {
  // Full-mask fast path with a compile-time bound: the dominant case is
  // every lane of an 8-thread warp active, and the constant-8 loop lets the
  // compiler unroll the body with no per-lane mask tests.
  if (mask == 0xFFull && threads == 8) {
    for (uint32_t lane = 0; lane < 8; ++lane) fn(lane);
    return;
  }
  // Partial masks (divergence, scalar prologues with tmask=1) iterate set
  // bits only: the trip count is the active-lane count, not the warp width.
  for (uint64_t m = mask; m != 0; m &= m - 1) fn(static_cast<uint32_t>(__builtin_ctzll(m)));
}

// One source value of class C for `lane`: its register row's word, the
// instruction's sign-extended immediate, or the instruction's PC.
template <arch::sem::Opd C>
FGPU_LANES_INLINE uint32_t operand(const uint32_t* row, uint32_t lane, uint32_t imm,
                                   uint32_t pc) {
  using arch::sem::Opd;
  if constexpr (C == Opd::X || C == Opd::F) {
    return row[lane];
  } else if constexpr (C == Opd::I) {
    return imm;
  } else if constexpr (C == Opd::P) {
    return pc;
  } else {
    return 0;
  }
}

// Executes one FGPU_SEM_OPS entry for the active lanes of a warp whose x
// and f register rows start at `x` and `f`, writing register row `rd_row`
// (dest_row(in): the discard row for x0).
template <auto Fn, arch::sem::Opd RD, arch::sem::Opd S1, arch::sem::Opd S2, arch::sem::Opd S3>
FGPU_LANES_INLINE void exec_lanes(uint32_t* x, uint32_t* f, uint32_t threads, uint64_t mask,
                                  const arch::Instr& in, uint32_t rd_row, uint32_t pc) {
  using arch::sem::Opd;
  auto row = [&](Opd cls, uint8_t reg) -> const uint32_t* {
    return (cls == Opd::X ? x : f) + reg * threads;
  };
  uint32_t* const rd = (RD == Opd::X ? x : f) + rd_row * threads;
  const uint32_t* const r1 = row(S1, in.rs1);
  const uint32_t* const r2 = row(S2, in.rs2);
  const uint32_t* const r3 = row(S3, in.rs3);
  const uint32_t imm = static_cast<uint32_t>(in.imm);
  for_lanes(mask, threads, [&](uint32_t l) {
    rd[l] = arch::sem::apply<Fn, S1, S2, S3>(operand<S1>(r1, l, imm, pc),
                                             operand<S2>(r2, l, imm, pc),
                                             operand<S3>(r3, l, imm, pc));
  });
}

}  // namespace
}  // namespace fgpu::vortex
