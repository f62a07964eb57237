// Linear-scan register allocation over the virtual-register machine IR.
//
// Intervals are computed on the linearized instruction list and extended
// across backward branches (the conservative classic fix for loops), then
// allocated greedily. Under pressure the allocator evicts the interval
// whose next access is furthest away (spill-cost driven: distant, sparse
// intervals go first). An evicted single-def interval is *split* when that
// is provably safe: it keeps its register up to the eviction point and is
// served from a stack slot afterwards, so values computed before the
// dispatch loop and reused late do not pay a reload on every access.
// Stack slots are assigned after the scan with lifetime-based reuse, so
// non-overlapping spilled ranges share slots. Intervals that cannot be
// split spill whole and are rewritten through reserved scratch registers at
// emission time.
//
// The result is one dense table, `Allocation::homes`, with one `VregHome`
// per vreg: emission and the stack-traffic census resolve a vreg with one
// indexed load. The allocator's own per-vreg data (intervals, the sorted
// access positions of every vreg in one flat array) is dense as well, so
// the number of heap blocks an allocation makes does not grow with the
// number of vregs.
#pragma once

#include <cstdint>
#include <vector>

#include "codegen/minstr.hpp"
#include "codegen/remarks.hpp"

namespace fgpu::codegen {

// Where one vreg lives. Exactly one of four cases, so a vreg can never be
// both in a register and in a slot:
//   kNone     the vreg has no access in the function;
//   kRegister `phys` for its whole interval;
//   kSlot     stack `slot` at every access (spilled whole);
//   kSplit    `phys` serves accesses at positions < `split_pos`; the def
//             additionally stores to `slot`, which serves every access at
//             positions >= `split_pos` through the spill-scratch path.
struct VregHome {
  enum class Kind : uint8_t { kNone, kRegister, kSlot, kSplit };
  Kind kind = Kind::kNone;
  int phys = -1;      // x index, or f index + kPhysFloatBase
  int split_pos = 0;  // first instruction index served from the slot
  int slot = -1;      // stack slot (4-byte units from sp)
};

struct Allocation {
  // One entry per vreg of the function, indexed by `vreg - kFirstVirtual`.
  std::vector<VregHome> homes;
  int num_spill_slots = 0;
  // Peak number of simultaneously live intervals (both register classes) —
  // the pressure figure of the per-pass telemetry (remarks.hpp IrSnapshot).
  // Computed only when allocate_registers is given a remark sink; -1 otherwise.
  int max_pressure = -1;

  const VregHome& home(int vreg) const {
    return homes[static_cast<size_t>(vreg - kFirstVirtual)];
  }
  bool is_spilled(int vreg) const { return home(vreg).kind == VregHome::Kind::kSlot; }
  bool is_split(int vreg) const { return home(vreg).kind == VregHome::Kind::kSplit; }
};

struct RegAllocConfig {
  // Allocatable physical registers. Defaults reserve: x0 zero, x1 (unused),
  // x2 sp, x3 arg-block base, x4 hw-thread id, x10/x17 (ecall a0/a7),
  // x29-x31 spill scratch; f29-f31 spill scratch.
  std::vector<int> int_regs = {5,  6,  7,  8,  9,  11, 12, 13, 14, 15, 16,
                               18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28};
  std::vector<int> float_regs = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14,
                                 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28};
};

// Computes an allocation for `fn`. Float-ness of each vreg is inferred from
// the operand slots it appears in (a vreg must be used consistently).
// Deterministic: identical input produces an identical allocation. A
// non-null `sink` receives a remark per spill/split decision with the
// defining statement's KIR provenance and turns on `max_pressure`; the
// homes are the same either way.
Allocation allocate_registers(const MFunction& fn, const RegAllocConfig& config = {},
                              RemarkSink* sink = nullptr);

// Live interval of each vreg (exposed for tests).
struct Interval {
  int vreg = -1;
  int start = 0;
  int end = 0;
  bool is_float = false;
};
std::vector<Interval> compute_intervals(const MFunction& fn);

}  // namespace fgpu::codegen
