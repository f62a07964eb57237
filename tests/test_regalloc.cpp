// Register-allocator tests: live-interval computation (including the
// loop-extension rule), allocation under pressure, spill decisions, and the
// area/vortex model sanity checks that share this file.
#include <gtest/gtest.h>

#include <algorithm>

#include "codegen/regalloc.hpp"
#include "vortex/area.hpp"

namespace fgpu::codegen {
namespace {

using arch::Op;
using Kind = VregHome::Kind;

size_t count_homes(const Allocation& alloc, Kind kind) {
  return static_cast<size_t>(std::count_if(alloc.homes.begin(), alloc.homes.end(),
                                           [&](const VregHome& h) { return h.kind == kind; }));
}

MInstr alu(int rd, int rs1, int rs2) {
  MInstr m;
  m.op = Op::kAdd;
  m.rd = rd;
  m.rs1 = rs1;
  m.rs2 = rs2;
  return m;
}

MInstr fpu(int rd, int rs1, int rs2) {
  MInstr m;
  m.op = Op::kFaddS;
  m.rd = rd;
  m.rs1 = rs1;
  m.rs2 = rs2;
  return m;
}

TEST(RegAllocTest, SimpleIntervals) {
  MFunction fn;
  const int a = fn.new_vreg(), b = fn.new_vreg(), c = fn.new_vreg();
  fn.code.push_back(alu(a, 0, 0));  // 0: def a
  fn.code.push_back(alu(b, a, 0));  // 1: def b, use a
  fn.code.push_back(alu(c, b, a));  // 2: def c, last use of a and b
  auto intervals = compute_intervals(fn);
  ASSERT_EQ(intervals.size(), 3u);
  for (const auto& interval : intervals) {
    if (interval.vreg == a) {
      EXPECT_EQ(interval.start, 0);
      EXPECT_EQ(interval.end, 2);
    }
    if (interval.vreg == c) {
      EXPECT_EQ(interval.start, 2);
      EXPECT_EQ(interval.end, 2);
    }
  }
}

TEST(RegAllocTest, LoopExtendsPreLoopValues) {
  MFunction fn;
  const int pre = fn.new_vreg();   // defined before the loop, used inside
  const int body = fn.new_vreg();  // defined+used strictly inside
  const int top = fn.make_label();
  fn.code.push_back(alu(pre, 0, 0));    // 0
  fn.label(top);                        // 1
  fn.code.push_back(alu(body, pre, 0)); // 2
  fn.code.push_back(alu(body, body, body));  // 3 (last textual use of both)
  MInstr back;
  back.op = Op::kBne;
  back.rs1 = 0;
  back.rs2 = 0;
  back.target = top;
  fn.code.push_back(back);  // 4: back edge
  auto intervals = compute_intervals(fn);
  for (const auto& interval : intervals) {
    if (interval.vreg == pre) {
      EXPECT_EQ(interval.end, 4) << "pre-loop value must live across the back edge";
    }
    if (interval.vreg == body) {
      EXPECT_EQ(interval.end, 3) << "in-body temporary must NOT be extended";
    }
  }
}

TEST(RegAllocTest, NoSpillWhenRegistersSuffice) {
  MFunction fn;
  std::vector<int> regs;
  for (int i = 0; i < 10; ++i) {
    regs.push_back(fn.new_vreg());
    fn.code.push_back(alu(regs.back(), 0, 0));
  }
  for (int i = 0; i < 10; ++i) fn.code.push_back(alu(0, regs[static_cast<size_t>(i)], 0));
  auto alloc = allocate_registers(fn);
  EXPECT_EQ(alloc.num_spill_slots, 0);
  EXPECT_EQ(count_homes(alloc, Kind::kRegister), 10u);
}

TEST(RegAllocTest, SpillsUnderPressure) {
  RegAllocConfig config;
  config.int_regs = {5, 6, 7};  // only three registers
  MFunction fn;
  std::vector<int> regs;
  for (int i = 0; i < 6; ++i) {
    regs.push_back(fn.new_vreg());
    fn.code.push_back(alu(regs.back(), 0, 0));
  }
  // All six live simultaneously at the end.
  for (int i = 0; i < 6; ++i) fn.code.push_back(alu(0, regs[static_cast<size_t>(i)], 0));
  auto alloc = allocate_registers(fn, config);
  EXPECT_EQ(count_homes(alloc, Kind::kRegister) + count_homes(alloc, Kind::kSlot), 6u);
  EXPECT_EQ(alloc.num_spill_slots, 3);
  // Assigned registers come from the pool.
  for (const auto& home : alloc.homes) {
    if (home.kind != Kind::kRegister) continue;
    EXPECT_TRUE(home.phys == 5 || home.phys == 6 || home.phys == 7);
  }
}

TEST(RegAllocTest, NoTwoLiveVregsShareARegister) {
  RegAllocConfig config;
  config.int_regs = {5, 6, 7, 8};
  MFunction fn;
  // Staggered lifetimes: i defined at i, dies at i+3.
  std::vector<int> regs;
  for (int i = 0; i < 12; ++i) {
    const int r = fn.new_vreg();
    regs.push_back(r);
    fn.code.push_back(alu(r, i >= 3 ? regs[static_cast<size_t>(i - 3)] : 0, 0));
  }
  auto alloc = allocate_registers(fn, config);
  auto intervals = compute_intervals(fn);
  for (size_t i = 0; i < intervals.size(); ++i) {
    for (size_t j = i + 1; j < intervals.size(); ++j) {
      const auto& a = intervals[i];
      const auto& b = intervals[j];
      if (alloc.home(a.vreg).kind != Kind::kRegister ||
          alloc.home(b.vreg).kind != Kind::kRegister) {
        continue;
      }
      const bool overlap = a.start <= b.end && b.start <= a.end;
      if (overlap) {
        EXPECT_NE(alloc.home(a.vreg).phys, alloc.home(b.vreg).phys)
            << "vregs " << a.vreg << " and " << b.vreg << " overlap";
      }
    }
  }
}

TEST(RegAllocTest, DisjointSpilledRangesShareASlot) {
  RegAllocConfig config;
  config.int_regs = {5, 6};  // two registers force a spill in each cluster
  MFunction fn;
  // Two temporally disjoint pressure clusters: three values live at once in
  // each, so each cluster spills exactly one value — and because the first
  // cluster's slot lifetime has ended by the time the second cluster needs
  // one, lifetime-based slot assignment must reuse it.
  for (int cluster = 0; cluster < 2; ++cluster) {
    std::vector<int> regs;
    for (int i = 0; i < 3; ++i) {
      regs.push_back(fn.new_vreg());
      fn.code.push_back(alu(regs.back(), 0, 0));
    }
    for (int i = 0; i < 3; ++i) fn.code.push_back(alu(0, regs[static_cast<size_t>(i)], 0));
  }
  auto alloc = allocate_registers(fn, config);
  const size_t stack_served = count_homes(alloc, Kind::kSlot) + count_homes(alloc, Kind::kSplit);
  ASSERT_GE(stack_served, 2u) << "each cluster must push one value to the stack";
  EXPECT_EQ(alloc.num_spill_slots, 1) << "disjoint spill lifetimes must share one slot";
}

TEST(RegAllocTest, LongLivedSingleDefValueIsSplitNotSpilled) {
  RegAllocConfig config;
  config.int_regs = {5, 6};
  MFunction fn;
  // `early` is defined once, used immediately, then not touched while a
  // burst of short-lived values exhausts both registers, and finally read
  // again at the end. The allocator should split it — keep the register
  // through the early uses, serve the late use from the stack — rather than
  // reload it at every access like a whole-interval spill.
  const int early = fn.new_vreg();
  fn.code.push_back(alu(early, 0, 0));
  fn.code.push_back(alu(0, early, 0));
  for (int i = 0; i < 4; ++i) {
    const int a = fn.new_vreg(), b = fn.new_vreg();
    fn.code.push_back(alu(a, 0, 0));
    fn.code.push_back(alu(b, 0, 0));
    fn.code.push_back(alu(0, a, b));
  }
  fn.code.push_back(alu(0, early, 0));  // distant last use
  auto alloc = allocate_registers(fn, config);
  ASSERT_TRUE(alloc.is_split(early))
      << "single-def long-gap interval should split, not spill whole";
  const auto& split = alloc.home(early);
  EXPECT_TRUE(split.phys == 5 || split.phys == 6);
  EXPECT_GT(split.split_pos, 1) << "register must cover the early use";
  EXPECT_GE(split.slot, 0);
  EXPECT_NE(alloc.home(early).kind, Kind::kRegister);
  EXPECT_FALSE(alloc.is_spilled(early));
  EXPECT_GE(alloc.num_spill_slots, 1);
}

TEST(RegAllocTest, FloatAndIntPoolsAreIndependent) {
  MFunction fn;
  const int iv = fn.new_vreg(), fv = fn.new_vreg();
  fn.code.push_back(alu(iv, 0, 0));
  fn.code.push_back(fpu(fv, fv, fv));
  fn.code.push_back(alu(0, iv, 0));
  auto alloc = allocate_registers(fn);
  ASSERT_EQ(alloc.home(iv).kind, Kind::kRegister);
  ASSERT_EQ(alloc.home(fv).kind, Kind::kRegister);
  EXPECT_LT(alloc.home(iv).phys, kPhysFloatBase);
  EXPECT_GE(alloc.home(fv).phys, kPhysFloatBase);
}

TEST(RegAllocTest, EveryVregHasOneHomeAndUnusedOnesNone) {
  RegAllocConfig config;
  config.int_regs = {5, 6, 7};
  MFunction fn;
  const int unused = fn.new_vreg();  // handed out, never accessed
  std::vector<int> regs;
  for (int i = 0; i < 6; ++i) {
    regs.push_back(fn.new_vreg());
    fn.code.push_back(alu(regs.back(), 0, 0));
  }
  for (int i = 0; i < 6; ++i) fn.code.push_back(alu(0, regs[static_cast<size_t>(i)], 0));
  auto alloc = allocate_registers(fn, config);
  ASSERT_EQ(alloc.homes.size(), 7u);
  EXPECT_EQ(alloc.home(unused).kind, Kind::kNone);
  for (const int r : regs) {
    const VregHome& h = alloc.home(r);
    EXPECT_NE(h.kind, Kind::kNone);
    EXPECT_EQ(h.phys >= 0, h.kind == Kind::kRegister || h.kind == Kind::kSplit) << r;
    EXPECT_EQ(h.slot >= 0, h.kind == Kind::kSlot || h.kind == Kind::kSplit) << r;
  }
}

TEST(RegAllocTest, MaxPressureOnlyWithASinkAndHomesUnchanged) {
  RegAllocConfig config;
  config.int_regs = {5, 6};
  MFunction fn;
  std::vector<int> regs;
  for (int i = 0; i < 4; ++i) {
    regs.push_back(fn.new_vreg());
    fn.code.push_back(alu(regs.back(), 0, 0));
  }
  for (int i = 0; i < 4; ++i) fn.code.push_back(alu(0, regs[static_cast<size_t>(i)], 0));
  const auto quiet = allocate_registers(fn, config);
  RemarkSink sink;
  const auto noted = allocate_registers(fn, config, &sink);
  EXPECT_EQ(quiet.max_pressure, -1);
  EXPECT_EQ(noted.max_pressure, 4);
  EXPECT_FALSE(sink.remarks.empty());
  EXPECT_EQ(quiet.num_spill_slots, noted.num_spill_slots);
  ASSERT_EQ(quiet.homes.size(), noted.homes.size());
  for (size_t k = 0; k < quiet.homes.size(); ++k) {
    EXPECT_EQ(quiet.homes[k].kind, noted.homes[k].kind) << k;
    EXPECT_EQ(quiet.homes[k].phys, noted.homes[k].phys) << k;
    EXPECT_EQ(quiet.homes[k].split_pos, noted.homes[k].split_pos) << k;
    EXPECT_EQ(quiet.homes[k].slot, noted.homes[k].slot) << k;
  }
}

}  // namespace
}  // namespace fgpu::codegen

namespace fgpu::vortex {
namespace {

TEST(VortexAreaTest, MatchesPaperTableIvWithinTolerance) {
  struct Row {
    uint32_t c, w, t;
    fpga::AreaReport paper;
  };
  const Row rows[] = {
      {2, 4, 16, {332'143, 459'349, 1'275, 896}},
      {2, 8, 16, {336'568, 459'353, 1'299, 896}},
      {2, 16, 16, {341'134, 478'735, 1'299, 896}},
      {4, 8, 16, {617'748, 793'976, 2'235, 1'792}},
      {4, 16, 16, {626'688, 827'757, 2'235, 1'792}},
  };
  for (const auto& row : rows) {
    const auto area = estimate_area(Config::with(row.c, row.w, row.t));
    EXPECT_NEAR(static_cast<double>(area.aluts), static_cast<double>(row.paper.aluts),
                0.05 * static_cast<double>(row.paper.aluts));
    EXPECT_NEAR(static_cast<double>(area.ffs), static_cast<double>(row.paper.ffs),
                0.05 * static_cast<double>(row.paper.ffs));
    EXPECT_NEAR(static_cast<double>(area.brams), static_cast<double>(row.paper.brams),
                0.05 * static_cast<double>(row.paper.brams));
    EXPECT_EQ(area.dsps, row.paper.dsps);
  }
}

TEST(VortexAreaTest, MonotoneInEveryDimension) {
  const auto base = estimate_area(Config::with(2, 4, 8));
  EXPECT_GT(estimate_area(Config::with(4, 4, 8)).aluts, base.aluts);
  EXPECT_GT(estimate_area(Config::with(2, 8, 8)).aluts, base.aluts);
  EXPECT_GT(estimate_area(Config::with(2, 4, 16)).aluts, base.aluts);
  EXPECT_GT(estimate_area(Config::with(2, 4, 16)).dsps, base.dsps);
}

TEST(VortexAreaTest, BramSaturatesAtEightWarps) {
  // Visible in the paper's Table IV: W=8 and W=16 rows share BRAM counts.
  EXPECT_EQ(estimate_area(Config::with(2, 8, 16)).brams,
            estimate_area(Config::with(2, 16, 16)).brams);
  EXPECT_LT(estimate_area(Config::with(2, 4, 16)).brams,
            estimate_area(Config::with(2, 8, 16)).brams);
}

TEST(VortexAreaTest, FitsChecksBoard) {
  EXPECT_TRUE(fits(Config::with(4, 8, 16), fpga::stratix10_sx2800()));
  EXPECT_FALSE(fits(Config::with(64, 16, 32), fpga::stratix10_sx2800()));
}

}  // namespace
}  // namespace fgpu::vortex
