// Tests for the guest-code -O pipeline: the KIR optimization passes (DCE,
// LICM, strength reduction), the MInstr peephole, source-map integrity
// through every pass (no dangling PC entries; annotated listings still
// re-assemble), and end-to-end opt-level equivalence on the device.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "codegen/codegen.hpp"
#include "codegen/minstr.hpp"
#include "codegen/peephole.hpp"
#include "common/rng.hpp"
#include "kir/build.hpp"
#include "kir/interp.hpp"
#include "kir/passes.hpp"
#include "runtime/vortex_device.hpp"
#include "suite/suite.hpp"
#include "vasm/assembler.hpp"

namespace fgpu {
namespace {

using codegen::MInstr;
using kir::Buf;
using kir::KernelBuilder;
using kir::NDRange;
using kir::Val;

// Runs `kernel` through the interpreter over `count` items with a fixed
// random input and returns the output buffer.
std::vector<uint32_t> interp_run(const kir::Kernel& kernel, uint32_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> in(count), out(count, 0);
  for (auto& v : in) v = rng.next_u32();
  kir::Interpreter interp;
  EXPECT_TRUE(interp
                  .run(kernel,
                       {kir::KernelArg::buffer(&in), kir::KernelArg::buffer(&out),
                        kir::KernelArg::scalar_i32(static_cast<int32_t>(count))},
                       NDRange::linear(count, 32))
                  .is_ok())
      << kernel.to_string();
  return out;
}

// ---------------------------------------------------------------------------
// KIR passes
// ---------------------------------------------------------------------------

TEST(KirOptTest, DeadCodeElimRemovesUnreadLetsAndCascades) {
  KernelBuilder kb("dce");
  Buf in = kb.buf_i32("in"), out = kb.buf_i32("out");
  kb.param_i32("n");
  Val gid = kb.global_id(0);
  kb.let_("dead_simple", gid * 3);
  Val chain_a = kb.let_("chain_a", gid + 5);
  kb.let_("chain_b", chain_a * 7);  // only reader of chain_a, itself unread
  Val live = kb.let_("live", kb.load(in, gid) + 1);
  kb.store(out, gid, live);
  kir::Kernel kernel = kb.build();
  const kir::Kernel original = kir::clone_kernel(kernel);

  // chain_b falls first, which strands chain_a for the next round.
  EXPECT_EQ(kir::dead_code_elim(kernel), 3);
  EXPECT_TRUE(kir::verify(kernel).is_ok()) << kernel.to_string();
  EXPECT_EQ(interp_run(original, 64, 0xD0), interp_run(kernel, 64, 0xD0));
}

TEST(KirOptTest, DeadCodeElimKeepsImpureRightHandSides) {
  KernelBuilder kb("dce_load");
  Buf in = kb.buf_i32("in"), out = kb.buf_i32("out");
  kb.param_i32("n");
  Val gid = kb.global_id(0);
  kb.let_("unread_load", kb.load(in, gid));  // load: not provably removable
  kb.store(out, gid, gid);
  kir::Kernel kernel = kb.build();
  EXPECT_EQ(kir::dead_code_elim(kernel), 0);
}

TEST(KirOptTest, StrengthReductionPreservesSemantics) {
  KernelBuilder kb("sr");
  Buf in = kb.buf_i32("in"), out = kb.buf_i32("out");
  kb.param_i32("n");
  Val gid = kb.global_id(0);
  Val v = kb.let_("v", kb.load(in, gid));
  // v*16 is always reducible (shl is exact mod 2^32); gid/4 and gid%8 need
  // the non-negativity proof (global IDs are non-negative).
  kb.store(out, gid, v * 16 + gid / 4 + gid % 8);
  kir::Kernel kernel = kb.build();
  const kir::Kernel original = kir::clone_kernel(kernel);

  EXPECT_GE(kir::strength_reduce(kernel), 1);
  EXPECT_TRUE(kir::verify(kernel).is_ok()) << kernel.to_string();
  EXPECT_EQ(interp_run(original, 64, 0x51), interp_run(kernel, 64, 0x51));
}

TEST(KirOptTest, StrengthReductionLeavesSignedDivisionOfUnknownSign) {
  KernelBuilder kb("sr_signed");
  Buf in = kb.buf_i32("in"), out = kb.buf_i32("out");
  kb.param_i32("n");
  Val gid = kb.global_id(0);
  Val v = kb.let_("v", kb.load(in, gid));  // arbitrary bits: may be negative
  kb.store(out, gid, v / 4);
  kir::Kernel kernel = kb.build();
  const kir::Kernel original = kir::clone_kernel(kernel);

  kir::strength_reduce(kernel);
  // Whatever was (not) rewritten, signed-division semantics must hold for
  // negative inputs (truncation toward zero != arithmetic shift).
  EXPECT_EQ(interp_run(original, 64, 0x5E), interp_run(kernel, 64, 0x5E));
}

TEST(KirOptTest, LicmHoistsInvariantProducts) {
  KernelBuilder kb("licm");
  Buf in = kb.buf_i32("in"), out = kb.buf_i32("out");
  Val n = kb.param_i32("n");
  Val gid = kb.global_id(0);
  Val row = kb.let_("row", gid & 7);
  Val acc = kb.let_("acc", Val(0));
  kb.for_("k", Val(0), n & 15, [&](Val k) {
    // row * 8 is loop-invariant; k participates, so the sum is not.
    kb.assign(acc, acc + kb.load(in, (row * 8 + k) & 63));
  });
  kb.store(out, gid, acc);
  kir::Kernel kernel = kb.build();
  const kir::Kernel original = kir::clone_kernel(kernel);

  EXPECT_GE(kir::licm(kernel), 1);
  EXPECT_TRUE(kir::verify(kernel).is_ok()) << kernel.to_string();
  const std::string text = kernel.to_string();
  EXPECT_NE(text.find("licm"), std::string::npos) << text;
  EXPECT_EQ(interp_run(original, 64, 0x11), interp_run(kernel, 64, 0x11));
}

// const_fold must fold with the interpreter's semantics: a folded kernel
// computes what the unfolded one computes.
constexpr int32_t kIntMin = std::numeric_limits<int32_t>::min();
constexpr int32_t kIntMax = std::numeric_limits<int32_t>::max();

uint32_t run_one_item(const kir::Kernel& kernel) {
  std::vector<uint32_t> out(1, 0);
  kir::Interpreter interp;
  EXPECT_TRUE(interp.run(kernel, {kir::KernelArg::buffer(&out)}, NDRange::linear(1, 1)).is_ok());
  return out[0];
}

// Stores `value` to out[0] and checks interp(k) == interp(const_fold(clone(k))).
void expect_fold_agrees(const Val& value) {
  KernelBuilder kb("fold");
  Buf out = kb.buf_i32("out");
  kb.store(out, Val(0), value);
  const kir::Kernel kernel = kb.build();
  kir::Kernel folded = kir::clone_kernel(kernel);
  EXPECT_GT(kir::const_fold(folded), 0);
  EXPECT_EQ(folded.body[0]->b->kind, kir::ExprKind::kConstInt);
  EXPECT_EQ(run_one_item(folded), run_one_item(kernel)) << kir::expr_to_string(value.expr());
}

TEST(KirConstFoldSemanticsTest, FloatToIntClampsLikeFcvt) {
  expect_fold_agrees(to_i32(Val(3.0e9f)));   // 0x7FFFFFFF
  expect_fold_agrees(to_i32(Val(-3.0e9f)));  // 0x80000000
  expect_fold_agrees(to_i32(Val(std::numeric_limits<float>::quiet_NaN())));
  expect_fold_agrees(to_i32(Val(-7.9f)));
}

TEST(KirConstFoldSemanticsTest, IntMinDividedByMinusOne) {
  expect_fold_agrees(Val(kIntMin) / Val(-1));
}

TEST(KirConstFoldSemanticsTest, IntMinRemainderByMinusOne) {
  expect_fold_agrees(Val(kIntMin) % Val(-1));
}

TEST(KirConstFoldSemanticsTest, IntegerArithmeticWraps) {
  expect_fold_agrees(Val(kIntMax) + Val(1));
  expect_fold_agrees(Val(kIntMin) - Val(1));
  expect_fold_agrees(Val(65536) * Val(65536 + 3));
  expect_fold_agrees(-Val(kIntMin));
  expect_fold_agrees(vabs(Val(kIntMin)));
  expect_fold_agrees(Val(-1) << Val(31));
}

// ---------------------------------------------------------------------------
// MInstr peephole
// ---------------------------------------------------------------------------

MInstr li(int rd, int32_t v) {
  MInstr m;
  m.is_li = true;
  m.rd = rd;
  m.imm = v;
  return m;
}

MInstr rr(arch::Op op, int rd, int rs1, int rs2) {
  MInstr m;
  m.op = op;
  m.rd = rd;
  m.rs1 = rs1;
  m.rs2 = rs2;
  return m;
}

MInstr store_word(int base, int value) {
  MInstr m;
  m.op = arch::Op::kSw;
  m.rs1 = base;
  m.rs2 = value;
  return m;
}

TEST(PeepholeTest, FoldsConstantArithmeticIntoLoadImmediate) {
  codegen::MFunction fn;
  const int a = fn.new_vreg(), b = fn.new_vreg(), c = fn.new_vreg();
  fn.code.push_back(li(a, 5));
  fn.code.push_back(li(b, 7));
  fn.code.push_back(rr(arch::Op::kAdd, c, a, b));
  fn.code.push_back(store_word(c, c));  // keeps c (and the chain) observable

  const auto stats = codegen::peephole(fn, 1);
  EXPECT_GE(stats.folded, 1);
  bool folded_li = false;
  for (const auto& m : fn.code) {
    if (m.is_li && m.rd == c) folded_li = m.imm == 12;
    // The source operands must be gone entirely (DCE after folding).
    EXPECT_NE(m.rd, a);
    EXPECT_NE(m.rd, b);
  }
  EXPECT_TRUE(folded_li);
}

TEST(PeepholeTest, PropagatesCopies) {
  codegen::MFunction fn;
  const int a = fn.new_vreg(), b = fn.new_vreg(), c = fn.new_vreg();
  // a has no constant value (reads physical registers), so nothing folds
  // and the copy is the only rewrite opportunity.
  fn.code.push_back(rr(arch::Op::kAdd, a, 5, 6));
  MInstr copy;
  copy.op = arch::Op::kAddi;
  copy.rd = b;
  copy.rs1 = a;
  copy.imm = 0;
  fn.code.push_back(copy);
  fn.code.push_back(rr(arch::Op::kXor, c, b, b));
  fn.code.push_back(store_word(c, c));

  const auto stats = codegen::peephole(fn, 1);
  EXPECT_GE(stats.propagated, 1);
  for (const auto& m : fn.code) {
    EXPECT_NE(m.rs1, b);
    EXPECT_NE(m.rs2, b);
    EXPECT_NE(m.rd, b);  // the dead copy itself must be gone
  }
}

TEST(PeepholeTest, ValueNumberingDeduplicatesPureComputation) {
  codegen::MFunction fn;
  const int a = fn.new_vreg();
  const int x = fn.new_vreg(), y = fn.new_vreg(), z = fn.new_vreg();
  fn.code.push_back(rr(arch::Op::kAdd, a, 5, 6));
  fn.code.push_back(rr(arch::Op::kSll, x, a, a));
  fn.code.push_back(rr(arch::Op::kSll, y, a, a));  // identical computation
  fn.code.push_back(rr(arch::Op::kXor, z, x, y));
  fn.code.push_back(store_word(z, z));

  const auto stats = codegen::peephole(fn, 2);
  EXPECT_GE(stats.numbered, 1);
  int sll_count = 0;
  for (const auto& m : fn.code) {
    if (!m.is_li && !m.is_label() && m.op == arch::Op::kSll) ++sll_count;
  }
  EXPECT_EQ(sll_count, 1);
}

// Value numbering only reuses a computation at most kLvnWindow (48)
// positions back. `gap` stores separate the two identical shifts, so the
// second sits gap + 1 positions after the first.
int lvn_numbered_across(int gap) {
  codegen::MFunction fn;
  const int a = fn.new_vreg();
  const int x = fn.new_vreg(), y = fn.new_vreg(), z = fn.new_vreg();
  fn.code.push_back(rr(arch::Op::kAdd, a, 5, 6));
  fn.code.push_back(rr(arch::Op::kSll, x, a, a));
  for (int i = 0; i < gap; ++i) fn.code.push_back(store_word(a, a));
  fn.code.push_back(rr(arch::Op::kSll, y, a, a));
  fn.code.push_back(rr(arch::Op::kXor, z, x, y));
  fn.code.push_back(store_word(z, z));
  const auto stats = codegen::peephole(fn, 2);
  int sll_count = 0;
  for (const auto& m : fn.code) {
    if (!m.is_li && !m.is_label() && m.op == arch::Op::kSll) ++sll_count;
  }
  EXPECT_EQ(sll_count, 2 - stats.numbered);
  return stats.numbered;
}

TEST(PeepholeTest, ValueNumberingWindowIsFortyEightPositions) {
  EXPECT_EQ(lvn_numbered_across(47), 1);  // 48 positions apart: reused
  EXPECT_EQ(lvn_numbered_across(48), 0);  // 49 positions apart: recomputed
}

TEST(PeepholeTest, ValueNumberingResetsAtLabels) {
  codegen::MFunction fn;
  const int a = fn.new_vreg();
  const int x = fn.new_vreg(), y = fn.new_vreg(), z = fn.new_vreg();
  fn.code.push_back(rr(arch::Op::kAdd, a, 5, 6));
  fn.code.push_back(rr(arch::Op::kSll, x, a, a));
  fn.label(fn.make_label());
  fn.code.push_back(rr(arch::Op::kSll, y, a, a));
  fn.code.push_back(rr(arch::Op::kXor, z, x, y));
  fn.code.push_back(store_word(z, z));
  EXPECT_EQ(codegen::peephole(fn, 2).numbered, 0);
}

TEST(PeepholeTest, FusesCompareIntoBranch) {
  codegen::MFunction fn;
  const int a = fn.new_vreg(), b = fn.new_vreg(), t = fn.new_vreg();
  const int target = fn.make_label();
  fn.code.push_back(rr(arch::Op::kAdd, a, 5, 0));
  fn.code.push_back(rr(arch::Op::kAdd, b, 6, 0));
  fn.code.push_back(rr(arch::Op::kSlt, t, a, b));
  MInstr br;
  br.op = arch::Op::kBne;
  br.rs1 = t;
  br.rs2 = 0;
  br.target = target;
  fn.code.push_back(br);
  fn.code.push_back(store_word(a, b));
  fn.label(target);

  const auto stats = codegen::peephole(fn, 2);
  EXPECT_GE(stats.fused, 1);
  bool saw_blt = false;
  for (const auto& m : fn.code) {
    if (m.is_label() || m.is_li) continue;
    if (m.op == arch::Op::kBlt) saw_blt = m.rs1 == a && m.rs2 == b;
    EXPECT_NE(m.op, arch::Op::kSlt);  // compare consumed by the branch
  }
  EXPECT_TRUE(saw_blt);
}

TEST(PeepholeTest, DeadChainIsFullyRemoved) {
  codegen::MFunction fn;
  const int a = fn.new_vreg(), b = fn.new_vreg(), c = fn.new_vreg();
  const int live = fn.new_vreg();
  fn.code.push_back(li(a, 3));
  fn.code.push_back(rr(arch::Op::kAdd, b, a, a));
  fn.code.push_back(rr(arch::Op::kMul, c, b, b));  // c never used
  fn.code.push_back(li(live, 9));
  fn.code.push_back(store_word(live, live));

  codegen::peephole(fn, 1);
  ASSERT_EQ(fn.code.size(), 2u);
  EXPECT_TRUE(fn.code[0].is_li);
  EXPECT_EQ(fn.code[0].rd, live);
}

// ---------------------------------------------------------------------------
// Source-map integrity + listing round-trip across the whole suite
// ---------------------------------------------------------------------------

// Every optimization level, every suite kernel: the PC->source line table
// must stay dense and in range (peephole deletions and regalloc rewrites
// must never leave dangling entries), and the synthetic-label listing must
// re-assemble to the identical word sequence.
TEST(OptPipelineTest, SourceMapsStayDenseAndListingsReassemble) {
  for (const auto& name : suite::all_benchmark_names()) {
    const suite::Benchmark bench = suite::make_benchmark(name);
    for (const auto& kernel : bench.module.kernels) {
      for (int level = 0; level <= 2; ++level) {
        codegen::Options options;
        options.opt_level = level;
        auto compiled = codegen::compile_kernel(kernel, options);
        ASSERT_TRUE(compiled.is_ok())
            << name << "/" << kernel.name << " -O" << level << ": "
            << compiled.status().to_string();
        EXPECT_EQ(compiled->opt_level, level);
        const auto& map = compiled->source_map;
        ASSERT_EQ(map.word_source.size(), compiled->program.words.size())
            << name << "/" << kernel.name << " -O" << level;
        for (size_t i = 0; i < map.word_source.size(); ++i) {
          const int32_t src = map.word_source[i];
          EXPECT_GE(src, 0) << name << "/" << kernel.name << " word " << i;
          EXPECT_LT(src, static_cast<int32_t>(map.sources.size()))
              << name << "/" << kernel.name << " word " << i;
        }

        vasm::DisasmOptions disasm;
        disasm.addresses = false;
        disasm.synth_labels = true;
        disasm.source_map = &map;  // provenance comments must not break it
        const std::string listing = compiled->program.disassemble(disasm);
        auto reassembled = vasm::assemble(listing, compiled->program.base);
        ASSERT_TRUE(reassembled.is_ok())
            << name << "/" << kernel.name << " -O" << level << ": "
            << reassembled.status().to_string();
        EXPECT_EQ(reassembled->words, compiled->program.words)
            << name << "/" << kernel.name << " -O" << level;
      }
    }
  }
}

TEST(OptPipelineTest, OptimizationShrinksComputeKernels) {
  const suite::Benchmark bench = suite::make_benchmark("sgemm");
  ASSERT_FALSE(bench.module.kernels.empty());
  const kir::Kernel& kernel = bench.module.kernels.front();
  codegen::Options o0;
  o0.opt_level = 0;
  codegen::Options o2;
  o2.opt_level = 2;
  auto k0 = codegen::compile_kernel(kernel, o0);
  auto k2 = codegen::compile_kernel(kernel, o2);
  ASSERT_TRUE(k0.is_ok());
  ASSERT_TRUE(k2.is_ok());
  EXPECT_LT(k2->instruction_count, k0->instruction_count);
}

TEST(OptPipelineTest, OptLevelIsClamped) {
  const suite::Benchmark bench = suite::make_benchmark("vecadd");
  codegen::Options wild;
  wild.opt_level = 99;
  auto compiled = codegen::compile_kernel(bench.module.kernels.front(), wild);
  ASSERT_TRUE(compiled.is_ok());
  EXPECT_EQ(compiled->opt_level, 2);
}

// ---------------------------------------------------------------------------
// End-to-end equivalence on the device
// ---------------------------------------------------------------------------

// A loop-heavy divergent kernel executed at every opt level on the
// cycle-exact simulator must produce identical buffers (the fuzz suite
// covers random kernels; this covers a deterministic one with a spicy mix
// of divergence, loops, and signed arithmetic).
TEST(OptPipelineTest, DeviceOutputsIdenticalAcrossOptLevels) {
  KernelBuilder kb("levels");
  Buf in = kb.buf_i32("in"), out = kb.buf_i32("out");
  Val n = kb.param_i32("n");
  Val gid = kb.global_id(0);
  Val acc = kb.let_("acc", kb.load(in, gid));
  Val row = kb.let_("row", gid & 7);
  kb.for_("k", Val(0), gid & 7, [&](Val k) {
    kb.assign(acc, acc + kb.load(in, (row * 8 + k) & 63) * 3);
  });
  kb.if_((acc & 1) == 0, [&] { kb.assign(acc, acc / 4 + n); },
         [&] { kb.assign(acc, acc * 5 - 7); });
  kb.store(out, gid, acc);
  kir::Module module;
  module.kernels.push_back(kb.build());

  const uint32_t count = 64;
  Rng rng(0xE2E);
  std::vector<uint32_t> input(count);
  for (auto& v : input) v = rng.next_u32();

  std::vector<std::vector<uint32_t>> results;
  for (int level = 0; level <= 2; ++level) {
    codegen::Options options;
    options.opt_level = level;
    vcl::VortexDevice device(vortex::Config::with(2, 4, 8), fpga::stratix10_sx2800(), options);
    ASSERT_TRUE(device.build(module).is_ok()) << "-O" << level;
    auto in_buf = device.upload(input);
    auto out_buf = device.alloc(count * 4);
    std::vector<uint32_t> zero(count, 0);
    device.write(out_buf, zero.data(), count * 4, 0);
    auto stats = device.launch("levels", {in_buf, out_buf, static_cast<int32_t>(count)},
                               NDRange::linear(count, 32));
    ASSERT_TRUE(stats.is_ok()) << "-O" << level << ": " << stats.status().to_string();
    results.push_back(device.download<uint32_t>(out_buf));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

}  // namespace
}  // namespace fgpu
