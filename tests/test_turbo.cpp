// Turbo tier correctness tests (ISSUE: binary-translation functional
// device). The contract under test, from DESIGN.md "Execution tiers":
// turbo is a FUNCTIONAL tier — its architectural results (output digests,
// memory contents) must be bit-identical to the cycle-exact simulator,
// while it reports no cycles at all. The block cache is an implementation
// detail with observable counters: retained across launches and kernel
// switches within one build, flushed only at the build() boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/log.hpp"
#include "mem/memory.hpp"
#include "suite/runner.hpp"
#include "vasm/assembler.hpp"
#include "vortex/cluster.hpp"
#include "vortex/jit/turbo.hpp"

namespace fgpu {
namespace {

// ---------------------------------------------------------------------------
// A/B: turbo vs cycle-exact output digests over the whole Table-I suite
// ---------------------------------------------------------------------------

void run_suite_digest_ab(int opt_level) {
  Log::level() = LogLevel::kOff;
  suite::RunnerOptions options;
  options.run_hls = false;
  options.run_turbo = true;
  options.opt_level = opt_level;
  auto result = suite::run_all(options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  for (const auto& outcome : result->outcomes) {
    ASSERT_TRUE(outcome.ran_vortex && outcome.ran_turbo) << outcome.name;
    EXPECT_TRUE(outcome.vortex.ok()) << outcome.name;
    EXPECT_TRUE(outcome.turbo.ok()) << outcome.name;
    // The acceptance bit: every checked output buffer hashes identically.
    EXPECT_NE(outcome.vortex.output_digest, 0u) << outcome.name;
    EXPECT_EQ(outcome.turbo.output_digest, outcome.vortex.output_digest)
        << outcome.name << " at -O" << opt_level;
    // Functional-only: the turbo tier must never fabricate a timing claim.
    EXPECT_EQ(outcome.turbo.total_cycles, 0u) << outcome.name;
    EXPECT_GT(outcome.turbo.total_instrs, 0u) << outcome.name;
    EXPECT_TRUE(outcome.turbo.kernel_profiles.empty()) << outcome.name;
  }
}

TEST(TurboSuiteTest, DigestsMatchCycleExactAtO2) { run_suite_digest_ab(2); }

// -O0 is the straight-lowering oracle: no optimizer between KIR and the
// guest binary, so a digest match here isolates the translator itself.
TEST(TurboSuiteTest, DigestsMatchCycleExactAtO0) { run_suite_digest_ab(0); }

// ---------------------------------------------------------------------------
// Block cache: retention across launches/kernels, invalidation on build
// ---------------------------------------------------------------------------

constexpr const char* kLoopProgram = R"(
    li t0, 100
    li t1, 0
  loop:
    add t1, t1, t0
    addi t0, t0, -1
    bne t0, zero, loop
    li t2, 0x20000000
    sw t1, 0(t2)
    tmc zero
)";

TEST(TurboBlockCacheTest, RelaunchReusesBlocksAndInvalidateFlushes) {
  auto prog = vasm::assemble(kLoopProgram);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  mem::MainMemory memory;
  memory.write(prog->base, prog->words.data(), prog->size_bytes());
  vortex::jit::TurboEngine engine(vortex::Config::with(1, 4, 8), memory);

  ASSERT_TRUE(engine.run(prog->entry()).is_ok());
  EXPECT_EQ(memory.load32(0x20000000), 5050u);  // sum 1..100
  const auto after_first = engine.stats();
  EXPECT_GT(after_first.blocks_translated, 0u);
  // The 100-iteration loop re-enters its own block: dominated by hits (or
  // chained dispatches, which skip the lookup entirely).
  EXPECT_GT(after_first.block_hits + after_first.chained_dispatches,
            after_first.blocks_translated);
  EXPECT_EQ(after_first.invalidations, 0u);

  // Relaunch of the same kernel: the cache must survive — zero new
  // translations, identical guest retirement, identical result.
  ASSERT_TRUE(engine.run(prog->entry()).is_ok());
  EXPECT_EQ(memory.load32(0x20000000), 5050u);
  const auto after_second = engine.stats();
  EXPECT_EQ(after_second.blocks_translated, after_first.blocks_translated);
  EXPECT_EQ(after_second.instrs, 2 * after_first.instrs);
  EXPECT_EQ(after_second.invalidations, 0u);

  // invalidate() models the build() boundary (the code region is about to
  // be rewritten): every block drops, so the next run retranslates all of
  // them, and the flush is counted.
  engine.invalidate();
  ASSERT_TRUE(engine.run(prog->entry()).is_ok());
  EXPECT_EQ(memory.load32(0x20000000), 5050u);
  const auto after_flush = engine.stats();
  EXPECT_EQ(after_flush.blocks_translated, 2 * after_first.blocks_translated);
  EXPECT_EQ(after_flush.invalidations, 1u);
}

TEST(TurboBlockCacheTest, KernelSwitchSwapsCachesInsteadOfFlushing) {
  auto prog = vasm::assemble(kLoopProgram);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  mem::MainMemory memory;
  memory.write(prog->base, prog->words.data(), prog->size_bytes());
  vortex::jit::TurboEngine engine(vortex::Config::with(1, 4, 8), memory);

  // Two "kernels" of one build (same binary here — the cache key is the
  // kernel name, since all binaries of a build share the load base).
  engine.select_kernel("fan1");
  ASSERT_TRUE(engine.run(prog->entry()).is_ok());
  const uint64_t per_kernel = engine.stats().blocks_translated;
  ASSERT_GT(per_kernel, 0u);

  // First run of the second kernel translates into its own cache...
  engine.select_kernel("fan2");
  ASSERT_TRUE(engine.run(prog->entry()).is_ok());
  EXPECT_EQ(engine.stats().blocks_translated, 2 * per_kernel);

  // ...and alternating launches (the gaussian Fan1/Fan2 pattern) stay warm
  // in both directions: no further translations, no invalidations.
  engine.select_kernel("fan1");
  ASSERT_TRUE(engine.run(prog->entry()).is_ok());
  engine.select_kernel("fan2");
  ASSERT_TRUE(engine.run(prog->entry()).is_ok());
  EXPECT_EQ(engine.stats().blocks_translated, 2 * per_kernel);
  EXPECT_EQ(engine.stats().invalidations, 0u);
  EXPECT_EQ(memory.load32(0x20000000), 5050u);
}

// ---------------------------------------------------------------------------
// Divergence-heavy unit kernel: turbo vs cycle-exact, lane for lane
// ---------------------------------------------------------------------------

// Nested split/join inside a pred-masked per-lane loop: lane l runs l+1
// iterations, each iteration diverging on the outer lane<4 test and the
// inner parity test. Exercises the IPDOM stack, partial-mask block
// execution (the coalesced-memory fast path must fall back), and
// reconvergence — the paths most likely to differ between the two tiers.
constexpr const char* kDivergentProgram = R"(
    li t0, 255
    tmc t0
    csrr t1, 0xCC0        # lane id
    slti t2, t1, 4
    andi t3, t1, 1
    li t4, 0              # accumulator
    addi t5, t1, 1        # counter: lane+1 iterations
    csrr s0, 0xCC3        # save full mask
  loop:
    sltu t6, zero, t5
    pred t6, fixup
    split t2, outer_else
    split t3, inner_else1
    addi t4, t4, 11
    join inner_merge1
  inner_else1:
    addi t4, t4, 10
    join inner_merge1
  inner_merge1:
    join outer_merge
  outer_else:
    split t3, inner_else2
    addi t4, t4, 21
    join inner_merge2
  inner_else2:
    addi t4, t4, 20
    join inner_merge2
  inner_merge2:
    join outer_merge
  outer_merge:
    addi t5, t5, -1
    j loop
  fixup:
    tmc s0
    li t6, 0x20000000
    slli t0, t1, 2
    add t6, t6, t0
    sw t4, 0(t6)
    tmc zero
)";

TEST(TurboDivergenceTest, NestedDivergenceMatchesCycleExact) {
  auto prog = vasm::assemble(kDivergentProgram);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  const auto config = vortex::Config::with(1, 4, 8);

  mem::MainMemory cycle_mem;
  cycle_mem.write(prog->base, prog->words.data(), prog->size_bytes());
  vortex::Cluster cluster(config, cycle_mem);
  auto cycle_run = cluster.run(prog->entry());
  ASSERT_TRUE(cycle_run.is_ok()) << cycle_run.status().to_string();

  mem::MainMemory turbo_mem;
  turbo_mem.write(prog->base, prog->words.data(), prog->size_bytes());
  vortex::jit::TurboEngine engine(config, turbo_mem);
  ASSERT_TRUE(engine.run(prog->entry()).is_ok());

  for (uint32_t lane = 0; lane < 8; ++lane) {
    const uint32_t addr = 0x20000000 + lane * 4;
    // (lane+1) iterations of (lane<4 ? 10 : 20) + parity.
    const uint32_t expected = (lane + 1) * ((lane < 4 ? 10u : 20u) + lane % 2);
    EXPECT_EQ(cycle_mem.load32(addr), expected) << "cycle lane " << lane;
    EXPECT_EQ(turbo_mem.load32(addr), cycle_mem.load32(addr))
        << "turbo lane " << lane;
  }
  // Both tiers retire the same dynamic instruction stream here (no atomics,
  // single warp): the functional tier's only "stat" must agree with the
  // oracle's count exactly.
  EXPECT_EQ(engine.last_run_instrs(), cycle_run->perf.instrs);
}

// ---------------------------------------------------------------------------
// Coalesced-access fallback: full-mask warp words across a page boundary
// ---------------------------------------------------------------------------

// One full 8-lane warp stores and loads words whose lanes span a
// MainMemory page boundary, so turbo's coalesced warp lw/sw must fall back to
// per-lane access; lane 3's unaligned load also straddles it. A second store
// starts every lane on one page, but lane 7's word straddles the next
// boundary: the straddle check alone must send it down the fallback. Lane
// l's value is 0x10203040 + l * 0x01010101.
std::string page_crossing_program(uint32_t boundary, uint32_t boundary2) {
  return R"(
    li t0, 255
    tmc t0
    csrr t1, 0xCC0        # lane id
    slli t2, t1, 2        # lane * 4
    li t4, 0x01010101
    mul t4, t4, t1
    li t5, 0x10203040
    add t4, t4, t5        # lane value
    li t3, )" + std::to_string(boundary - 16) + R"(
    add t3, t3, t2        # lanes 0-3 below the boundary, 4-7 above
    sw t4, 0(t3)
    lw t5, 2(t3)          # lane 3's word straddles the boundary
    lw t6, 0(t3)
    li a0, )" + std::to_string(boundary2 - 30) + R"(
    add a0, a0, t2        # lane 7's word straddles the second boundary
    sw t4, 0(a0)
    li a1, 0x20000000     # output: one page-local row per result
    add a1, a1, t2
    sw t5, 0(a1)
    sw t6, 32(a1)
    tmc zero
)";
}

TEST(TurboCoalescingTest, PageCrossingWarpAccessMatchesCycleExact) {
  const uint32_t boundary = 0x20000000 + 2 * mem::MainMemory::kPageSize;
  const uint32_t boundary2 = boundary + mem::MainMemory::kPageSize;
  auto prog = vasm::assemble(page_crossing_program(boundary, boundary2));
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  const auto config = vortex::Config::with(1, 4, 8);

  mem::MainMemory cycle_mem;
  cycle_mem.write(prog->base, prog->words.data(), prog->size_bytes());
  vortex::Cluster cluster(config, cycle_mem);
  ASSERT_TRUE(cluster.run(prog->entry()).is_ok());

  mem::MainMemory turbo_mem;
  turbo_mem.write(prog->base, prog->words.data(), prog->size_bytes());
  vortex::jit::TurboEngine engine(config, turbo_mem);
  ASSERT_TRUE(engine.run(prog->entry()).is_ok());

  auto value = [](uint32_t lane) { return 0x10203040u + lane * 0x01010101u; };
  for (uint32_t lane = 0; lane < 8; ++lane) {
    const uint32_t word = boundary - 16 + lane * 4;
    const uint32_t straddled = boundary2 - 30 + lane * 4;
    const uint32_t out = 0x20000000 + lane * 4;
    EXPECT_EQ(cycle_mem.load32(out + 32), value(lane)) << "lane " << lane;
    const uint32_t next = lane < 7 ? value(lane + 1) : 0;
    EXPECT_EQ(cycle_mem.load32(out), (value(lane) >> 16) | (next << 16)) << "lane " << lane;
    EXPECT_EQ(cycle_mem.load32(straddled), value(lane)) << "lane " << lane;
    for (uint32_t addr : {word, straddled, out, out + 32}) {
      EXPECT_EQ(turbo_mem.load32(addr), cycle_mem.load32(addr))
          << "lane " << lane << " at 0x" << std::hex << addr;
    }
  }
}

}  // namespace
}  // namespace fgpu
