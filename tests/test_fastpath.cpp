// Fast-path correctness tests for the simulator's host-throughput
// optimizations (decoded-instruction cache, event-driven idle skipping and
// per-core sleep). The contract under test: these are HOST-SPEED features
// only — every reported cycle, stall bucket, and per-PC profile entry must
// be bit-identical with the fast paths on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/log.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "runtime/vortex_device.hpp"
#include "same_document.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "vasm/assembler.hpp"
#include "vortex/cluster.hpp"

namespace fgpu {
namespace {

// ---------------------------------------------------------------------------
// A/B: idle skipping off vs on over the benchmark suite
// ---------------------------------------------------------------------------

suite::RunnerOptions vortex_suite_options(bool idle_skip) {
  suite::RunnerOptions options;
  options.run_hls = false;  // idle skipping only affects the soft GPU
  options.capture_profile = true;
  options.vortex_config.idle_skip = idle_skip;
  return options;
}

TEST(IdleSkipTest, SuiteIsCycleExactWithSkippingOnAndOff) {
  Log::level() = LogLevel::kOff;
  const auto options_off = vortex_suite_options(false);
  const auto options_on = vortex_suite_options(true);
  auto off = suite::run_all(options_off);
  auto on = suite::run_all(options_on);
  ASSERT_TRUE(off.is_ok()) << off.status().to_string();
  ASSERT_TRUE(on.is_ok()) << on.status().to_string();
  ASSERT_EQ(off->outcomes.size(), on->outcomes.size());

  for (size_t i = 0; i < off->outcomes.size(); ++i) {
    const auto& a = off->outcomes[i];
    const auto& b = on->outcomes[i];
    ASSERT_EQ(a.name, b.name);
    EXPECT_EQ(a.vortex.ok(), b.vortex.ok()) << a.name;
    EXPECT_EQ(a.vortex.total_cycles, b.vortex.total_cycles) << a.name;
    EXPECT_EQ(a.vortex.total_instrs, b.vortex.total_instrs) << a.name;
    // Full PerfCounters equality: every stall bucket (including the idle
    // cycles that fast-forwarding attributes in bulk) must match the
    // cycle-by-cycle simulation exactly.
    EXPECT_TRUE(a.vortex.last.perf == b.vortex.last.perf) << a.name;
  }

  // Byte-identical exports: stats and the per-PC profile document. A
  // difference here means the fast path leaked into the reported schema.
  std::ostringstream stats_off, stats_on, prof_off, prof_on;
  suite::write_stats_json(stats_off, options_off, *off);
  suite::write_stats_json(stats_on, options_on, *on);
  test::expect_same_document(stats_off.str(), stats_on.str(), "stats idle skip off vs on");
  suite::write_profile_json(prof_off, options_off, *off);
  suite::write_profile_json(prof_on, options_on, *on);
  test::expect_same_document(prof_off.str(), prof_on.str(), "profile idle skip off vs on");
}

// The same A/B at two non-default shapes with a non-default L1D geometry
// and both profilers on: per-core sleep (gated by idle_skip) must not move
// a counter at one core or at eight. Also compares the memory profile, whose
// MSHR-occupancy histogram is the most timing-sensitive document.
TEST(IdleSkipTest, NonDefaultShapesMatchWithMemprof) {
  Log::level() = LogLevel::kOff;
  vortex::Config small = vortex::Config::with(1, 2, 4);
  small.l1d.size_bytes = 4 * 1024;
  small.l1d.ways = 4;
  small.l1d.mshrs = 3;
  vortex::Config wide = vortex::Config::with(8, 16, 16);
  wide.l1d.size_bytes = 8 * 1024;
  wide.l1d.ways = 1;
  wide.l1d.mshrs = 12;
  for (const vortex::Config& shape : {small, wide}) {
    SCOPED_TRACE(shape.to_string());
    suite::RunnerOptions options_off = vortex_suite_options(false);
    options_off.filter = "^(bfs|lbm|nw|gaussian|backprop|vecadd)$";
    options_off.jobs = 2;
    options_off.capture_memprof = true;
    options_off.vortex_config = shape;
    options_off.vortex_config.idle_skip = false;
    suite::RunnerOptions options_on = options_off;
    options_on.vortex_config.idle_skip = true;
    auto off = suite::run_all(options_off);
    auto on = suite::run_all(options_on);
    ASSERT_TRUE(off.is_ok()) << off.status().to_string();
    ASSERT_TRUE(on.is_ok()) << on.status().to_string();
    ASSERT_EQ(off->outcomes.size(), 6u);
    ASSERT_EQ(off->outcomes.size(), on->outcomes.size());
    for (size_t i = 0; i < off->outcomes.size(); ++i) {
      const auto& a = off->outcomes[i].vortex;
      const auto& b = on->outcomes[i].vortex;
      const std::string& name = off->outcomes[i].name;
      EXPECT_EQ(a.ok(), b.ok()) << name;
      EXPECT_EQ(a.total_cycles, b.total_cycles) << name;
      EXPECT_TRUE(a.last.perf == b.last.perf) << name;
      EXPECT_TRUE(a.last.l1d == b.last.l1d) << name;
      EXPECT_TRUE(a.last.l2 == b.last.l2) << name;
      EXPECT_TRUE(a.last.dram == b.last.dram) << name;
      EXPECT_TRUE(a.last.profile == b.last.profile) << name;
    }
    std::ostringstream prof_off, prof_on, mem_off, mem_on;
    suite::write_profile_json(prof_off, options_off, *off);
    suite::write_profile_json(prof_on, options_on, *on);
    test::expect_same_document(prof_off.str(), prof_on.str(), "profile idle skip off vs on");
    suite::write_mem_json(mem_off, options_off, *off);
    suite::write_mem_json(mem_on, options_on, *on);
    test::expect_same_document(mem_off.str(), mem_on.str(), "mem idle skip off vs on");
  }
}

// ---------------------------------------------------------------------------
// Per-core sleep: exact when cores finish at different cycles, and it
// actually sleeps
// ---------------------------------------------------------------------------

// Core 0 runs a load-dependent loop over fresh lines (memory-bound, so it
// stalls on every load); every other core exits at once and stays drained
// for the rest of the run.
constexpr const char* kUnevenProgram = R"(
    csrr t0, 0xCC2
    bne t0, zero, done
    li t1, 48
    li t2, 0x20000000
  loop:
    lw t3, 0(t2)
    add t3, t3, t1
    sw t3, 0(t2)
    addi t2, t2, 64
    addi t1, t1, -1
    bne t1, zero, loop
  done:
    tmc zero
)";

TEST(CoreSleepTest, UnevenFinishIsExactWithSleepOnAndOff) {
  auto prog = vasm::assemble(kUnevenProgram);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  struct Run {
    vortex::ClusterStats stats;
    vortex::PcProfile profile;
    mem::MemHierarchyProfile mem;
    std::vector<vortex::PerfCounters> per_core;
  };
  auto run = [&](bool idle_skip, uint64_t* slept) {
    vortex::Config config = vortex::Config::with(4, 2, 4);
    config.idle_skip = idle_skip;
    config.profile = true;
    config.profile_interval = 16;
    config.memprof = true;
    mem::MainMemory memory;
    memory.write(prog->base, prog->words.data(), prog->size_bytes());
    vortex::Cluster cluster(config, memory);
    auto stats = cluster.run(prog->entry());
    EXPECT_TRUE(stats.is_ok()) << stats.status().to_string();
    Run r;
    if (!stats.is_ok()) return r;
    r.stats = *stats;
    r.profile = cluster.collect_profile();
    r.mem = cluster.collect_mem_profile();
    *slept = 0;
    for (uint32_t c = 0; c < cluster.num_cores(); ++c) {
      const vortex::Core& core = cluster.core(c);
      r.per_core.push_back(core.perf());
      *slept += core.slept_ticks();
      // Every cycle is either simulated or charged as slept, idle-skip
      // windows included.
      EXPECT_EQ(core.logic_ticks() + core.slept_ticks(), stats->perf.cycles) << "core " << c;
    }
    return r;
  };
  uint64_t slept_off = 0, slept_on = 0;
  const Run off = run(false, &slept_off);
  const Run on = run(true, &slept_on);
  EXPECT_EQ(slept_off, 0u);
  EXPECT_GT(slept_on, 0u);
  // Cores 1-3 drained long before core 0: the uneven finish this test is for.
  EXPECT_GT(off.per_core[0].instrs, 10 * off.per_core[1].instrs);
  EXPECT_GT(off.per_core[1].idle_cycles, off.stats.perf.cycles / 2);
  EXPECT_TRUE(off.stats.perf == on.stats.perf);
  EXPECT_TRUE(off.stats.l1d == on.stats.l1d);
  EXPECT_TRUE(off.stats.l2 == on.stats.l2);
  EXPECT_TRUE(off.stats.dram == on.stats.dram);
  EXPECT_TRUE(off.per_core == on.per_core);
  EXPECT_TRUE(off.profile == on.profile);
  EXPECT_TRUE(off.mem == on.mem);
}

// The sleep counters on a suite benchmark: with the gate on a drained or
// stalled core sleeps (slept > 0), every cycle of every launch is either
// simulated or charged as slept (idle-skip windows included), and idle
// skipping means fewer cluster ticks than cycles; with it off, every cycle
// is a simulated tick.
TEST(CoreSleepTest, BfsSleepsAndTicksAddUp) {
  Log::level() = LogLevel::kOff;
  const suite::Benchmark bench = suite::make_benchmark("bfs");
  for (const bool idle_skip : {false, true}) {
    SCOPED_TRACE(idle_skip ? "idle_skip on" : "idle_skip off");
    vortex::Config config = vortex::Config::with(4, 8, 8);
    config.idle_skip = idle_skip;
    vcl::VortexDevice device(config);
    const suite::DeviceRun result = suite::run_benchmark(device, bench);
    ASSERT_TRUE(result.ok()) << result.fail_reason;
    const vortex::Cluster& cluster = device.cluster();
    uint64_t slept = 0;
    for (uint32_t c = 0; c < cluster.num_cores(); ++c) {
      const vortex::Core& core = cluster.core(c);
      EXPECT_EQ(core.logic_ticks() + core.slept_ticks(), result.total_cycles) << "core " << c;
      slept += core.slept_ticks();
    }
    if (idle_skip) {
      EXPECT_GT(slept, 0u);
      EXPECT_LT(cluster.ticks(), result.total_cycles);
    } else {
      EXPECT_EQ(slept, 0u);
      EXPECT_EQ(cluster.ticks(), result.total_cycles);
    }
  }
}

// ---------------------------------------------------------------------------
// Decode cache: cold/warm equivalence and invalidation on reset
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

TEST(DecodeCacheTest, WarmRefetchHitsAndResetInvalidates) {
  auto prog = vasm::assemble(kLoopProgram);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  mem::MainMemory memory;
  memory.write(prog->base, prog->words.data(), prog->size_bytes());
  vortex::Cluster cluster(vortex::Config::with(1, 4, 8), memory);

  auto first = cluster.run(prog->entry());
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const uint64_t fills1 = cluster.core(0).decode_cache_fills();
  const uint64_t hits1 = cluster.core(0).decode_cache_hits();
  // Every distinct PC decodes exactly once; the 100-iteration loop body
  // refetches the same PCs, which must be served from the decode cache.
  EXPECT_GT(fills1, 0u);
  EXPECT_GT(hits1, fills1);
  EXPECT_EQ(memory.load32(0x20000000), 5050u);  // sum 1..100

  // Second launch: reset() must invalidate the cache wholesale (the runtime
  // may rewrite the code region between launches), so the same program
  // fills the same number of entries again — and, with a warm host-side
  // cache being the only difference, reports identical cycles.
  auto second = cluster.run(prog->entry());
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(cluster.core(0).decode_cache_fills(), 2 * fills1);
  EXPECT_EQ(cluster.core(0).decode_cache_hits(), 2 * hits1);
  EXPECT_TRUE(first->perf == second->perf);
}

// ---------------------------------------------------------------------------
// next_tick: the cached wake-up cycles idle skipping relies on
// ---------------------------------------------------------------------------

// A cache over a DRAM ticked in the cluster's order; sends happen in
// `cycle`, after its tick (cycle 0 is ticked at construction).
struct CacheHarness {
  mem::DramModel dram;
  mem::Cache cache;
  std::vector<uint64_t> responses;
  uint64_t cycle = 0;

  explicit CacheHarness(mem::CacheConfig config = {},
                        mem::DramConfig dram_config = mem::DramConfig::ddr4())
      : dram(dram_config), cache(config, &dram) {
    tick_at(0);
  }

  void tick_at(uint64_t c) {
    dram.tick(c);
    for (const uint64_t id : dram.responses()) cache.on_lower_response(id, c);
    dram.responses().clear();
    cache.tick(c);
    responses.insert(responses.end(), cache.responses().begin(), cache.responses().end());
    cache.responses().clear();
  }

  void tick(int n = 1) {
    for (int i = 0; i < n; ++i) tick_at(++cycle);
  }

  void send(uint64_t id, uint32_t addr, bool write = false) {
    while (!cache.can_accept(cycle)) tick();
    cache.send(mem::MemRequest{.id = id, .addr = addr, .is_write = write}, cycle);
  }
};

TEST(NextEventTest, IdleCacheReportsNoEvent) {
  CacheHarness h;
  h.tick(4);
  EXPECT_EQ(h.cache.next_tick(), mem::kNoEvent);
  EXPECT_EQ(h.dram.next_tick(), mem::kNoEvent);
}

TEST(NextEventTest, MissRetriesEveryCycleUntilFillSent) {
  CacheHarness h;
  h.tick();
  ASSERT_TRUE(h.cache.can_accept(h.cycle));
  h.cache.send(mem::MemRequest{.id = 1, .addr = 0x1000, .is_write = false}, h.cycle);
  // The miss allocated an MSHR whose fill has not gone to DRAM yet: the
  // cache must be ticked next cycle (its send time depends on back-pressure
  // the cache cannot predict).
  EXPECT_EQ(h.cache.next_tick(), h.cycle + 1);
  h.tick();
  EXPECT_EQ(h.dram.stats().reads, 1u);  // the fill went out on that tick
  EXPECT_EQ(h.cache.next_tick(), mem::kNoEvent);
  EXPECT_GT(h.dram.next_tick(), h.cycle);
}

TEST(NextEventTest, HitResponseMaturesExactlyAtPredictedCycle) {
  CacheHarness h;
  h.tick();
  h.cache.send(mem::MemRequest{.id = 1, .addr = 0x1000, .is_write = false}, h.cycle);
  // Drive until the fill response lands (miss path). Once the fill request
  // is queued in DRAM, the pending event belongs to the DRAM, not the cache
  // (the response reaches it through on_lower_response before its tick) —
  // so the invariant, like the cluster's idle-skip wake-up, is over the
  // MINIMUM of both components' next ticks: it must never lie later than
  // the cycle the next response actually fires.
  while (h.responses.empty()) {
    ASSERT_LT(h.cycle, 10000u);
    const uint64_t predicted = std::min(h.cache.next_tick(), h.dram.next_tick());
    ASSERT_NE(predicted, mem::kNoEvent);
    h.tick();
    if (!h.responses.empty()) {
      EXPECT_GE(h.cycle, predicted);
    }
  }
  // Quiesce, then hit the now-resident line: the next tick must be the
  // exact maturity cycle of the hit response.
  h.tick(4);
  ASSERT_EQ(h.cache.next_tick(), mem::kNoEvent);
  h.responses.clear();
  h.cache.send(mem::MemRequest{.id = 2, .addr = 0x1000, .is_write = false}, h.cycle);
  const uint64_t predicted = h.cache.next_tick();
  ASSERT_NE(predicted, mem::kNoEvent);
  while (h.responses.empty()) {
    ASSERT_LT(h.cycle, predicted + 10);
    h.tick();
  }
  EXPECT_EQ(h.cycle, predicted);  // response fired on the predicted cycle
}

TEST(NextEventTest, DramFrontOfQueueIsTheEarliestEvent) {
  mem::DramModel dram{mem::DramConfig::ddr4()};
  uint64_t cycle = 0;
  dram.tick(cycle);
  ASSERT_TRUE(dram.can_accept(cycle));
  dram.send(mem::MemRequest{.id = 7, .addr = 0x2000, .is_write = false}, cycle);
  const uint64_t predicted = dram.next_tick();
  ASSERT_NE(predicted, mem::kNoEvent);
  while (dram.responses().empty()) {
    ASSERT_LT(cycle, predicted + 10);
    dram.tick(++cycle);
  }
  EXPECT_EQ(cycle, predicted);
  EXPECT_EQ(dram.responses(), std::vector<uint64_t>{7});
  EXPECT_EQ(dram.next_tick(), mem::kNoEvent);
}

// Cycles restart at 0 on every launch, so a component's cached next tick
// from the last launch means nothing in the next one. A writeback queued
// by a fill but not yet sent when the launch ends must go out at the next
// launch's cycle 0, as it would had the cache been ticked every cycle.
TEST(NextEventTest, LaunchBoundaryReevaluatesAtCycleZero) {
  mem::CacheConfig config;
  config.size_bytes = 256;  // 16 lines of 16 B
  config.ways = 2;
  CacheHarness h(config);
  const uint32_t set_stride = config.num_sets() * mem::kLineBytes;
  h.send(1, 0x0, /*write=*/true);  // dirty line A
  h.send(2, set_stride);           // line B, same set
  while (h.responses.size() < 2) h.tick();
  // Line C (same set) evicts dirty A when its fill lands. Deliver the fill
  // by hand and end the launch before the cache's tick of that cycle.
  h.send(3, 2 * set_stride);
  h.tick();  // the fill goes to DRAM
  ASSERT_EQ(h.dram.stats().reads, 3u);
  uint64_t c = h.cycle;
  while (h.dram.responses().empty()) h.dram.tick(++c);
  for (const uint64_t id : h.dram.responses()) h.cache.on_lower_response(id, c);
  h.dram.responses().clear();
  EXPECT_EQ(h.cache.stats().writebacks, 1u);
  EXPECT_EQ(h.cache.next_tick(), c);  // the writeback is due this cycle
  // Launch boundary (Cluster::reset): stats reset, cycles restart at 0.
  h.cache.flush();
  h.cache.reset_stats();
  h.dram.reset_stats();
  EXPECT_EQ(h.cache.next_tick(), 0u);
  EXPECT_EQ(h.dram.next_tick(), 0u);
  h.dram.tick(0);
  h.cache.tick(0);
  EXPECT_EQ(h.dram.stats().writes, 1u);  // sent at the new launch's cycle 0
  EXPECT_EQ(h.cache.next_tick(), mem::kNoEvent);
}

}  // namespace
}  // namespace fgpu
