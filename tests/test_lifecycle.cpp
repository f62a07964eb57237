// Tests for the device-pool lifecycle (PR 8): Device::reset() must restore
// construction-time state exactly — a benchmark run on a recycled device is
// indistinguishable, counter for counter and byte for byte, from the same
// run on a freshly constructed one. Also covers the process-wide caches the
// pool leans on: the compiled-kernel cache (same pointer on hit, distinct
// entries per options/target) and the generated-workload cache.
#include <gtest/gtest.h>

#include <sstream>

#include "common/log.hpp"
#include "runtime/hls_device.hpp"
#include "runtime/kernel_cache.hpp"
#include "runtime/turbo_device.hpp"
#include "runtime/vortex_device.hpp"
#include "same_document.hpp"
#include "suite/device_pool.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"

namespace fgpu::suite {
namespace {

// ---------------------------------------------------------------------------
// Process-wide caches

TEST(KernelCache, HitReturnsSharedEntryAndCounts) {
  const Benchmark bench = make_benchmark("vecadd");
  ASSERT_FALSE(bench.module.kernels.empty());
  const kir::Kernel& kernel = bench.module.kernels[0];
  const codegen::Options options;

  auto& cache = vcl::KernelCache::instance();
  const auto before = cache.stats();
  auto first = cache.compile(kernel, options, "lifecycle-test-target");
  auto second = cache.compile(kernel, options, "lifecycle-test-target");
  ASSERT_TRUE(first.status.is_ok());
  ASSERT_TRUE(second.status.is_ok());
  // A hit is the *same* compiled object, not an equal copy.
  EXPECT_EQ(first.compiled.get(), second.compiled.get());
  const auto after = cache.stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_GE(after.hits, before.hits + 1);

  // A different target identity must not alias, even for the same kernel
  // and options (the DESIGN.md cache-key contract).
  auto other_target = cache.compile(kernel, options, "lifecycle-test-target-b");
  ASSERT_TRUE(other_target.status.is_ok());
  EXPECT_NE(other_target.compiled.get(), first.compiled.get());

  // Different codegen options miss too — and -O0 vs -O2 genuinely produce
  // different binaries for a real kernel.
  codegen::Options o0 = options;
  o0.opt_level = 0;
  auto unopt = cache.compile(kernel, o0, "lifecycle-test-target");
  ASSERT_TRUE(unopt.status.is_ok());
  EXPECT_NE(unopt.compiled.get(), first.compiled.get());
}

TEST(WorkloadCache, SharesOneImmutableInstance) {
  clear_workload_cache();
  auto first = shared_benchmark("vecadd");
  auto second = shared_benchmark("vecadd");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
  const auto stats = workload_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // The memoized oracle rides in the same cache: one interpretation, then
  // shared — and its buffers equal an inline reference_run exactly.
  auto ref_a = shared_reference("vecadd");
  auto ref_b = shared_reference("vecadd");
  ASSERT_NE(ref_a, nullptr);
  EXPECT_EQ(ref_a.get(), ref_b.get());
  EXPECT_EQ(workload_cache_stats().reference_misses, 1u);
  EXPECT_EQ(workload_cache_stats().reference_hits, 1u);
  auto inline_ref = reference_run(*first);
  ASSERT_TRUE(inline_ref.is_ok());
  EXPECT_EQ(*ref_a, *inline_ref);
  // And the cached instance is the same workload make_benchmark builds.
  const Benchmark direct = make_benchmark("vecadd");
  EXPECT_EQ(first->name, direct.name);
  EXPECT_EQ(first->buffers, direct.buffers);
  EXPECT_EQ(first->launches.size(), direct.launches.size());
  clear_workload_cache();
  EXPECT_EQ(workload_cache_stats().misses, 0u);
}

// ---------------------------------------------------------------------------
// Cycle-exact tier: reset() vs fresh construction

// bfs is the divergence-heavy probe (data-dependent frontier branching),
// lbm the memory-bound one (19-point streaming stencil, HLS BRAM failure in
// Table I). Run each on a fresh device and on a device dirtied by the
// *other* benchmark and re-armed with reset(): cycles, instruction counts,
// output digests, per-PC profiles and PerfCounters must match exactly.
TEST(DeviceLifecycle, VortexResetMatchesFreshDevice) {
  Log::level() = LogLevel::kOff;
  vortex::Config config = vortex::Config::with(4, 8, 8);
  config.profile = true;  // per-PC tables make the comparison strict
  const Benchmark bfs = make_benchmark("bfs");
  const Benchmark lbm = make_benchmark("lbm");

  vcl::VortexDevice dev_a(config);  // fresh reference for bfs
  const DeviceRun bfs_fresh = run_benchmark(dev_a, bfs);
  vcl::VortexDevice dev_b(config);  // fresh reference for lbm
  const DeviceRun lbm_fresh = run_benchmark(dev_b, lbm);
  ASSERT_TRUE(bfs_fresh.ok());
  ASSERT_TRUE(lbm_fresh.ok());

  // Cross-arm: each device now re-runs the *other* workload after reset(),
  // so stale caches/DRAM/profiler state from a different benchmark is what
  // reset() has to erase.
  dev_b.reset();
  const DeviceRun bfs_reused = run_benchmark(dev_b, bfs);
  dev_a.reset();
  const DeviceRun lbm_reused = run_benchmark(dev_a, lbm);
  ASSERT_TRUE(bfs_reused.ok());
  ASSERT_TRUE(lbm_reused.ok());

  const auto expect_identical = [](const DeviceRun& fresh, const DeviceRun& reused,
                                   const char* tag) {
    EXPECT_EQ(fresh.total_cycles, reused.total_cycles) << tag;
    EXPECT_EQ(fresh.total_instrs, reused.total_instrs) << tag;
    EXPECT_EQ(fresh.output_digest, reused.output_digest) << tag;
    ASSERT_EQ(fresh.kernel_profiles.size(), reused.kernel_profiles.size()) << tag;
    for (size_t i = 0; i < fresh.kernel_profiles.size(); ++i) {
      const KernelProfile& f = fresh.kernel_profiles[i];
      const KernelProfile& r = reused.kernel_profiles[i];
      EXPECT_EQ(f.kernel, r.kernel) << tag;
      EXPECT_EQ(f.launches, r.launches) << tag;
      EXPECT_EQ(f.perf, r.perf) << tag << "/" << f.kernel;
      EXPECT_EQ(f.profile.by_pc, r.profile.by_pc) << tag << "/" << f.kernel;
      EXPECT_EQ(f.profile.l1d_set_conflicts, r.profile.l1d_set_conflicts) << tag;
      EXPECT_EQ(f.profile.l2_set_conflicts, r.profile.l2_set_conflicts) << tag;
      ASSERT_EQ(f.profile.occupancy.size(), r.profile.occupancy.size()) << tag;
      for (size_t s = 0; s < f.profile.occupancy.size(); ++s) {
        EXPECT_EQ(f.profile.occupancy[s].cycle, r.profile.occupancy[s].cycle) << tag;
        EXPECT_EQ(f.profile.occupancy[s].ready, r.profile.occupancy[s].ready) << tag;
        EXPECT_EQ(f.profile.occupancy[s].blocked, r.profile.occupancy[s].blocked) << tag;
        EXPECT_EQ(f.profile.occupancy[s].idle, r.profile.occupancy[s].idle) << tag;
      }
    }
  };
  expect_identical(bfs_fresh, bfs_reused, "bfs");
  expect_identical(lbm_fresh, lbm_reused, "lbm");
}

// Same A/B with the memory profiler on: the mem-hierarchy miss classes of a
// reused device must match a fresh one (stale L1/L2/DRAM state would show
// up here first, as cold misses turning into hits).
TEST(DeviceLifecycle, VortexResetMatchesFreshMemProfile) {
  Log::level() = LogLevel::kOff;
  vortex::Config config = vortex::Config::with(4, 8, 8);
  config.memprof = true;
  const Benchmark lbm = make_benchmark("lbm");
  const Benchmark bfs = make_benchmark("bfs");

  vcl::VortexDevice fresh(config);
  const DeviceRun a = run_benchmark(fresh, lbm);
  vcl::VortexDevice reused(config);
  (void)run_benchmark(reused, bfs);  // dirty the hierarchy
  reused.reset();
  const DeviceRun b = run_benchmark(reused, lbm);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a.total_cycles, b.total_cycles);
  ASSERT_EQ(a.mem_profiles.size(), b.mem_profiles.size());
  ASSERT_FALSE(a.mem_profiles.empty());
  for (size_t i = 0; i < a.mem_profiles.size(); ++i) {
    const mem::MemHierarchyProfile& f = a.mem_profiles[i].mem;
    const mem::MemHierarchyProfile& r = b.mem_profiles[i].mem;
    EXPECT_EQ(f.l1d.classes, r.l1d.classes);
    EXPECT_EQ(f.l1d.by_tag, r.l1d.by_tag);
    EXPECT_EQ(f.l1d.reuse, r.l1d.reuse);
    EXPECT_EQ(f.l2.classes, r.l2.classes);
    EXPECT_EQ(f.l2.by_tag, r.l2.by_tag);
    EXPECT_EQ(f.l1d.mshr_cycles, r.l1d.mshr_cycles);
  }
}

// ---------------------------------------------------------------------------
// Functional tier: translation retention across reset()

TEST(DeviceLifecycle, TurboResetKeepsTranslationsForSameBinarySet) {
  Log::level() = LogLevel::kOff;
  vcl::TurboDevice dev(vortex::Config::with(4, 8, 8));
  const Benchmark bfs = make_benchmark("bfs");

  const DeviceRun first = run_benchmark(dev, bfs);
  ASSERT_TRUE(first.ok());
  const vortex::jit::TurboStats warm = dev.jit_stats();
  EXPECT_GT(warm.blocks_translated, 0u);

  // reset() + rebuild of the byte-identical binary set: translated blocks
  // carry over — the warm --repeat case. Zero new translations, zero
  // counted invalidations, same functional result.
  dev.reset();
  const DeviceRun second = run_benchmark(dev, bfs);
  ASSERT_TRUE(second.ok());
  const vortex::jit::TurboStats after = dev.jit_stats();
  EXPECT_EQ(second.output_digest, first.output_digest);
  EXPECT_EQ(second.total_instrs, first.total_instrs);
  EXPECT_EQ(after.blocks_translated, warm.blocks_translated);
  EXPECT_EQ(after.invalidations, warm.invalidations);
  EXPECT_GT(after.block_hits, warm.block_hits);
}

TEST(DeviceLifecycle, TurboResetDropsTranslationsForDifferentBinarySet) {
  Log::level() = LogLevel::kOff;
  vcl::TurboDevice dev(vortex::Config::with(4, 8, 8));
  const Benchmark bfs = make_benchmark("bfs");
  const Benchmark vecadd = make_benchmark("vecadd");

  (void)run_benchmark(dev, bfs);
  const vortex::jit::TurboStats warm = dev.jit_stats();

  // A different benchmark's binary set digests differently: the stale
  // blocks are dropped *silently* (no counted invalidation — a fresh
  // device's empty caches would not have counted one either), and the run
  // matches a fresh device bit for bit.
  dev.reset();
  const DeviceRun reused = run_benchmark(dev, vecadd);
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(dev.jit_stats().invalidations, warm.invalidations);

  vcl::TurboDevice fresh(vortex::Config::with(4, 8, 8));
  const DeviceRun reference = run_benchmark(fresh, vecadd);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reused.output_digest, reference.output_digest);
  EXPECT_EQ(reused.total_instrs, reference.total_instrs);
}

// ---------------------------------------------------------------------------
// HLS tier: reset() vs fresh, through the synthesis cache

TEST(DeviceLifecycle, HlsResetMatchesFreshDevice) {
  Log::level() = LogLevel::kOff;
  const Benchmark stencil = make_benchmark("stencil");
  const Benchmark vecadd = make_benchmark("vecadd");

  vcl::HlsDevice fresh;
  const DeviceRun a = run_benchmark(fresh, stencil);
  vcl::HlsDevice reused;
  (void)run_benchmark(reused, vecadd);  // dirty buffers + build state
  reused.reset();
  const DeviceRun b = run_benchmark(reused, stencil);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.output_digest, b.output_digest);
  EXPECT_EQ(a.area.brams, b.area.brams);
  EXPECT_EQ(a.area.aluts, b.area.aluts);
  EXPECT_EQ(a.synthesis_hours, b.synthesis_hours);
  ASSERT_EQ(a.hls_profiles.size(), b.hls_profiles.size());
  for (size_t i = 0; i < a.hls_profiles.size(); ++i) {
    const HlsKernelProfile& f = a.hls_profiles[i];
    const HlsKernelProfile& r = b.hls_profiles[i];
    EXPECT_EQ(f.device_cycles, r.device_cycles);
    EXPECT_EQ(f.memory_stall_cycles, r.memory_stall_cycles);
    ASSERT_EQ(f.sites.size(), r.sites.size());
    for (size_t s = 0; s < f.sites.size(); ++s) {
      EXPECT_EQ(f.sites[s].requests, r.sites[s].requests);
      EXPECT_EQ(f.sites[s].bytes, r.sites[s].bytes);
      EXPECT_EQ(f.sites[s].stall_cycles, r.sites[s].stall_cycles);
    }
  }
}

// ---------------------------------------------------------------------------
// Suite-wide contract: every byte-gated document is identical pooled vs
// --fresh, at both ends of the -O spectrum (the CI cmp gate in test form).

TEST(DeviceLifecycle, SuiteDocsByteIdenticalPooledVsFresh) {
  Log::level() = LogLevel::kOff;
  for (const int opt_level : {0, 2}) {
    RunnerOptions options;
    // Divergence-heavy (bfs), memory-bound (lbm, also the Table-I BRAM
    // failure so failed-synth reports are in the byte compare), a stencil,
    // and a baseline streaming kernel.
    options.filter = "^(vecadd|stencil|lbm|bfs)$";
    options.jobs = 2;
    options.opt_level = opt_level;
    options.run_turbo = true;
    test::capture_every_document(&options);

    options.reuse_devices = true;
    auto pooled = run_all(options);
    ASSERT_TRUE(pooled.is_ok());
    ASSERT_EQ(pooled->outcomes.size(), 4u);
    // The pool only hands out warm devices *within* one run_all here, but
    // the workload + kernel caches must have been exercised.
    EXPECT_GT(pooled->reuse.workload_cache_misses + pooled->reuse.workload_cache_hits, 0u);

    options.reuse_devices = false;
    auto fresh = run_all(options);
    ASSERT_TRUE(fresh.is_ok());

    test::expect_same_documents(options, *pooled, *fresh,
                                "pooled vs fresh -O" + std::to_string(opt_level));
  }
}

// An externally owned pool kept across run_all calls (the fgpu-run --repeat
// wiring): the second run must reuse devices, hit the kernel cache for
// every compile, and still produce byte-identical stats.
TEST(DeviceLifecycle, WarmPoolAcrossRunsHitsCachesAndKeepsBytes) {
  Log::level() = LogLevel::kOff;
  RunnerOptions options;
  options.filter = "^(vecadd|bfs)$";
  options.run_turbo = true;
  DevicePool pool;
  options.pool = &pool;

  auto cold = run_all(options);
  ASSERT_TRUE(cold.is_ok());
  auto warm = run_all(options);
  ASSERT_TRUE(warm.is_ok());

  // Every device run of the warm pass got a pooled device.
  uint64_t device_runs = 0;
  for (const auto& outcome : warm->outcomes) {
    device_runs += outcome.ran_vortex + outcome.ran_hls + outcome.ran_turbo;
  }
  EXPECT_EQ(device_runs, 3 * warm->outcomes.size());
  EXPECT_EQ(warm->reuse.device_reuse_count, device_runs);
  // Every kernel of the warm run was compiled in the cold run under the
  // same options/target: all cache hits, no compile.
  EXPECT_GT(warm->reuse.kernel_cache_hits, 0u);
  EXPECT_EQ(warm->reuse.kernel_cache_misses, 0u);
  EXPECT_EQ(warm->reuse.hls_cache_misses, 0u);
  EXPECT_EQ(warm->reuse.workload_cache_misses, 0u);

  std::ostringstream cold_json, warm_json;
  write_stats_json(cold_json, options, *cold);
  write_stats_json(warm_json, options, *warm);
  test::expect_same_document(cold_json.str(), warm_json.str(), "stats cold vs warm pool");
}

}  // namespace
}  // namespace fgpu::suite
