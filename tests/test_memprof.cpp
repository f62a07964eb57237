// Suite-level memory-profiler tests (fgpu.mem.v1): determinism across
// worker counts, zero drift of the stats document when profiling is on,
// exact-sum contracts across real benchmarks, and the provenance joins
// (per-PC on the soft GPU, per-AccessSite on the HLS read path).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "arch/isa.hpp"
#include "common/log.hpp"
#include "same_document.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"

namespace fgpu::suite {
namespace {

RunnerOptions memprof_options(const std::string& filter) {
  Log::level() = LogLevel::kOff;
  RunnerOptions options;
  options.filter = filter;
  options.capture_memprof = true;
  return options;
}

// The mem document comes out of worker threads, yet must not depend on
// scheduling: profiles are merged per benchmark in canonical order and
// every container iterated at export is ordered.
TEST(MemProf, MemJsonIsByteIdenticalAcrossJobCounts) {
  RunnerOptions options = memprof_options("^(vecadd|saxpy|dotproduct|transpose)$");

  options.jobs = 1;
  auto serial = run_all(options);
  ASSERT_TRUE(serial.is_ok());
  ASSERT_EQ(serial->outcomes.size(), 4u);
  std::ostringstream serial_json;
  write_mem_json(serial_json, options, *serial);

  options.jobs = 4;
  auto parallel = run_all(options);
  ASSERT_TRUE(parallel.is_ok());
  std::ostringstream parallel_json;
  write_mem_json(parallel_json, options, *parallel);

  test::expect_same_document(serial_json.str(), parallel_json.str(), "mem --jobs=1 vs 4");
  EXPECT_NE(serial_json.str().find(std::string("\"schema\": \"") + kMemSchema + "\""),
            std::string::npos);
}

// Zero cycle drift: profiling is observational, so the fgpu.stats.v1
// document — cycle counts included — must be byte-identical with the
// profiler on or off.
TEST(MemProf, StatsJsonIsByteIdenticalWithMemprofOnOrOff) {
  RunnerOptions options = memprof_options("^(vecadd|gaussian|nw)$");

  options.capture_memprof = false;
  auto off = run_all(options);
  ASSERT_TRUE(off.is_ok());
  std::ostringstream off_json;
  write_stats_json(off_json, options, *off);

  options.capture_memprof = true;
  auto on = run_all(options);
  ASSERT_TRUE(on.is_ok());
  std::ostringstream on_json;
  // Serialize with the same options value so only the profiler's effect on
  // the simulation (which must be none) could differ.
  options.capture_memprof = false;
  write_stats_json(on_json, options, *on);

  test::expect_same_document(off_json.str(), on_json.str(), "stats memprof off vs on");
}

// Event-driven idle skipping freezes the hierarchy between events; the
// time-weighted occupancy accounting must charge those windows exactly
// once, so the whole mem document is identical with skipping on or off.
TEST(MemProf, MemJsonIsByteIdenticalAcrossIdleSkip) {
  RunnerOptions options = memprof_options("^(vecadd|saxpy)$");
  options.run_hls = false;

  options.vortex_config.idle_skip = true;
  auto skipping = run_all(options);
  ASSERT_TRUE(skipping.is_ok());
  std::ostringstream skip_json;
  write_mem_json(skip_json, options, *skipping);

  options.vortex_config.idle_skip = false;
  auto ticking = run_all(options);
  ASSERT_TRUE(ticking.is_ok());
  std::ostringstream tick_json;
  options.vortex_config.idle_skip = true;  // serialize under identical options
  write_mem_json(tick_json, options, *ticking);

  test::expect_same_document(skip_json.str(), tick_json.str(), "mem idle skip on vs off");
}

// The tentpole contracts over real benchmarks: per level,
// compulsory + capacity + conflict == misses, the reuse histogram (plus
// cold) covers every access, the by_tag attribution partitions the
// aggregate exactly, and every attributed PC resolves through the kernel
// image and source map.
TEST(MemProf, ExactSumAndProvenanceAcrossBenchmarks) {
  RunnerOptions options = memprof_options("^(vecadd|gaussian|kmeans|nw)$");
  options.jobs = 2;
  auto result = run_all(options);
  ASSERT_TRUE(result.is_ok());
  ASSERT_EQ(result->outcomes.size(), 4u);

  const auto check_level = [](const std::string& where, const mem::CacheMemProfile& p) {
    EXPECT_EQ(p.classes.total(), p.misses) << where;
    EXPECT_EQ(p.reuse_total(), p.accesses) << where;
    mem::MissClasses by_tag_sum;
    for (const auto& [tag, cls] : p.by_tag) by_tag_sum += cls;
    EXPECT_EQ(by_tag_sum, p.classes) << where;
  };

  for (const auto& outcome : result->outcomes) {
    ASSERT_FALSE(outcome.vortex.mem_profiles.empty()) << outcome.name;
    for (const auto& mp : outcome.vortex.mem_profiles) {
      ASSERT_TRUE(mp.mem.enabled);
      check_level(outcome.name + "/l1d", mp.mem.l1d);
      check_level(outcome.name + "/l1i", mp.mem.l1i);
      check_level(outcome.name + "/l2", mp.mem.l2);
      EXPECT_GT(mp.mem.l1d.accesses, 0u) << outcome.name;
      EXPECT_GT(mp.mem.dram.total_requests(), 0u) << outcome.name;
      // Every attributed PC must decode to a real instruction of this
      // kernel's image and carry KIR provenance.
      ASSERT_FALSE(mp.binary.words.empty()) << outcome.name;
      for (const auto& [pc, cls] : mp.mem.l1d.by_tag) {
        const size_t index = (pc - mp.binary.base) / 4;
        ASSERT_LT(index, mp.binary.words.size()) << outcome.name;
        EXPECT_TRUE(arch::decode(mp.binary.words[index]).has_value()) << outcome.name;
      }
    }
    if (!outcome.hls.ok()) continue;
    ASSERT_FALSE(outcome.hls.mem_profiles.empty()) << outcome.name;
    for (const auto& mp : outcome.hls.mem_profiles) {
      check_level(outcome.name + "/readpath", mp.hls_mem);
      EXPECT_GT(mp.hls_mem.accesses, 0u) << outcome.name;
      EXPECT_TRUE(mp.hls_mem.mshr_cycles.empty());  // shadow-only: no MSHRs
      // Every tag is an index into the design's access-site table.
      ASSERT_FALSE(mp.sites.empty()) << outcome.name;
      for (const auto& [tag, cls] : mp.hls_mem.by_tag) {
        ASSERT_LT(tag, mp.sites.size()) << outcome.name;
        EXPECT_NE(mp.sites[tag].lsu, "store") << outcome.name;
      }
    }
  }
}

// Off by default: no profile containers are populated unless requested, so
// the default path allocates nothing for profiling.
TEST(MemProf, DisabledByDefault) {
  Log::level() = LogLevel::kOff;
  RunnerOptions options;
  options.filter = "^vecadd$";
  auto result = run_all(options);
  ASSERT_TRUE(result.is_ok());
  ASSERT_EQ(result->outcomes.size(), 1u);
  EXPECT_TRUE(result->outcomes[0].vortex.mem_profiles.empty());
  EXPECT_TRUE(result->outcomes[0].hls.mem_profiles.empty());
}

}  // namespace
}  // namespace fgpu::suite
