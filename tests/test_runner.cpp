// Tests for the parallel suite runner and the fgpu.stats.v1 exporter:
// regex filtering, workload-seed derivation, trace capture through the
// runner, and the central determinism contract — the stats JSON is
// byte-identical whether the suite ran on 1 worker thread or 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/log.hpp"
#include "same_document.hpp"
#include "suite/compare.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"

namespace fgpu::suite {
namespace {

TEST(FilterNames, EmptySelectsAllInCanonicalOrder) {
  auto names = filter_names("");
  ASSERT_TRUE(names.is_ok());
  EXPECT_EQ(*names, all_benchmark_names());
  EXPECT_EQ(names->size(), 28u);
}

TEST(FilterNames, RegexSubsetsPreserveOrder) {
  auto names = filter_names("^(transpose|vecadd)$");
  ASSERT_TRUE(names.is_ok());
  ASSERT_EQ(names->size(), 2u);
  // Canonical suite order, not regex-alternation order.
  const auto all = all_benchmark_names();
  const auto pos = [&](const std::string& n) {
    return std::find(all.begin(), all.end(), n) - all.begin();
  };
  EXPECT_LT(pos((*names)[0]), pos((*names)[1]));
}

TEST(FilterNames, BadRegexIsAnError) {
  auto names = filter_names("(unclosed");
  EXPECT_FALSE(names.is_ok());
  EXPECT_EQ(names.status().kind(), ErrorKind::kInvalidArgument);
}

TEST(BenchmarkSeed, StableAndDistinct) {
  EXPECT_EQ(benchmark_seed(1, "vecadd"), benchmark_seed(1, "vecadd"));
  EXPECT_NE(benchmark_seed(1, "vecadd"), benchmark_seed(1, "saxpy"));
  EXPECT_NE(benchmark_seed(1, "vecadd"), benchmark_seed(2, "vecadd"));
}

TEST(RunAll, RunsFilteredSubsetOnBothDevices) {
  Log::level() = LogLevel::kOff;
  RunnerOptions options;
  options.filter = "^vecadd$";
  auto result = run_all(options);
  ASSERT_TRUE(result.is_ok());
  ASSERT_EQ(result->outcomes.size(), 1u);
  const auto& outcome = result->outcomes[0];
  EXPECT_EQ(outcome.name, "vecadd");
  EXPECT_TRUE(outcome.ran_vortex);
  EXPECT_TRUE(outcome.ran_hls);
  EXPECT_TRUE(outcome.vortex.ok());
  EXPECT_TRUE(outcome.hls.ok());
  EXPECT_EQ(result->vortex_passes(), 1);
  EXPECT_EQ(outcome.workload_seed, benchmark_seed(options.suite_seed, "vecadd"));
  EXPECT_EQ(outcome.trace, nullptr);  // capture_trace defaults off
}

TEST(RunAll, CapturesTraceWithKernelEvents) {
  Log::level() = LogLevel::kOff;
  RunnerOptions options;
  options.filter = "^vecadd$";
  options.capture_trace = true;
  auto result = run_all(options);
  ASSERT_TRUE(result.is_ok());
  const auto& outcome = result->outcomes[0];
  if (!trace::kEnabled) {
    GTEST_SKIP() << "built with -DFGPU_TRACE=OFF";
  }
  ASSERT_NE(outcome.trace, nullptr);
  EXPECT_FALSE(outcome.trace->empty());
  // Both devices must have emitted a kernel-launch complete event whose
  // duration matches the recorded cycle count.
  int kernel_events = 0;
  for (const auto& e : outcome.trace->events()) {
    if (e.phase == trace::Phase::kComplete) {
      ++kernel_events;
      EXPECT_GT(e.dur, 0u);
    }
  }
  EXPECT_EQ(kernel_events, 2);

  std::ostringstream os;
  write_trace_json(os, *result);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"vecadd\""), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'), std::count(out.begin(), out.end(), '}'));
}

// The PR's acceptance criterion: sharding across threads must not change
// the stats in any observable way — same bytes, not just same numbers.
TEST(RunAll, StatsJsonIsByteIdenticalAcrossJobCounts) {
  Log::level() = LogLevel::kOff;
  RunnerOptions options;
  options.filter = "^(vecadd|saxpy|dotproduct|transpose)$";

  options.jobs = 1;
  auto serial = run_all(options);
  ASSERT_TRUE(serial.is_ok());
  ASSERT_EQ(serial->outcomes.size(), 4u);
  std::ostringstream serial_json;
  write_stats_json(serial_json, options, *serial);

  options.jobs = 4;
  auto parallel = run_all(options);
  ASSERT_TRUE(parallel.is_ok());
  std::ostringstream parallel_json;
  write_stats_json(parallel_json, options, *parallel);

  test::expect_same_document(serial_json.str(), parallel_json.str(), "stats --jobs=1 vs 4");
  // And the schema header is what OBSERVABILITY.md documents.
  EXPECT_NE(serial_json.str().find(std::string("\"schema\": \"") + kStatsSchema + "\""),
            std::string::npos);
}

// Same contract for the profiler export: per-PC tables, occupancy
// timelines, and conflict histograms come out of worker threads, yet the
// fgpu.profile.v1 document must not depend on scheduling.
TEST(RunAll, ProfileJsonIsByteIdenticalAcrossJobCounts) {
  Log::level() = LogLevel::kOff;
  RunnerOptions options;
  options.filter = "^(vecadd|saxpy|dotproduct|transpose)$";
  options.run_hls = false;
  options.capture_profile = true;

  options.jobs = 1;
  auto serial = run_all(options);
  ASSERT_TRUE(serial.is_ok());
  ASSERT_EQ(serial->outcomes.size(), 4u);
  for (const auto& outcome : serial->outcomes) {
    EXPECT_FALSE(outcome.vortex.kernel_profiles.empty()) << outcome.name;
  }
  std::ostringstream serial_json;
  write_profile_json(serial_json, options, *serial);

  options.jobs = 4;
  auto parallel = run_all(options);
  ASSERT_TRUE(parallel.is_ok());
  std::ostringstream parallel_json;
  write_profile_json(parallel_json, options, *parallel);

  test::expect_same_document(serial_json.str(), parallel_json.str(), "profile --jobs=1 vs 4");
  EXPECT_NE(serial_json.str().find(std::string("\"schema\": \"") + kProfileSchema + "\""),
            std::string::npos);
}

// Same contract for the HLS-side profile: per-site attribution and the
// structured synthesis reports must not depend on scheduling either.
TEST(RunAll, HlsprofJsonIsByteIdenticalAcrossJobCounts) {
  Log::level() = LogLevel::kOff;
  RunnerOptions options;
  // Include a failing benchmark (backprop: "Not enough BRAM") so the
  // failed-fit synth reports are exercised by the byte-compare too.
  options.filter = "^(vecadd|saxpy|backprop|transpose)$";
  options.run_vortex = false;

  options.jobs = 1;
  auto serial = run_all(options);
  ASSERT_TRUE(serial.is_ok());
  ASSERT_EQ(serial->outcomes.size(), 4u);
  for (const auto& outcome : serial->outcomes) {
    EXPECT_FALSE(outcome.hls.hls_profiles.empty()) << outcome.name;
  }
  std::ostringstream serial_json;
  write_hlsprof_json(serial_json, options, *serial);

  options.jobs = 4;
  auto parallel = run_all(options);
  ASSERT_TRUE(parallel.is_ok());
  std::ostringstream parallel_json;
  write_hlsprof_json(parallel_json, options, *parallel);

  test::expect_same_document(serial_json.str(), parallel_json.str(), "hlsprof --jobs=1 vs 4");
  EXPECT_NE(serial_json.str().find(std::string("\"schema\": \"") + kHlsProfSchema + "\""),
            std::string::npos);
}

// The comparison document joins both flows' runs, so it inherits both
// determinism contracts at once.
TEST(RunAll, CompareJsonIsByteIdenticalAcrossJobCounts) {
  Log::level() = LogLevel::kOff;
  RunnerOptions options;
  options.filter = "^(vecadd|saxpy|backprop|hybridsort)$";

  options.jobs = 1;
  auto serial = run_all(options);
  ASSERT_TRUE(serial.is_ok());
  ASSERT_EQ(serial->outcomes.size(), 4u);
  std::ostringstream serial_json;
  write_compare_json(serial_json, options, *serial);

  options.jobs = 4;
  auto parallel = run_all(options);
  ASSERT_TRUE(parallel.is_ok());
  std::ostringstream parallel_json;
  write_compare_json(parallel_json, options, *parallel);

  test::expect_same_document(serial_json.str(), parallel_json.str(), "compare --jobs=1 vs 4");
  const std::string json = serial_json.str();
  EXPECT_NE(json.find(std::string("\"schema\": \"") + kCompareSchema + "\""), std::string::npos);
  // vecadd/saxpy run on both flows; backprop and hybridsort are the paper's
  // Table-I HLS failures, so they must land in the failure diff.
  EXPECT_NE(json.find("\"coverage\": \"both\""), std::string::npos);
  EXPECT_NE(json.find("\"coverage\": \"vortex_only\""), std::string::npos);
  EXPECT_NE(json.find("\"hls_fail_reason\": \"Not enough BRAM\""), std::string::npos);
  EXPECT_NE(json.find("\"hls_fail_reason\": \"Atomics\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"hls_failed\""), std::string::npos);
}

// The fgpu.hlsprof.v1 exact-sum contract, asserted across the whole suite:
// for every benchmark and kernel, the per-site stall attribution accounts
// for every modeled memory-stall cycle — no leakage, no double counting.
TEST(RunAll, HlsSiteStallsSumExactlyAcrossFullSuite) {
  Log::level() = LogLevel::kOff;
  // Both boards: the paper's MX2100 (HBM2 — issue-bound, stalls mostly 0)
  // and the DDR4 SX2800, whose narrow channel makes strided benchmarks
  // genuinely bandwidth-stall so the apportionment is exercised for real.
  int kernels_with_stalls = 0;
  for (const auto* board : {&fpga::stratix10_mx2100(), &fpga::stratix10_sx2800()}) {
    RunnerOptions options;
    options.run_vortex = false;
    options.hls_board = board;
    options.jobs = 4;
    auto result = run_all(options);
    ASSERT_TRUE(result.is_ok());
    ASSERT_EQ(result->outcomes.size(), 28u);
    for (const auto& outcome : result->outcomes) {
      ASSERT_TRUE(outcome.ran_hls);
      EXPECT_FALSE(outcome.hls.hls_profiles.empty()) << outcome.name;
      for (const auto& profile : outcome.hls.hls_profiles) {
        uint64_t sum = 0;
        for (const auto& site : profile.sites) sum += site.stall_cycles;
        EXPECT_EQ(sum, profile.memory_stall_cycles)
            << board->name << " / " << outcome.name << " / " << profile.kernel;
        if (profile.memory_stall_cycles > 0) ++kernels_with_stalls;
        // The structured synthesis report is present for every build
        // attempt, and its rows decompose the total exactly.
        EXPECT_EQ(profile.synth.kernel, profile.kernel);
        fpga::AreaReport row_sum;
        for (const auto& row : profile.synth.rows) row_sum += row.area;
        EXPECT_EQ(row_sum.brams, profile.synth.total.brams) << profile.kernel;
        EXPECT_EQ(row_sum.aluts, profile.synth.total.aluts) << profile.kernel;
      }
    }
  }
  // The contract is only interesting if some kernels actually stall.
  EXPECT_GT(kernels_with_stalls, 0);
}

}  // namespace
}  // namespace fgpu::suite
