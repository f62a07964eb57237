// Tests for the compiler-observability layer (fgpu.codegen.v1): remark
// determinism — cold compile vs KernelCache replay and jobs=1 vs jobs=4
// must yield byte-identical documents at every -O level — plus the
// telescoping per-pass telemetry contract, provenance on every remark, and
// the observational-only guarantee (remarks on/off never changes the
// byte-gated stats).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/log.hpp"
#include "runtime/kernel_cache.hpp"
#include "same_document.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"

namespace fgpu::suite {
namespace {

RunnerOptions remark_options(int opt_level) {
  RunnerOptions options;
  // lud exercises the pressure ladder, pathfinder the full -O2 pipeline,
  // vecadd the trivial path.
  options.filter = "^(vecadd|lud|pathfinder)$";
  options.run_hls = false;
  options.capture_remarks = true;
  options.opt_level = opt_level;
  return options;
}

std::string codegen_doc(const RunnerOptions& options) {
  auto result = run_all(options);
  EXPECT_TRUE(result.is_ok());
  std::ostringstream os;
  write_codegen_json(os, options, *result);
  return os.str();
}

// The ISSUE's replay contract: a remark stream stored in a KernelCache
// entry replays byte-identically — compiling cold and re-"compiling" via a
// cache hit export the same document, at every optimization level.
TEST(Remarks, ColdAndCacheReplayAreByteIdentical) {
  Log::level() = LogLevel::kOff;
  for (int opt_level : {0, 1, 2}) {
    auto options = remark_options(opt_level);
    vcl::KernelCache::instance().clear();
    const std::string cold = codegen_doc(options);
    const auto cold_stats = vcl::KernelCache::instance().stats();
    EXPECT_GT(cold_stats.misses, 0u) << "-O" << opt_level;

    const std::string warm = codegen_doc(options);
    const auto warm_stats = vcl::KernelCache::instance().stats();
    // The second run compiled nothing: every kernel came out of the cache.
    EXPECT_EQ(warm_stats.misses, cold_stats.misses) << "-O" << opt_level;
    EXPECT_GT(warm_stats.hits, cold_stats.hits) << "-O" << opt_level;

    test::expect_same_document(cold, warm, "codegen cold vs replay -O" + std::to_string(opt_level));
    EXPECT_NE(cold.find(std::string("\"schema\": \"") + kCodegenSchema + "\""),
              std::string::npos);
  }
}

// Same determinism contract as every other exported document: sharding the
// suite across worker threads must not change a byte — remark streams are
// per-kernel and emission-ordered, and aggregation is canonical-order.
TEST(Remarks, CodegenJsonIsByteIdenticalAcrossJobCounts) {
  Log::level() = LogLevel::kOff;
  for (int opt_level : {0, 1, 2}) {
    auto options = remark_options(opt_level);
    options.jobs = 1;
    const std::string serial = codegen_doc(options);
    options.jobs = 4;
    const std::string parallel = codegen_doc(options);
    test::expect_same_document(serial, parallel,
                               "codegen --jobs=1 vs 4 -O" + std::to_string(opt_level));
  }
}

// The cycle join inherits both contracts at once: hotspot rankings are a
// pure function of the (deterministic) per-PC profile and the remark
// stream, so the hotspot-bearing document is byte-stable too.
TEST(Remarks, HotspotRankingIsByteIdenticalAcrossJobCounts) {
  Log::level() = LogLevel::kOff;
  auto options = remark_options(2);
  options.capture_profile = true;  // cycles for the join
  options.remark_hotspots = 5;

  options.jobs = 1;
  auto serial = run_all(options);
  ASSERT_TRUE(serial.is_ok());
  std::ostringstream serial_json;
  write_codegen_json(serial_json, options, *serial);

  options.jobs = 4;
  auto parallel = run_all(options);
  ASSERT_TRUE(parallel.is_ok());
  std::ostringstream parallel_json;
  write_codegen_json(parallel_json, options, *parallel);

  test::expect_same_document(serial_json.str(), parallel_json.str(), "hotspots --jobs=1 vs 4");
  EXPECT_NE(serial_json.str().find("\"hotspots\""), std::string::npos);

  // rank_remarks' own contract: descending attributed cycles, at most K
  // entries, every entry joined to real measured work.
  for (const auto& outcome : serial->outcomes) {
    for (const auto& kc : outcome.vortex.codegen) {
      const auto ranked = rank_remarks(outcome.vortex, kc, 5);
      EXPECT_LE(ranked.size(), 5u);
      for (size_t i = 0; i < ranked.size(); ++i) {
        ASSERT_NE(ranked[i].remark, nullptr);
        EXPECT_GT(ranked[i].cycles, 0u) << outcome.name << " / " << kc.kernel;
        if (i > 0) EXPECT_GE(ranked[i - 1].cycles, ranked[i].cycles);
      }
    }
  }
}

// The telescoping contract from remarks.hpp: within each metric domain,
// stage i's `before` equals the most recent prior stage's `after`, and the
// final emit size equals the compiled kernel's real instruction count.
TEST(Remarks, PerPassTelemetryTelescopesExactly) {
  Log::level() = LogLevel::kOff;
  auto options = remark_options(2);
  auto result = run_all(options);
  ASSERT_TRUE(result.is_ok());

  int kernels_checked = 0;
  for (const auto& outcome : result->outcomes) {
    ASSERT_FALSE(outcome.vortex.codegen.empty()) << outcome.name;
    for (const auto& kc : outcome.vortex.codegen) {
      ASSERT_NE(kc.compiled, nullptr);
      const auto& report = kc.compiled->report;
      ASSERT_TRUE(report.collected);
      ASSERT_FALSE(report.passes.empty());
      EXPECT_EQ(report.passes.front().pass, "expand-builtins");
      EXPECT_EQ(report.passes.back().pass, "emit");

      // Walk every metric through the pipeline: a stage that declares a
      // `before` for a metric must agree with the last stage that declared
      // an `after` for it.
      constexpr int codegen::IrSnapshot::* kMetrics[] = {
          &codegen::IrSnapshot::kir_nodes, &codegen::IrSnapshot::minstrs,
          &codegen::IrSnapshot::vregs, &codegen::IrSnapshot::max_pressure,
          &codegen::IrSnapshot::stack_refs};
      for (auto metric : kMetrics) {
        int last = -1;
        for (const auto& stage : report.passes) {
          const int before = stage.before.*metric;
          const int after = stage.after.*metric;
          if (before >= 0 && last >= 0) {
            EXPECT_EQ(before, last)
                << outcome.name << " / " << kc.kernel << " stage " << stage.pass;
          }
          if (after >= 0) last = after;
        }
      }

      // The pipeline's final word: emit's `after` is the emitted program.
      const auto& emit = report.passes.back();
      EXPECT_EQ(emit.after.minstrs,
                static_cast<int>(kc.compiled->instruction_count));
      EXPECT_EQ(emit.after.minstrs,
                static_cast<int>(kc.compiled->program.words.size()));

      // Per-stage remark counts account for every remark the pipeline
      // emitted; only the post-pipeline pressure-ladder steps sit outside.
      int in_stages = 0;
      for (const auto& stage : report.passes) in_stages += stage.remarks;
      int ladder = 0;
      for (const auto& r : report.remarks) {
        if (r.pass == "pressure-ladder") ++ladder;
      }
      EXPECT_EQ(in_stages + ladder, static_cast<int>(report.remarks.size()))
          << outcome.name << " / " << kc.kernel;
      ++kernels_checked;
    }
  }
  EXPECT_GT(kernels_checked, 0);
}

// Every remark carries resolvable provenance and a well-formed action.
TEST(Remarks, EveryRemarkHasProvenanceAndAction) {
  Log::level() = LogLevel::kOff;
  auto options = remark_options(2);
  auto result = run_all(options);
  ASSERT_TRUE(result.is_ok());

  int remarks_seen = 0;
  for (const auto& outcome : result->outcomes) {
    for (const auto& kc : outcome.vortex.codegen) {
      for (const auto& r : kc.compiled->report.remarks) {
        EXPECT_FALSE(r.pass.empty());
        EXPECT_FALSE(r.name.empty());
        EXPECT_FALSE(r.site.empty()) << outcome.name << " " << r.pass << "." << r.name;
        EXPECT_TRUE(r.action == "applied" || r.action == "missed" || r.action == "blocked")
            << r.action;
        // Rule ids are dot-scoped ("licm.hoist", "ra.spill", ...).
        EXPECT_NE(r.name.find('.'), std::string::npos) << r.name;
        ++remarks_seen;
      }
    }
  }
  // -O2 on lud + pathfinder must produce a rich stream.
  EXPECT_GT(remarks_seen, 20);
}

// Observational-only: collecting remarks changes no byte of the byte-gated
// stats document (same binaries, same cycles — the sink only watches).
TEST(Remarks, CollectionDoesNotPerturbStats) {
  Log::level() = LogLevel::kOff;
  RunnerOptions options;
  options.filter = "^(vecadd|lud|pathfinder)$";
  options.run_hls = false;

  options.capture_remarks = false;
  auto off = run_all(options);
  ASSERT_TRUE(off.is_ok());
  // With the layer off, no benchmark carries a codegen report.
  for (const auto& outcome : off->outcomes) {
    EXPECT_TRUE(outcome.vortex.codegen.empty()) << outcome.name;
  }
  std::ostringstream off_json;
  write_stats_json(off_json, options, *off);

  options.capture_remarks = true;
  auto on = run_all(options);
  ASSERT_TRUE(on.is_ok());
  std::ostringstream on_json;
  write_stats_json(on_json, options, *on);

  test::expect_same_document(off_json.str(), on_json.str(), "stats remarks off vs on");
}

}  // namespace
}  // namespace fgpu::suite
