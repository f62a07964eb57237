// Reproduces Table I: benchmark coverage of the soft-GPU (Vortex) flow vs
// the Intel-HLS-like flow over the 28-benchmark suite. The paper's result:
// Vortex runs all 28; the HLS flow fails lbm / backprop / b+tree / dwt2d /
// lud ("Not enough BRAM") and hybridsort ("Atomics").
//
// Runs through suite::run_all, so it shares the parallel runner and the
// fgpu.stats.v1 exporter with fgpu-run:
//   table1_coverage [--jobs=N] [--json=PATH]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/log.hpp"
#include "suite/runner.hpp"

using namespace fgpu;

int main(int argc, char** argv) {
  Log::level() = LogLevel::kOff;
  suite::RunnerOptions options;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      options.jobs = static_cast<uint32_t>(std::stoul(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--jobs=N] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }

  auto result = suite::run_all(options);
  if (!result.is_ok()) {
    std::fprintf(stderr, "table1_coverage: %s\n", result.status().message().c_str());
    return 2;
  }

  printf("Table I — Benchmark Coverage (left: Vortex soft GPU, right: Intel-HLS-like)\n");
  printf("Soft GPU: %s on %s; HLS: %s\n\n", options.vortex_config.to_string().c_str(),
         fpga::stratix10_sx2800().name.c_str(), fpga::stratix10_mx2100().name.c_str());
  printf("%-16s | %-8s | %-8s | %-18s | %-18s\n", "Benchmark", "Vortex", "IntelSDK",
         "Reason to fail", "Paper");
  printf("-----------------+----------+----------+--------------------+-------------------\n");

  int matches = 0;
  for (const auto& outcome : result->outcomes) {
    const auto& vx = outcome.vortex;
    const auto& hls = outcome.hls;
    const char* paper_failure = suite::paper_hls_failure(outcome.name);
    const std::string expected = paper_failure == nullptr ? "" : paper_failure;
    const bool match = vx.ok() && (hls.ok() ? expected.empty() : hls.fail_reason == expected);
    matches += match;
    printf("%-16s | %-8s | %-8s | %-18s | %-18s %s\n", outcome.name.c_str(), vx.ok() ? "O" : "X",
           hls.ok() ? "O" : "X", hls.ok() ? "" : hls.fail_reason.c_str(),
           expected.empty() ? "O" : expected.c_str(), match ? "" : "  <-- MISMATCH");
  }
  printf("\nVortex: %d/28 pass   Intel-HLS-like: %d/28 pass (paper: 28 and 22)\n",
         result->vortex_passes(), result->hls_passes());
  printf("Rows matching the paper's Table I: %d/28   (%.0f ms wall)\n", matches, result->wall_ms);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "table1_coverage: cannot write '%s'\n", json_path.c_str());
      return 2;
    }
    suite::write_stats_json(out, options, *result);
    printf("stats -> %s\n", json_path.c_str());
  }
  return matches == 28 ? 0 : 1;
}
