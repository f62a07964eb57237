// Suite-level integration tests: every one of the paper's 28 benchmarks
// runs and verifies on the soft GPU, and the HLS flow reproduces the
// paper's Table I coverage outcome per benchmark. Plus independent
// native-C++ reference checks for selected benchmarks (validating the
// interpreter oracle itself).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "kir/passes.hpp"
#include "runtime/hls_device.hpp"
#include "runtime/vortex_device.hpp"
#include "suite/suite.hpp"

namespace fgpu {
namespace {

class SuiteVortex : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteVortex, RunsAndVerifies) {
  Log::level() = LogLevel::kOff;
  auto bench = suite::make_benchmark(GetParam());
  ASSERT_FALSE(bench.module.kernels.empty());
  vcl::VortexDevice device(vortex::Config::with(4, 8, 8));
  const auto run = suite::run_benchmark(device, bench);
  EXPECT_TRUE(run.build.is_ok()) << run.build.to_string();
  EXPECT_TRUE(run.run.is_ok()) << run.run.to_string();
  EXPECT_TRUE(run.verify.is_ok()) << run.verify.to_string();
  EXPECT_GT(run.total_cycles, 0u);
}

class SuiteHlsCoverage : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteHlsCoverage, MatchesPaperTableI) {
  Log::level() = LogLevel::kOff;
  const std::string& name = GetParam();
  auto bench = suite::make_benchmark(name);
  vcl::HlsDevice device;
  const auto run = suite::run_benchmark(device, bench);

  const bool paper_bram_fail =
      name == "lbm" || name == "backprop" || name == "b+tree" || name == "dwt2d" || name == "lud";
  const bool paper_atomics_fail = name == "hybridsort";
  const char* listed = suite::paper_hls_failure(name);
  EXPECT_EQ(std::string(listed == nullptr ? "" : listed),
            paper_bram_fail ? "Not enough BRAM" : paper_atomics_fail ? "Atomics" : "");
  if (paper_bram_fail) {
    EXPECT_FALSE(run.build.is_ok());
    EXPECT_EQ(run.fail_reason, "Not enough BRAM") << run.build.to_string();
  } else if (paper_atomics_fail) {
    EXPECT_FALSE(run.build.is_ok());
    EXPECT_EQ(run.fail_reason, "Atomics") << run.build.to_string();
  } else {
    EXPECT_TRUE(run.ok()) << run.build.to_string() << " | " << run.run.to_string() << " | "
                          << run.verify.to_string();
  }
}

std::string sanitize(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(All, SuiteVortex, ::testing::ValuesIn(suite::all_benchmark_names()),
                         sanitize);
INSTANTIATE_TEST_SUITE_P(All, SuiteHlsCoverage,
                         ::testing::ValuesIn(suite::all_benchmark_names()), sanitize);

// ---------------------------------------------------------------------------
// Independent native references (the interpreter oracle must agree with
// plain C++ implementations within floating-point tolerance).
// ---------------------------------------------------------------------------

float rel_err(float got, float want) {
  return std::fabs(got - want) / (std::fabs(want) + 1e-6f);
}

TEST(SuiteNativeReference, VecaddExact) {
  auto bench = suite::make_benchmark("vecadd");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  const auto& a = bench.buffers[0];
  const auto& b = bench.buffers[1];
  const auto& c = (*result)[2];
  for (size_t i = 0; i < c.size(); ++i) {
    ASSERT_EQ(u2f(c[i]), u2f(a[i]) + u2f(b[i])) << i;
  }
}

TEST(SuiteNativeReference, MatmulTolerance) {
  auto bench = suite::make_benchmark("matmul");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  const uint32_t n = 40;
  const auto& a = bench.buffers[0];
  const auto& b = bench.buffers[1];
  const auto& c = (*result)[2];
  for (uint32_t row = 0; row < n; row += 7) {
    for (uint32_t col = 0; col < n; col += 7) {
      double acc = 0;
      for (uint32_t k = 0; k < n; ++k) {
        acc += static_cast<double>(u2f(a[row * n + k])) * u2f(b[k * n + col]);
      }
      EXPECT_LT(rel_err(u2f(c[row * n + col]), static_cast<float>(acc)), 1e-4f);
    }
  }
}

TEST(SuiteNativeReference, PsortProducesSortedPermutation) {
  auto bench = suite::make_benchmark("psort");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  std::vector<int32_t> input, output;
  for (uint32_t v : bench.buffers[0]) input.push_back(static_cast<int32_t>(v));
  for (uint32_t v : (*result)[0]) output.push_back(static_cast<int32_t>(v));
  EXPECT_TRUE(std::is_sorted(output.begin(), output.end()));
  std::sort(input.begin(), input.end());
  EXPECT_EQ(input, output);
}

TEST(SuiteNativeReference, PathfinderDynamicProgram) {
  auto bench = suite::make_benchmark("pathfinder");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  const uint32_t cols = 512, rows = 16;
  const auto& wall = bench.buffers[0];
  std::vector<int32_t> dp(cols);
  for (uint32_t c = 0; c < cols; ++c) dp[c] = static_cast<int32_t>(wall[c]);
  for (uint32_t r = 1; r < rows; ++r) {
    std::vector<int32_t> next(cols);
    for (uint32_t c = 0; c < cols; ++c) {
      int32_t best = dp[c];
      if (c > 0) best = std::min(best, dp[c - 1]);
      if (c + 1 < cols) best = std::min(best, dp[c + 1]);
      next[c] = static_cast<int32_t>(wall[r * cols + c]) + best;
    }
    dp = std::move(next);
  }
  // Final row lands in buffer 1 (odd number of remaining rows -> see bench).
  const auto& final_buf = (*result)[(rows - 1) % 2 == 1 ? 2 : 1];
  for (uint32_t c = 0; c < cols; ++c) {
    EXPECT_EQ(static_cast<int32_t>(final_buf[c]), dp[c]) << "col " << c;
  }
}

TEST(SuiteNativeReference, KmeansAssignsNearestCentroid) {
  auto bench = suite::make_benchmark("kmeans");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  const uint32_t points = 1024, k = 8, dims = 4;
  const auto& features = bench.buffers[0];
  const auto& clusters = bench.buffers[1];
  const auto& membership = (*result)[2];
  for (uint32_t p = 0; p < points; p += 37) {
    int best = 0;
    float best_dist = 3.4e38f;
    for (uint32_t c = 0; c < k; ++c) {
      float dist = 0;
      for (uint32_t d = 0; d < dims; ++d) {
        const float diff = u2f(features[p * dims + d]) - u2f(clusters[c * dims + d]);
        dist += diff * diff;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = static_cast<int>(c);
      }
    }
    EXPECT_EQ(static_cast<int>(membership[p]), best) << "point " << p;
  }
}

TEST(SuiteNativeReference, GaussianSolvesSystem) {
  // After Fan1/Fan2 elimination, back-substitution must satisfy A0 x = b0.
  auto bench = suite::make_benchmark("gaussian");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  const uint32_t n = 32;
  const auto& a0 = bench.buffers[0];
  const auto& b0 = bench.buffers[1];
  const auto& a = (*result)[0];
  const auto& b = (*result)[1];
  std::vector<double> x(n, 0.0);
  for (int i = static_cast<int>(n) - 1; i >= 0; --i) {
    double sum = u2f(b[static_cast<uint32_t>(i)]);
    for (uint32_t j = static_cast<uint32_t>(i) + 1; j < n; ++j) {
      sum -= static_cast<double>(u2f(a[static_cast<uint32_t>(i) * n + j])) * x[j];
    }
    x[static_cast<uint32_t>(i)] = sum / u2f(a[static_cast<uint32_t>(i) * n + i]);
  }
  for (uint32_t i = 0; i < n; i += 5) {
    double lhs = 0;
    for (uint32_t j = 0; j < n; ++j) lhs += static_cast<double>(u2f(a0[i * n + j])) * x[j];
    EXPECT_NEAR(lhs, u2f(b0[i]), 1e-2) << "row " << i;
  }
}

TEST(SuiteNativeReference, NwMatchesSequentialDp) {
  auto bench = suite::make_benchmark("nw");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  const uint32_t n = 48, size = n + 1;
  const int32_t penalty = 10;
  const auto& reference = bench.buffers[1];
  std::vector<int32_t> dp(size * size, 0);
  for (uint32_t k = 0; k < size; ++k) {
    dp[k] = -static_cast<int32_t>(k) * penalty;
    dp[k * size] = -static_cast<int32_t>(k) * penalty;
  }
  for (uint32_t i = 1; i < size; ++i) {
    for (uint32_t j = 1; j < size; ++j) {
      const int32_t diag =
          dp[(i - 1) * size + j - 1] + static_cast<int32_t>(reference[i * size + j]);
      dp[i * size + j] =
          std::max({diag, dp[(i - 1) * size + j] - penalty, dp[i * size + j - 1] - penalty});
    }
  }
  const auto& items = (*result)[0];
  for (uint32_t i = 1; i < size; i += 9) {
    for (uint32_t j = 1; j < size; j += 9) {
      EXPECT_EQ(static_cast<int32_t>(items[i * size + j]), dp[i * size + j])
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(SuiteNativeReference, BlackscholesClosedForm) {
  auto bench = suite::make_benchmark("blackscholes");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  auto cnd = [](double d) {
    const double k = 1.0 / (1.0 + 0.2316419 * std::fabs(d));
    const double poly =
        k * (0.319381530 +
             k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
    const double w = 1.0 - 0.39894228040 * std::exp(-0.5 * d * d) * poly;
    return d < 0 ? 1.0 - w : w;
  };
  const double r = 0.02, vol = 0.30;
  for (uint32_t i = 0; i < 2048; i += 111) {
    const double s = u2f(bench.buffers[0][i]);
    const double x = u2f(bench.buffers[1][i]);
    const double t = u2f(bench.buffers[2][i]);
    const double d1 = (std::log(s / x) + (r + 0.5 * vol * vol) * t) / (vol * std::sqrt(t));
    const double d2 = d1 - vol * std::sqrt(t);
    const double call = s * cnd(d1) - x * std::exp(-r * t) * cnd(d2);
    // Deep out-of-the-money options have tiny values where single-precision
    // CND differences amplify relative error; allow 2%.
    EXPECT_LT(rel_err(u2f((*result)[3][i]), static_cast<float>(call)), 2e-2f) << "option " << i;
  }
}

TEST(SuiteNativeReference, SpmvMatchesDense) {
  auto bench = suite::make_benchmark("spmv");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  const uint32_t rows = 512;
  const auto& row_ptr = bench.buffers[0];
  const auto& cols = bench.buffers[1];
  const auto& vals = bench.buffers[2];
  const auto& x = bench.buffers[3];
  for (uint32_t r = 0; r < rows; r += 19) {
    float acc = 0;
    for (uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      acc += u2f(vals[k]) * u2f(x[cols[k]]);
    }
    EXPECT_LT(rel_err(u2f((*result)[4][r]), acc), 1e-4f) << "row " << r;
  }
}

TEST(SuiteNativeReference, BtreeFindKLocatesKeys) {
  auto bench = suite::make_benchmark("b+tree");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  const auto& keys = bench.buffers[2];
  const auto& queries = bench.buffers[3];
  const auto& answers = (*result)[4];
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto it = std::find(keys.begin(), keys.end(), queries[q]);
    const int expected = it == keys.end() ? -1 : static_cast<int>(it - keys.begin());
    EXPECT_EQ(static_cast<int>(answers[q]), expected) << "query " << q;
  }
}

TEST(SuiteNativeReference, BtreeRangeCounts) {
  auto bench = suite::make_benchmark("b+tree");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  const auto& keys = bench.buffers[2];
  const auto& queries = bench.buffers[3];
  const auto& counts = (*result)[5];
  const int32_t range = 24;
  for (size_t q = 0; q < queries.size(); q += 13) {
    const int32_t lo = static_cast<int32_t>(queries[q]);
    int expected = 0;
    for (uint32_t key : keys) {
      const auto k = static_cast<int32_t>(key);
      if (k >= lo && k < lo + range) ++expected;
    }
    EXPECT_EQ(static_cast<int>(counts[q]), expected) << "query " << q;
  }
}

TEST(SuiteNativeReference, BfsLevelsMatchNativeBfs) {
  auto bench = suite::make_benchmark("bfs");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  const uint32_t nodes = 512, degree = 4;
  const auto& edges = bench.buffers[2];
  std::vector<int> level(nodes, -1);
  std::vector<uint32_t> frontier = {0};
  level[0] = 0;
  while (!frontier.empty()) {
    std::vector<uint32_t> next;
    for (uint32_t v : frontier) {
      for (uint32_t e = 0; e < degree; ++e) {
        const uint32_t u = edges[v * degree + e];
        if (level[u] < 0) {
          level[u] = level[v] + 1;
          next.push_back(u);
        }
      }
    }
    frontier = std::move(next);
  }
  const auto& cost = (*result)[6];
  const auto& visited = (*result)[5];
  for (uint32_t v = 0; v < nodes; ++v) {
    if (level[v] >= 0) {
      EXPECT_EQ(visited[v], 1u) << "node " << v;
      EXPECT_EQ(static_cast<int>(cost[v]), level[v]) << "node " << v;
    } else {
      EXPECT_EQ(visited[v], 0u) << "node " << v;
    }
  }
}

TEST(SuiteNativeReference, LudReconstructsMatrix) {
  auto bench = suite::make_benchmark("lud");
  auto result = suite::reference_run(bench);
  ASSERT_TRUE(result.is_ok());
  const uint32_t n = 32;
  const auto& a0 = bench.buffers[0];
  const auto& lu = (*result)[0];
  // L (unit lower) x U must reproduce the original matrix.
  for (uint32_t i = 0; i < n; i += 5) {
    for (uint32_t j = 0; j < n; j += 5) {
      double acc = 0;
      const uint32_t kmax = std::min(i, j);
      for (uint32_t k = 0; k < kmax; ++k) {
        acc += static_cast<double>(u2f(lu[i * n + k])) * u2f(lu[k * n + j]);
      }
      if (i <= j) {
        acc += u2f(lu[i * n + j]);  // diagonal of L is 1
      } else {
        acc += static_cast<double>(u2f(lu[i * n + kmax])) * u2f(lu[kmax * n + j]);
      }
      EXPECT_NEAR(acc, u2f(a0[i * n + j]), 0.05) << "(" << i << "," << j << ")";
    }
  }
}

TEST(SuiteProperty, AllBenchmarksHaveVerifiedNotes) {
  for (const auto& name : suite::all_benchmark_names()) {
    auto bench = suite::make_benchmark(name);
    EXPECT_FALSE(bench.module.kernels.empty()) << name;
    EXPECT_FALSE(bench.origin.empty()) << name;
    EXPECT_FALSE(bench.notes.empty()) << name;
    EXPECT_FALSE(bench.launches.empty()) << name;
    for (const auto& kernel : bench.module.kernels) {
      EXPECT_TRUE(kir::verify(kernel).is_ok()) << name << "/" << kernel.name;
    }
    // Work-group sizes stay within the suite's dispatch cap.
    for (const auto& launch : bench.launches) {
      EXPECT_LE(launch.ndrange.local_items(), suite::Benchmark::kMaxWorkGroup)
          << name << "/" << launch.kernel;
    }
  }
}

}  // namespace
}  // namespace fgpu
