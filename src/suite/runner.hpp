// Parallel suite runner: shards the 28 Table-I benchmarks across worker
// threads. Safe because each benchmark run is fully independent — every
// worker runs an immutable shared Benchmark (factories seed their Rng with
// fixed per-benchmark constants) on its own device instance, acquired from
// the device pool and re-armed with Device::reset() (or constructed fresh
// under --fresh), so a run's cycle counts are identical whether it executed
// on 1 thread or 16, pooled or not. Results are aggregated in canonical
// suite order regardless of completion order; the determinism test
// (tests/test_runner.cpp) asserts jobs=1 and jobs=4 produce byte-identical
// stats JSON, and tests/test_lifecycle.cpp asserts pooled == fresh.
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "codegen/codegen.hpp"
#include "common/status.hpp"
#include "suite/suite.hpp"
#include "trace/json.hpp"
#include "trace/trace.hpp"
#include "vortex/config.hpp"
#include "vortex/jit/turbo.hpp"

namespace fgpu::suite {

class DevicePool;

struct RunnerOptions {
  // ECMAScript regex matched (std::regex_search) against benchmark names;
  // empty selects all 28.
  std::string filter;
  // Worker threads; 0 = std::thread::hardware_concurrency().
  uint32_t jobs = 1;
  bool run_vortex = true;
  bool run_hls = true;
  // Functional tier (binary translation): same binaries and board as the
  // soft GPU, digest-comparable outputs, no timing. Off by default — the
  // cycle-exact tier stays the default correctness + timing path.
  bool run_turbo = false;
  vortex::Config vortex_config = vortex::Config::with(4, 8, 8);
  // Boards default to the paper's pairing: SX2800 (DDR4) for the soft GPU,
  // MX2100 (HBM2) for the HLS flow.
  const fpga::Board* vortex_board = nullptr;
  const fpga::Board* hls_board = nullptr;
  // Mixed into each benchmark's workload_seed (recorded in the stats
  // schema; consumed by workloads that randomize beyond their built-in
  // fixed seeds).
  uint64_t suite_seed = 0xF69A;
  // Guest-code optimization level for the soft-GPU compiler (clamped 0..2
  // by codegen); recorded in every suite header so baselines are
  // self-describing. 0 is the straight-lowering oracle used by the
  // differential CI step.
  int opt_level = 2;
  // Record a trace::Sink per benchmark (exported via write_trace_json).
  bool capture_trace = false;
  // Collect the per-PC cycle profile on the soft GPU (exported via
  // write_profile_json; see vortex/profile.hpp and OBSERVABILITY.md).
  bool capture_profile = false;
  // Collect the memory-hierarchy profile (miss classes, reuse distances,
  // occupancy histograms) on the soft GPU and the HLS burst-LSU read path
  // (exported via write_mem_json; see mem/memprof.hpp). Observational
  // only: cycle counts are identical with it on or off.
  bool capture_memprof = false;
  // Collect structured optimization remarks + per-pass telemetry from the
  // soft-GPU compiler (exported via write_codegen_json as fgpu.codegen.v1;
  // see codegen/remarks.hpp). Observational only: the emitted binaries and
  // every cycle count are identical with it on or off (the sink changes the
  // KernelCache key but never the compiled program).
  bool capture_remarks = false;
  // When > 0, write_codegen_json ranks each kernel's remarks by the
  // measured cycles of their provenance site (PC -> KIR source join against
  // the per-PC profile) and emits the top K as a "hotspots" array. Needs
  // capture_profile for cycles to exist; 0 disables the join.
  int remark_hotspots = 0;
  // Per-pass ablation switches forwarded to the soft-GPU compiler (also
  // part of the kernel-cache key). Used by the optimizer-regression
  // experiments (fgpu-run --ablate=...).
  codegen::Options::PassAblation ablate;
  // Device + workload reuse (the fast path). Workers re-arm pooled devices
  // with Device::reset() instead of constructing fresh ones, and benchmarks
  // come from the process-wide workload cache. reset()'s contract makes
  // this observable only in host time and ReuseStats; every byte-gated
  // document is identical either way (CI's fresh-vs-pooled cmp gate).
  // --fresh turns it off — the A/B reference path.
  bool reuse_devices = true;
  // Externally owned pool kept warm across run_all calls (fgpu-run
  // --repeat: repeat N reuses repeat N-1's devices, which is where the
  // kernel-cache and turbo-translation wins land). Null with reuse_devices
  // set = a pool scoped to this run_all call.
  DevicePool* pool = nullptr;
};

struct BenchmarkOutcome {
  std::string name;
  std::string origin;
  uint64_t workload_seed = 0;
  bool ran_vortex = false;
  bool ran_hls = false;
  bool ran_turbo = false;
  DeviceRun vortex;
  DeviceRun hls;
  DeviceRun turbo;
  std::string vortex_device;  // device name strings for the report
  std::string hls_device;
  std::string turbo_device;
  // Cumulative translation/dispatch counters of the turbo run
  // (deterministic: warp scheduling is single-threaded round-robin).
  vortex::jit::TurboStats turbo_jit;
  std::unique_ptr<trace::Sink> trace;  // set when capture_trace
};

// Reuse-machinery counters of one run_all call (deltas of the process-wide
// caches over the run, plus the pool's hand-outs).
struct ReuseStats {
  uint64_t device_reuse_count = 0;      // devices handed out warm
  uint64_t kernel_cache_hits = 0;       // compiled-kernel cache (vortex+turbo)
  uint64_t kernel_cache_misses = 0;
  uint64_t hls_cache_hits = 0;          // HLS synthesis cache
  uint64_t hls_cache_misses = 0;
  uint64_t workload_cache_hits = 0;     // generated-benchmark cache
  uint64_t workload_cache_misses = 0;
  uint64_t reference_cache_hits = 0;    // memoized interpreter oracle
  uint64_t reference_cache_misses = 0;
};

struct SuiteRunResult {
  std::vector<BenchmarkOutcome> outcomes;  // canonical Table-I order
  // Host wall-clock of the whole run. Intentionally NOT serialized: the
  // stats JSON must be identical across --jobs values.
  double wall_ms = 0.0;
  // Cache/pool activity during this run (never serialized).
  ReuseStats reuse;

  int vortex_passes() const;
  int hls_passes() const;
  int turbo_passes() const;
};

// FNV-1a derivation: stable across platforms, distinct per benchmark.
uint64_t benchmark_seed(uint64_t suite_seed, const std::string& name);

// Benchmark names matching `regex`, in canonical order. Error on a bad
// regex; empty regex selects everything.
Result<std::vector<std::string>> filter_names(const std::string& regex);

// Runs every selected benchmark on the selected device(s).
Result<SuiteRunResult> run_all(const RunnerOptions& options);

// Serializes the run to the fgpu.stats.v1 schema (OBSERVABILITY.md).
void write_stats_json(std::ostream& os, const RunnerOptions& options,
                      const SuiteRunResult& result);

// Serializes the per-PC profiles to the fgpu.profile.v1 schema. Same
// determinism contract as the stats: byte-identical across --jobs.
void write_profile_json(std::ostream& os, const RunnerOptions& options,
                        const SuiteRunResult& result);

// Serializes the HLS per-site attribution + structured synthesis reports to
// the fgpu.hlsprof.v1 schema (OBSERVABILITY.md "HLS profiles"). Same
// determinism contract: byte-identical across --jobs.
void write_hlsprof_json(std::ostream& os, const RunnerOptions& options,
                        const SuiteRunResult& result);

// Serializes the memory-hierarchy profiles (per-level miss classes, reuse
// distances, MSHR/DRAM occupancy histograms, per-PC / per-site miss
// attribution) to the fgpu.mem.v1 schema. Same determinism contract:
// byte-identical across --jobs.
void write_mem_json(std::ostream& os, const RunnerOptions& options,
                    const SuiteRunResult& result);

// One cycle-joined remark: `remark` points into kc.compiled->report (the
// caller keeps the shared CompiledKernel alive); cycles/stall_cycles are
// the measured issue-stage cycles of the remark's provenance site (every
// PC whose source-map string equals remark->site, summed).
struct RemarkHotspot {
  const codegen::Remark* remark = nullptr;
  uint64_t cycles = 0;
  uint64_t stall_cycles = 0;
};

// Ranks the remarks of one kernel's codegen report by attributed cycle
// impact (descending cycles, ties in emission order) against the kernel's
// per-PC profile in `run`. Remarks whose site accrued no cycles are
// dropped; at most `top_k` entries return. Deterministic: the profile and
// the remark stream are both deterministic, and ties are ordered.
std::vector<RemarkHotspot> rank_remarks(const DeviceRun& run, const KernelCodegen& kc,
                                        size_t top_k);

// Serializes the compiler-observability reports (per-pass telemetry +
// optimization remarks, optionally cycle-joined hotspot rankings) to the
// fgpu.codegen.v1 schema (OBSERVABILITY.md "Codegen reports"). Same
// determinism contract: byte-identical across --jobs and fresh-vs-pooled
// (remarks replay byte-identically out of the KernelCache); per-pass wall
// times are deliberately never serialized.
void write_codegen_json(std::ostream& os, const RunnerOptions& options,
                        const SuiteRunResult& result);

// Shared "suite" header object of every suite-level document (stats,
// profile, hlsprof, compare): run configuration + benchmark count.
void write_suite_header(trace::JsonWriter& w, const RunnerOptions& options,
                        const SuiteRunResult& result);

// Merges per-benchmark trace sinks into one Chrome trace_event file
// (pid = benchmark position, process name = benchmark name).
void write_trace_json(std::ostream& os, const SuiteRunResult& result);

}  // namespace fgpu::suite
