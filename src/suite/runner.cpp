#include "suite/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <regex>
#include <thread>

#include "runtime/hls_cache.hpp"
#include "runtime/hls_device.hpp"
#include "runtime/kernel_cache.hpp"
#include "runtime/turbo_device.hpp"
#include "runtime/vortex_device.hpp"
#include "suite/device_pool.hpp"
#include "suite/report.hpp"

namespace fgpu::suite {

int SuiteRunResult::vortex_passes() const {
  int n = 0;
  for (const auto& outcome : outcomes) n += outcome.ran_vortex && outcome.vortex.ok();
  return n;
}

int SuiteRunResult::hls_passes() const {
  int n = 0;
  for (const auto& outcome : outcomes) n += outcome.ran_hls && outcome.hls.ok();
  return n;
}

int SuiteRunResult::turbo_passes() const {
  int n = 0;
  for (const auto& outcome : outcomes) n += outcome.ran_turbo && outcome.turbo.ok();
  return n;
}

uint64_t benchmark_seed(uint64_t suite_seed, const std::string& name) {
  uint64_t hash = 0xcbf29ce484222325ull ^ suite_seed;
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

Result<std::vector<std::string>> filter_names(const std::string& regex) {
  std::vector<std::string> selected;
  if (regex.empty()) {
    selected = all_benchmark_names();
    return selected;
  }
  try {
    const std::regex re(regex, std::regex::ECMAScript);
    for (const auto& name : all_benchmark_names()) {
      if (std::regex_search(name, re)) selected.push_back(name);
    }
  } catch (const std::regex_error& e) {
    return Result<std::vector<std::string>>(ErrorKind::kInvalidArgument,
                                            "bad --filter regex '" + regex + "': " + e.what());
  }
  return selected;
}

namespace {

// Per-benchmark delta of the engine-cumulative turbo counters. With device
// pooling the engine's totals span every benchmark the device has run, so
// the byte-gated stats document gets the before/after difference — which,
// for a fresh device (before == all-zero), is exactly the cumulative value
// the document carried before pooling existed.
vortex::jit::TurboStats jit_delta(const vortex::jit::TurboStats& after,
                                  const vortex::jit::TurboStats& before) {
  vortex::jit::TurboStats d;
  d.instrs = after.instrs - before.instrs;
  d.blocks_translated = after.blocks_translated - before.blocks_translated;
  d.block_lookups = after.block_lookups - before.block_lookups;
  d.block_hits = after.block_hits - before.block_hits;
  d.chained_dispatches = after.chained_dispatches - before.chained_dispatches;
  d.invalidations = after.invalidations - before.invalidations;
  d.barriers = after.barriers - before.barriers;
  d.ecalls = after.ecalls - before.ecalls;
  return d;
}

// Everything that flows into device construction. Pooled devices are only
// recycled under the same identity — reset() restores construction-time
// state, it cannot change construction parameters.
std::string pool_identity(const RunnerOptions& options) {
  const fpga::Board& vx_board =
      options.vortex_board != nullptr ? *options.vortex_board : fpga::stratix10_sx2800();
  const fpga::Board& hls_board =
      options.hls_board != nullptr ? *options.hls_board : fpga::stratix10_mx2100();
  const unsigned ablate_bits = (options.ablate.kir_licm ? 1u : 0u) |
                               (options.ablate.kir_strength_reduce ? 2u : 0u) |
                               (options.ablate.kir_dce ? 4u : 0u) |
                               (options.ablate.peephole ? 8u : 0u) |
                               (options.ablate.pressure_ladder ? 16u : 0u);
  return options.vortex_config.to_string() + ":O" + std::to_string(options.opt_level) + ":p" +
         std::to_string(options.vortex_config.profile || options.capture_profile) + ":m" +
         std::to_string(options.vortex_config.memprof || options.capture_memprof) + ":r" +
         std::to_string(options.capture_remarks || options.remark_hotspots > 0) + ":a" +
         std::to_string(ablate_bits) + ":" + vx_board.name + ":" + hls_board.name;
}

void run_one(const RunnerOptions& options, DevicePool* pool, const std::string& identity,
             const std::string& name, BenchmarkOutcome& outcome) {
  outcome.name = name;
  outcome.workload_seed = benchmark_seed(options.suite_seed, name);
  if (options.capture_trace) outcome.trace = std::make_unique<trace::Sink>();
  // Install this benchmark's sink on the worker thread for the duration of
  // both device runs; instrumentation in vortex::/mem::/vcl:: picks it up
  // through trace::current().
  trace::ScopedSink scoped(outcome.trace.get());

  // Benchmarks are immutable once generated: the pooled path shares one
  // instance across repeats and workers, --fresh regenerates per run (the
  // A/B reference).
  std::shared_ptr<const Benchmark> shared;
  Benchmark local;
  if (options.reuse_devices) {
    shared = shared_benchmark(name);
  } else {
    local = make_benchmark(name);
  }
  const Benchmark& bench = shared ? *shared : local;
  outcome.origin = bench.origin;

  // Memoized interpreter oracle: one reference run per benchmark per
  // process instead of one per device run (three per repeat under
  // --device=all). Only on the pooled path — --fresh recomputes inline,
  // which is the A/B reference proving the memo changes no byte. Null
  // (custom-verify benchmarks, or a failing oracle) falls back inline.
  std::shared_ptr<const std::vector<std::vector<uint32_t>>> expected;
  if (options.reuse_devices && !bench.custom_verify) expected = shared_reference(name);

  DeviceSet set;
  if (pool != nullptr) set = pool->acquire(identity);

  if (options.run_vortex) {
    const fpga::Board& board =
        options.vortex_board != nullptr ? *options.vortex_board : fpga::stratix10_sx2800();
    vortex::Config config = options.vortex_config;
    config.profile = config.profile || options.capture_profile;
    config.memprof = config.memprof || options.capture_memprof;
    codegen::Options codegen_options;
    codegen_options.opt_level = options.opt_level;
    codegen_options.collect_remarks = options.capture_remarks || options.remark_hotspots > 0;
    codegen_options.ablate = options.ablate;
    if (set.vortex == nullptr) {
      set.vortex = std::make_unique<vcl::VortexDevice>(config, board, codegen_options);
    } else {
      set.vortex->reset();
    }
    outcome.vortex_device = set.vortex->name();
    outcome.vortex = run_benchmark(*set.vortex, bench, expected.get());
    outcome.ran_vortex = true;
  }
  if (options.run_turbo) {
    // Same binaries and board pairing as the soft GPU, so output digests
    // are comparable 1:1 against the cycle-exact run above.
    const fpga::Board& board =
        options.vortex_board != nullptr ? *options.vortex_board : fpga::stratix10_sx2800();
    // Same codegen options as the vortex tier — they share KernelCache
    // entries, and a diverging key would silently double-compile.
    codegen::Options codegen_options;
    codegen_options.opt_level = options.opt_level;
    codegen_options.collect_remarks = options.capture_remarks || options.remark_hotspots > 0;
    codegen_options.ablate = options.ablate;
    if (set.turbo == nullptr) {
      set.turbo = std::make_unique<vcl::TurboDevice>(options.vortex_config, board, codegen_options);
    } else {
      set.turbo->reset();
    }
    outcome.turbo_device = set.turbo->name();
    const vortex::jit::TurboStats jit_before = set.turbo->jit_stats();
    outcome.turbo = run_benchmark(*set.turbo, bench, expected.get());
    outcome.turbo_jit = jit_delta(set.turbo->jit_stats(), jit_before);
    outcome.ran_turbo = true;
  }
  if (options.run_hls) {
    const fpga::Board& board =
        options.hls_board != nullptr ? *options.hls_board : fpga::stratix10_mx2100();
    if (set.hls == nullptr) {
      set.hls = std::make_unique<vcl::HlsDevice>(board);
    } else {
      set.hls->reset();
    }
    if (options.capture_memprof) {
      // Shadow the read path with the soft-GPU L1D geometry so the locality
      // view is directly comparable across the two flows.
      set.hls->set_memprof(true, options.vortex_config.l1d.num_lines(),
                           options.vortex_config.l1d.ways);
    }
    outcome.hls_device = set.hls->name();
    outcome.hls = run_benchmark(*set.hls, bench, expected.get());
    outcome.ran_hls = true;
  }

  if (pool != nullptr) pool->release(identity, std::move(set));
}

}  // namespace

Result<SuiteRunResult> run_all(const RunnerOptions& options) {
  auto names = filter_names(options.filter);
  if (!names.is_ok()) return Result<SuiteRunResult>(names.status());

  SuiteRunResult result;
  result.outcomes.resize(names->size());
  const auto start = std::chrono::steady_clock::now();

  // The pool: caller-owned when RunnerOptions::pool is set (fgpu-run
  // --repeat keeps devices warm across repeats), otherwise scoped to this
  // call. --fresh (reuse_devices off) runs the construct-per-benchmark path.
  std::unique_ptr<DevicePool> local_pool;
  DevicePool* pool = nullptr;
  if (options.reuse_devices) {
    pool = options.pool;
    if (pool == nullptr) {
      local_pool = std::make_unique<DevicePool>();
      pool = local_pool.get();
    }
  }
  const std::string identity = pool_identity(options);

  // Reuse counters are process-wide; report this run's activity as deltas.
  const vcl::KernelCacheStats kc0 = vcl::KernelCache::instance().stats();
  const vcl::HlsCacheStats hc0 = vcl::HlsCache::instance().stats();
  const WorkloadCacheStats wc0 = workload_cache_stats();
  const uint64_t reuse0 = pool != nullptr ? pool->reuse_count() : 0;

  uint32_t jobs = options.jobs != 0 ? options.jobs : std::thread::hardware_concurrency();
  jobs = std::min<uint32_t>(std::max(1u, jobs), static_cast<uint32_t>(names->size()));

  if (jobs <= 1) {
    for (size_t i = 0; i < names->size(); ++i) {
      run_one(options, pool, identity, (*names)[i], result.outcomes[i]);
    }
  } else {
    // Work-stealing by atomic index; each worker writes only its claimed
    // slots, so the outcome vector needs no lock and stays in canonical
    // order for aggregation.
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (uint32_t t = 0; t < jobs; ++t) {
      workers.emplace_back([&]() {
        for (;;) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= names->size()) return;
          run_one(options, pool, identity, (*names)[i], result.outcomes[i]);
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }

  const vcl::KernelCacheStats kc1 = vcl::KernelCache::instance().stats();
  const vcl::HlsCacheStats hc1 = vcl::HlsCache::instance().stats();
  const WorkloadCacheStats wc1 = workload_cache_stats();
  result.reuse.kernel_cache_hits = kc1.hits - kc0.hits;
  result.reuse.kernel_cache_misses = kc1.misses - kc0.misses;
  result.reuse.hls_cache_hits = hc1.hits - hc0.hits;
  result.reuse.hls_cache_misses = hc1.misses - hc0.misses;
  result.reuse.workload_cache_hits = wc1.hits - wc0.hits;
  result.reuse.workload_cache_misses = wc1.misses - wc0.misses;
  result.reuse.reference_cache_hits = wc1.reference_hits - wc0.reference_hits;
  result.reuse.reference_cache_misses = wc1.reference_misses - wc0.reference_misses;
  if (pool != nullptr) result.reuse.device_reuse_count = pool->reuse_count() - reuse0;

  const auto end = std::chrono::steady_clock::now();
  result.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  return result;
}

// Common "suite" header object of the suite-level documents (stats,
// profile, hlsprof, compare).
void write_suite_header(trace::JsonWriter& w, const RunnerOptions& options,
                        const SuiteRunResult& result) {
  w.key("suite").begin_object();
  w.field("filter", options.filter);
  w.field("suite_seed", options.suite_seed);
  w.field("vortex_config", options.vortex_config.to_string());
  const fpga::Board& vx_board =
      options.vortex_board != nullptr ? *options.vortex_board : fpga::stratix10_sx2800();
  const fpga::Board& hls_board =
      options.hls_board != nullptr ? *options.hls_board : fpga::stratix10_mx2100();
  w.field("vortex_board", vx_board.name);
  w.field("hls_board", hls_board.name);
  w.field("opt_level", static_cast<int64_t>(options.opt_level));
  w.field("benchmark_count", static_cast<uint64_t>(result.outcomes.size()));
  w.end_object();
}

void write_stats_json(std::ostream& os, const RunnerOptions& options,
                      const SuiteRunResult& result) {
  trace::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.field("schema", kStatsSchema);
  write_suite_header(w, options, result);
  w.key("benchmarks").begin_array();
  for (const auto& outcome : result.outcomes) {
    w.begin_object();
    w.field("name", outcome.name);
    w.field("origin", outcome.origin);
    w.field("workload_seed", outcome.workload_seed);
    if (outcome.ran_vortex) {
      w.key("vortex");
      write_json(w, outcome.vortex, DeviceKind::kVortex, outcome.vortex_device);
    }
    if (outcome.ran_turbo) {
      // Only present when --device turbo/all ran, so default documents stay
      // byte-identical to the pre-turbo baselines (schema-drift contract).
      w.key("turbo");
      write_json(w, outcome.turbo, DeviceKind::kTurbo, outcome.turbo_device);
      w.key("turbo_jit").begin_object();
      w.field("blocks_translated", outcome.turbo_jit.blocks_translated);
      w.field("block_lookups", outcome.turbo_jit.block_lookups);
      w.field("block_hits", outcome.turbo_jit.block_hits);
      w.field("block_cache_hit_rate", outcome.turbo_jit.hit_rate());
      w.field("chained_dispatches", outcome.turbo_jit.chained_dispatches);
      w.field("invalidations", outcome.turbo_jit.invalidations);
      w.end_object();
    }
    if (outcome.ran_hls) {
      w.key("hls");
      write_json(w, outcome.hls, DeviceKind::kHls, outcome.hls_device);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_profile_json(std::ostream& os, const RunnerOptions& options,
                        const SuiteRunResult& result) {
  trace::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.field("schema", kProfileSchema);
  write_suite_header(w, options, result);
  w.key("benchmarks").begin_array();
  for (const auto& outcome : result.outcomes) {
    if (!outcome.ran_vortex) continue;
    w.begin_object();
    w.field("name", outcome.name);
    w.field("device", outcome.vortex_device);
    w.field("ok", outcome.vortex.ok());
    w.key("kernels").begin_array();
    for (const auto& profile : outcome.vortex.kernel_profiles) write_json(w, profile);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_hlsprof_json(std::ostream& os, const RunnerOptions& options,
                        const SuiteRunResult& result) {
  trace::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.field("schema", kHlsProfSchema);
  write_suite_header(w, options, result);
  w.key("benchmarks").begin_array();
  for (const auto& outcome : result.outcomes) {
    if (!outcome.ran_hls) continue;
    w.begin_object();
    w.field("name", outcome.name);
    w.field("device", outcome.hls_device);
    w.field("ok", outcome.hls.ok());
    w.field("fail_reason", outcome.hls.fail_reason);
    // Kernels that failed to fit still appear (launches == 0, sites empty)
    // with their structured synthesis report — the Table-I failure rows.
    w.key("kernels").begin_array();
    for (const auto& profile : outcome.hls.hls_profiles) write_json(w, profile);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_mem_json(std::ostream& os, const RunnerOptions& options,
                    const SuiteRunResult& result) {
  trace::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.field("schema", kMemSchema);
  write_suite_header(w, options, result);
  // Geometry of the HLS read-path shadow cache (mirrors the soft-GPU L1D;
  // see run_one). Recorded so mem documents are self-describing.
  w.key("shadow").begin_object();
  w.field("lines", options.vortex_config.l1d.num_lines());
  w.field("ways", options.vortex_config.l1d.ways);
  w.end_object();
  w.key("benchmarks").begin_array();
  for (const auto& outcome : result.outcomes) {
    if (!outcome.ran_vortex && !outcome.ran_hls) continue;
    w.begin_object();
    w.field("name", outcome.name);
    if (outcome.ran_vortex) {
      w.key("vortex").begin_object();
      w.field("device", outcome.vortex_device);
      w.field("ok", outcome.vortex.ok());
      w.key("kernels").begin_array();
      for (const auto& profile : outcome.vortex.mem_profiles) write_json(w, profile);
      w.end_array();
      w.end_object();
    }
    if (outcome.ran_hls) {
      w.key("hls").begin_object();
      w.field("device", outcome.hls_device);
      w.field("ok", outcome.hls.ok());
      w.key("kernels").begin_array();
      for (const auto& profile : outcome.hls.mem_profiles) write_json(w, profile);
      w.end_array();
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

namespace {

// IrSnapshot fields are domain-dependent (-1 = not meaningful for that
// pass); only meaningful fields are serialized, so a KIR pass shows
// kir_nodes and a machine pass shows minstrs/vregs without null noise.
void write_snapshot(trace::JsonWriter& w, const char* key,
                    const codegen::IrSnapshot& snap) {
  w.key(key).begin_object();
  if (snap.kir_nodes >= 0) w.field("kir_nodes", static_cast<int64_t>(snap.kir_nodes));
  if (snap.minstrs >= 0) w.field("minstrs", static_cast<int64_t>(snap.minstrs));
  if (snap.vregs >= 0) w.field("vregs", static_cast<int64_t>(snap.vregs));
  if (snap.max_pressure >= 0) w.field("max_pressure", static_cast<int64_t>(snap.max_pressure));
  if (snap.stack_refs >= 0) w.field("stack_refs", static_cast<int64_t>(snap.stack_refs));
  w.end_object();
}

void write_remark(trace::JsonWriter& w, const codegen::Remark& r) {
  w.begin_object();
  w.field("pass", r.pass);
  w.field("action", r.action);
  w.field("name", r.name);
  w.field("site", r.site);
  w.field("detail", r.detail);
  w.field("value", static_cast<int64_t>(r.value));
  w.end_object();
}

}  // namespace

std::vector<RemarkHotspot> rank_remarks(const DeviceRun& run, const KernelCodegen& kc,
                                        size_t top_k) {
  // Attribute each measured issue-stage cycle to its KIR source (PC -> word
  // index -> source-map string), then charge every remark the cycles of its
  // provenance site.
  std::map<std::string, std::pair<uint64_t, uint64_t>> site_cycles;
  for (const auto& kp : run.kernel_profiles) {
    if (kp.kernel != kc.kernel) continue;
    for (const auto& [pc, stat] : kp.profile.by_pc) {
      if (pc < kp.binary.base) continue;
      const size_t word = (pc - kp.binary.base) / 4;
      const std::string& site = kp.source_map.source_for(word);
      if (site.empty()) continue;
      auto& entry = site_cycles[site];
      entry.first += stat.issued + stat.total_stalls();
      entry.second += stat.total_stalls();
    }
  }
  const auto& remarks = kc.compiled->report.remarks;
  std::vector<RemarkHotspot> ranked;
  for (const auto& r : remarks) {
    auto it = site_cycles.find(r.site);
    if (it == site_cycles.end() || it->second.first == 0) continue;
    ranked.push_back(RemarkHotspot{&r, it->second.first, it->second.second});
  }
  std::stable_sort(ranked.begin(), ranked.end(), [](const RemarkHotspot& a,
                                                    const RemarkHotspot& b) {
    return a.cycles > b.cycles;  // stable: equal cycles keep emission order
  });
  if (ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

void write_codegen_json(std::ostream& os, const RunnerOptions& options,
                        const SuiteRunResult& result) {
  trace::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.field("schema", kCodegenSchema);
  write_suite_header(w, options, result);
  w.key("benchmarks").begin_array();
  for (const auto& outcome : result.outcomes) {
    if (!outcome.ran_vortex) continue;
    w.begin_object();
    w.field("name", outcome.name);
    w.field("device", outcome.vortex_device);
    w.field("ok", outcome.vortex.ok());
    w.key("kernels").begin_array();
    for (const auto& kc : outcome.vortex.codegen) {
      const codegen::CompiledKernel& compiled = *kc.compiled;
      w.begin_object();
      w.field("kernel", kc.kernel);
      w.field("opt_level", static_cast<int64_t>(compiled.opt_level));
      w.field("barrier_dispatch", compiled.barrier_dispatch);
      w.field("code_words", static_cast<uint64_t>(compiled.instruction_count));
      w.field("spill_slots", static_cast<int64_t>(compiled.spill_slots));
      w.field("simt_instructions", static_cast<uint64_t>(compiled.simt_instructions));
      w.field("mem_instructions", static_cast<uint64_t>(compiled.mem_instructions));
      // Per-pass telemetry, pipeline order. wall_ms is intentionally NOT
      // serialized: a KernelCache replay would carry the original compile's
      // times and break the byte-identity contract.
      w.key("passes").begin_array();
      for (const auto& t : compiled.report.passes) {
        w.begin_object();
        w.field("pass", t.pass);
        w.field("remarks", static_cast<int64_t>(t.remarks));
        write_snapshot(w, "before", t.before);
        write_snapshot(w, "after", t.after);
        w.end_object();
      }
      w.end_array();
      w.key("remarks").begin_array();
      for (const auto& r : compiled.report.remarks) write_remark(w, r);
      w.end_array();
      // Cycle-joined ranking: only remarks whose provenance site actually
      // accrued measured cycles appear (see rank_remarks).
      if (options.remark_hotspots > 0) {
        const auto ranked =
            rank_remarks(outcome.vortex, kc, static_cast<size_t>(options.remark_hotspots));
        w.key("hotspots").begin_array();
        for (size_t i = 0; i < ranked.size(); ++i) {
          w.begin_object();
          w.field("rank", static_cast<int64_t>(i + 1));
          w.field("cycles", ranked[i].cycles);
          w.field("stall_cycles", ranked[i].stall_cycles);
          w.field("pass", ranked[i].remark->pass);
          w.field("action", ranked[i].remark->action);
          w.field("name", ranked[i].remark->name);
          w.field("site", ranked[i].remark->site);
          w.field("detail", ranked[i].remark->detail);
          w.end_object();
        }
        w.end_array();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_trace_json(std::ostream& os, const SuiteRunResult& result) {
  std::vector<trace::Process> processes;
  for (size_t i = 0; i < result.outcomes.size(); ++i) {
    const auto& outcome = result.outcomes[i];
    if (outcome.trace == nullptr) continue;
    processes.push_back(
        trace::Process{static_cast<uint32_t>(i + 1), outcome.name, outcome.trace.get()});
  }
  trace::write_chrome_trace(os, processes);
}

}  // namespace fgpu::suite
