#include "suite/suite.hpp"

#include <chrono>
#include <mutex>
#include <unordered_map>

#include "codegen/codegen.hpp"
#include "kir/interp.hpp"
#include "kir/passes.hpp"

namespace fgpu::suite {

// Factories defined across the suite/bench_*.cpp files.
Benchmark make_vecadd();
Benchmark make_sgemm();
Benchmark make_psort();
Benchmark make_saxpy();
Benchmark make_sfilter();
Benchmark make_dotproduct();
Benchmark make_spmv();
Benchmark make_cutcp();
Benchmark make_stencil();
Benchmark make_lbm();
Benchmark make_oclprintf();
Benchmark make_blackscholes();
Benchmark make_matmul();
Benchmark make_transpose();
Benchmark make_kmeans();
Benchmark make_nearn();
Benchmark make_gaussian();
Benchmark make_bfs();
Benchmark make_backprop();
Benchmark make_streamcluster();
Benchmark make_pathfinder();
Benchmark make_nw();
Benchmark make_btree();
Benchmark make_lavamd();
Benchmark make_hybridsort();
Benchmark make_particlefilter();
Benchmark make_dwt2d();
Benchmark make_lud();

const std::vector<std::string>& all_benchmark_names() {
  static const std::vector<std::string> names = {
      "vecadd",       "sgemm",      "psort",      "saxpy",        "sfilter",
      "dotproduct",   "spmv",       "cutcp",      "stencil",      "lbm",
      "oclprintf",    "blackscholes", "matmul",   "transpose",    "kmeans",
      "nearn",        "gaussian",   "bfs",        "backprop",     "streamcluster",
      "pathfinder",   "nw",         "b+tree",     "lavamd",       "hybridsort",
      "particlefilter", "dwt2d",    "lud",
  };
  return names;
}

const char* paper_hls_failure(const std::string& name) {
  if (name == "lbm" || name == "backprop" || name == "b+tree" || name == "dwt2d" ||
      name == "lud") {
    return "Not enough BRAM";
  }
  if (name == "hybridsort") return "Atomics";
  return nullptr;
}

Benchmark make_benchmark(const std::string& name) {
  using Factory = Benchmark (*)();
  static const std::unordered_map<std::string, Factory> factories = {
      {"vecadd", make_vecadd},
      {"sgemm", make_sgemm},
      {"psort", make_psort},
      {"saxpy", make_saxpy},
      {"sfilter", make_sfilter},
      {"dotproduct", make_dotproduct},
      {"spmv", make_spmv},
      {"cutcp", make_cutcp},
      {"stencil", make_stencil},
      {"lbm", make_lbm},
      {"oclprintf", make_oclprintf},
      {"blackscholes", make_blackscholes},
      {"matmul", make_matmul},
      {"transpose", make_transpose},
      {"kmeans", make_kmeans},
      {"nearn", make_nearn},
      {"gaussian", make_gaussian},
      {"bfs", make_bfs},
      {"backprop", make_backprop},
      {"streamcluster", make_streamcluster},
      {"pathfinder", make_pathfinder},
      {"nw", make_nw},
      {"b+tree", make_btree},
      {"lavamd", make_lavamd},
      {"hybridsort", make_hybridsort},
      {"particlefilter", make_particlefilter},
      {"dwt2d", make_dwt2d},
      {"lud", make_lud},
  };
  auto it = factories.find(name);
  if (it == factories.end()) {
    Benchmark none;
    none.name = "<unknown:" + name + ">";
    return none;
  }
  Benchmark bench = it->second();
  bench.name = name;
  return bench;
}

namespace {

struct WorkloadCache {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const Benchmark>> entries;
  // Memoized reference_run results, same keying and lifetime as entries.
  std::unordered_map<std::string, std::shared_ptr<const std::vector<std::vector<uint32_t>>>>
      references;
  WorkloadCacheStats stats;
};

WorkloadCache& workload_cache() {
  static WorkloadCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const Benchmark> shared_benchmark(const std::string& name) {
  WorkloadCache& cache = workload_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(name);
    if (it != cache.entries.end()) {
      ++cache.stats.hits;
      return it->second;
    }
  }
  // Generate unlocked (matrix fills and graph construction are the cost
  // being cached); insert first-wins — factories are deterministic, so
  // racing instances are identical.
  auto bench = std::make_shared<const Benchmark>(make_benchmark(name));
  std::lock_guard<std::mutex> lock(cache.mu);
  ++cache.stats.misses;
  auto [it, inserted] = cache.entries.emplace(name, std::move(bench));
  (void)inserted;
  return it->second;
}

WorkloadCacheStats workload_cache_stats() {
  WorkloadCache& cache = workload_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.stats;
}

void clear_workload_cache() {
  WorkloadCache& cache = workload_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
  cache.references.clear();
  cache.stats = WorkloadCacheStats{};
}

std::shared_ptr<const std::vector<std::vector<uint32_t>>> shared_reference(
    const std::string& name) {
  WorkloadCache& cache = workload_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.references.find(name);
    if (it != cache.references.end()) {
      ++cache.stats.reference_hits;
      return it->second;
    }
  }
  // Interpret unlocked (this is the expensive part being memoized); the
  // oracle is deterministic, so racing results are identical — first
  // insert wins. Failures are not cached: the per-run fallback reports
  // them with full context, and they never happen on the shipping suite.
  auto bench = shared_benchmark(name);
  auto computed = reference_run(*bench);
  if (!computed.is_ok()) return nullptr;
  auto ref =
      std::make_shared<const std::vector<std::vector<uint32_t>>>(std::move(*computed));
  std::lock_guard<std::mutex> lock(cache.mu);
  ++cache.stats.reference_misses;
  auto [it, inserted] = cache.references.emplace(name, std::move(ref));
  (void)inserted;
  return it->second;
}

Result<std::vector<std::vector<uint32_t>>> reference_run(const Benchmark& bench) {
  // Oracle runs the builtin-expanded module (the form both devices execute).
  kir::Module module = bench.module;
  for (auto& kernel : module.kernels) {
    kernel = kir::clone_kernel(kernel);
    kir::expand_builtins(kernel);
  }
  std::vector<std::vector<uint32_t>> buffers = bench.buffers;
  kir::Interpreter interp;
  for (const auto& launch : bench.launches) {
    const kir::Kernel* kernel = module.find(launch.kernel);
    if (kernel == nullptr) {
      return Result<std::vector<std::vector<uint32_t>>>(
          ErrorKind::kNotFound, bench.name + ": kernel '" + launch.kernel + "' missing");
    }
    std::vector<kir::KernelArg> args;
    for (const auto& spec : launch.args) {
      switch (spec.kind) {
        case ArgSpec::Kind::kBuffer:
          args.push_back(kir::KernelArg::buffer(&buffers[static_cast<size_t>(spec.buffer)]));
          break;
        case ArgSpec::Kind::kI32:
          args.push_back(kir::KernelArg::scalar_i32(spec.i32));
          break;
        case ArgSpec::Kind::kF32:
          args.push_back(kir::KernelArg::scalar_f32(spec.f32));
          break;
      }
    }
    if (auto st = interp.run(*kernel, args, launch.ndrange); !st.is_ok()) {
      return Result<std::vector<std::vector<uint32_t>>>(st.kind(), st.message());
    }
  }
  return buffers;
}

DeviceRun run_benchmark(vcl::Device& device, const Benchmark& bench,
                        const std::vector<std::vector<uint32_t>>* expected) {
  DeviceRun result;
  device.clear_console();

  result.build = device.build(bench.module);
  for (const auto& info : device.build_info()) {
    result.area += info.area;
    result.synthesis_hours += info.synthesis_hours;
    // HLS builds carry a structured synthesis report per kernel (synth.kernel
    // is empty on the soft GPU). Seed the per-kernel HLS profile from it now
    // so failed fits — the interesting Table II rows — are reported too.
    if (!info.synth.kernel.empty()) {
      HlsKernelProfile& hp = result.hls_profiles.emplace_back();
      hp.kernel = info.kernel;
      hp.synth = info.synth;
    }
    // Soft-GPU builds expose the full compile; keep it when remarks were
    // collected so the runner can export fgpu.codegen.v1 (build order).
    if (info.compiled && info.compiled->report.collected) {
      result.codegen.push_back(KernelCodegen{info.kernel, info.compiled});
    }
  }
  if (!result.build.is_ok()) {
    // Table-I-style short reason.
    switch (result.build.kind()) {
      case ErrorKind::kResourceExceeded: {
        const std::string& msg = result.build.message();
        result.fail_reason = msg.find("BRAM") != std::string::npos ? "Not enough BRAM"
                                                                   : "Not enough resources";
        break;
      }
      case ErrorKind::kUnsupported:
        result.fail_reason = "Atomics";
        break;
      default:
        result.fail_reason = "Compile error";
        break;
    }
    return result;
  }

  // Upload buffers.
  std::vector<vcl::Buffer> dev_buffers;
  dev_buffers.reserve(bench.buffers.size());
  for (const auto& host : bench.buffers) {
    vcl::Buffer b = device.alloc(host.size() * 4);
    device.write(b, host.data(), host.size() * 4, 0);
    dev_buffers.push_back(b);
  }

  // Execute the launch sequence.
  for (const auto& launch : bench.launches) {
    std::vector<vcl::Arg> args;
    for (const auto& spec : launch.args) {
      switch (spec.kind) {
        case ArgSpec::Kind::kBuffer:
          args.push_back(dev_buffers[static_cast<size_t>(spec.buffer)]);
          break;
        case ArgSpec::Kind::kI32:
          args.push_back(spec.i32);
          break;
        case ArgSpec::Kind::kF32:
          args.push_back(spec.f32);
          break;
      }
    }
    const auto launch_t0 = std::chrono::steady_clock::now();
    auto stats = device.launch(launch.kernel, args, launch.ndrange);
    result.launch_host_ms +=
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - launch_t0)
            .count();
    if (!stats.is_ok()) {
      result.run = stats.status();
      result.fail_reason = "Runtime error";
      return result;
    }
    result.total_cycles += stats->device_cycles;
    result.total_instrs += stats->perf.instrs;
    result.total_time_ms += stats->time_ms();
    if (!stats->hls_sites.empty() || stats->pipeline_depth > 0) {
      for (auto& hp : result.hls_profiles) {
        if (hp.kernel != launch.kernel) continue;
        ++hp.launches;
        hp.device_cycles += stats->device_cycles;
        hp.memory_stall_cycles += stats->memory_stall_cycles;
        if (hp.sites.empty()) {
          hp.sites = stats->hls_sites;
        } else {
          // Same design every launch: accumulate the dynamic columns.
          for (size_t s = 0; s < hp.sites.size() && s < stats->hls_sites.size(); ++s) {
            hp.sites[s].requests += stats->hls_sites[s].requests;
            hp.sites[s].bytes += stats->hls_sites[s].bytes;
            hp.sites[s].occupancy_cycles += stats->hls_sites[s].occupancy_cycles;
            hp.sites[s].stall_cycles += stats->hls_sites[s].stall_cycles;
          }
        }
        break;
      }
    }
    if (stats->profile.enabled) {
      KernelProfile* kp = nullptr;
      for (auto& existing : result.kernel_profiles) {
        if (existing.kernel == launch.kernel) kp = &existing;
      }
      if (kp == nullptr) {
        kp = &result.kernel_profiles.emplace_back();
        kp->kernel = launch.kernel;
        if (const auto* info = device.find_build_info(launch.kernel)) {
          kp->binary = info->binary;
          kp->source_map = info->source_map;
        }
      }
      ++kp->launches;
      kp->profile.merge(stats->profile);
      // Across launches cycles add up (accumulate()'s max rule is for
      // cores within one launch).
      const uint64_t cycles = kp->perf.cycles + stats->perf.cycles;
      kp->perf.accumulate(stats->perf);
      kp->perf.cycles = cycles;
    }
    if (stats->memprof.enabled || stats->hls_mem_enabled) {
      KernelMemProfile* mp = nullptr;
      for (auto& existing : result.mem_profiles) {
        if (existing.kernel == launch.kernel) mp = &existing;
      }
      if (mp == nullptr) {
        mp = &result.mem_profiles.emplace_back();
        mp->kernel = launch.kernel;
        if (stats->memprof.enabled) {
          if (const auto* info = device.find_build_info(launch.kernel)) {
            mp->binary = info->binary;
            mp->source_map = info->source_map;
          }
        }
      }
      ++mp->launches;
      if (stats->memprof.enabled) mp->mem.merge(stats->memprof);
      if (stats->hls_mem_enabled) {
        mp->is_hls = true;
        mp->hls_mem.merge(stats->hls_mem);
        if (mp->sites.empty()) mp->sites = stats->hls_sites;
      }
    }
    result.last = *stats;
  }

  // Download final state.
  std::vector<std::vector<uint32_t>> final_buffers;
  final_buffers.reserve(dev_buffers.size());
  for (size_t i = 0; i < dev_buffers.size(); ++i) {
    std::vector<uint32_t> host(bench.buffers[i].size());
    device.read(dev_buffers[i], host.data(), host.size() * 4, 0);
    final_buffers.push_back(std::move(host));
  }

  // Digest the checked buffers (all of them when the benchmark does not
  // narrow the set). FNV-1a over (index, length, words) so buffer identity
  // and shape are part of the hash, not just the payload.
  {
    std::vector<int> digest_indices = bench.checked_buffers;
    if (digest_indices.empty()) {
      for (size_t i = 0; i < final_buffers.size(); ++i) {
        digest_indices.push_back(static_cast<int>(i));
      }
    }
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint64_t v) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (byte * 8)) & 0xFF;
        h *= 1099511628211ull;
      }
    };
    for (int index : digest_indices) {
      const auto& buf = final_buffers[static_cast<size_t>(index)];
      mix(static_cast<uint64_t>(index));
      mix(buf.size());
      for (uint32_t w : buf) mix(w);
    }
    result.output_digest = h;
  }

  // Verify.
  if (bench.custom_verify) {
    result.verify = bench.custom_verify(final_buffers, device.console());
  } else {
    // Use the caller's memoized oracle buffers when supplied, else run the
    // reference interpreter inline (identical by determinism).
    Result<std::vector<std::vector<uint32_t>>> computed(std::vector<std::vector<uint32_t>>{});
    if (expected == nullptr) computed = reference_run(bench);
    if (!computed.is_ok()) {
      result.verify = computed.status();
    } else {
      const auto& oracle = expected != nullptr ? *expected : *computed;
      std::vector<int> indices = bench.checked_buffers;
      if (indices.empty()) {
        for (size_t i = 0; i < final_buffers.size(); ++i) indices.push_back(static_cast<int>(i));
      }
      for (int index : indices) {
        const auto& got = final_buffers[static_cast<size_t>(index)];
        const auto& want = oracle[static_cast<size_t>(index)];
        for (size_t j = 0; j < got.size(); ++j) {
          if (got[j] != want[j]) {
            result.verify = Status(
                ErrorKind::kRuntimeError,
                bench.name + ": buffer " + std::to_string(index) + " element " +
                    std::to_string(j) + " mismatch (got 0x" + std::to_string(got[j]) +
                    ", want 0x" + std::to_string(want[j]) + ")");
            result.fail_reason = "Wrong result";
            return result;
          }
        }
      }
    }
  }
  if (!result.verify.is_ok() && result.fail_reason.empty()) result.fail_reason = "Wrong result";
  return result;
}

}  // namespace fgpu::suite
