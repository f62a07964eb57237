#include "vortex/analytical.hpp"

#include <algorithm>
#include <cmath>

#include "hls/compiler.hpp"
#include "kir/passes.hpp"

namespace fgpu::vortex {

Result<KernelProfile> profile_kernel(const kir::Kernel& kernel,
                                     const std::vector<kir::KernelArg>& args,
                                     const kir::NDRange& ndrange) {
  // Expand builtins so the operation count matches what the device executes.
  kir::Kernel lowered = kir::clone_kernel(kernel);
  kir::expand_builtins(lowered);

  // Static access-pattern census (reuses the HLS analyzer's classifier).
  const auto dfg = hls::analyze(lowered);

  uint64_t ops = 0, loads = 0, stores = 0, local_accesses = 0;
  uint64_t consecutive = 0, total_classified = 0;

  // Per-site pattern lookup for the dynamic counters.
  std::unordered_map<const void*, hls::AccessPattern> site_pattern;
  for (const auto& site : dfg.sites) site_pattern[site.site] = site.pattern;

  kir::InterpOptions options;
  options.op_count = &ops;
  kir::Interpreter interp(options);
  if (auto st = interp.run(lowered, args, ndrange); !st.is_ok()) {
    return Result<KernelProfile>(st.kind(), st.message());
  }
  for (const kir::SiteCount& sc : interp.site_counts()) {
    auto it = site_pattern.find(sc.site);
    if (it == site_pattern.end()) {
      local_accesses += sc.count;  // __local access (not a global site)
      continue;
    }
    (sc.is_store ? stores : loads) += sc.count;
    total_classified += sc.count;
    if (it->second == hls::AccessPattern::kConsecutive) consecutive += sc.count;
  }

  KernelProfile profile;
  profile.items = ndrange.global_items();
  const double items = std::max<double>(1.0, static_cast<double>(profile.items));
  profile.ops_per_item = static_cast<double>(ops) / items;
  profile.loads_per_item = static_cast<double>(loads) / items;
  profile.stores_per_item = static_cast<double>(stores) / items;
  profile.local_accesses_per_item = static_cast<double>(local_accesses) / items;
  profile.consecutive_fraction =
      total_classified == 0 ? 1.0
                            : static_cast<double>(consecutive) / static_cast<double>(total_classified);
  profile.uses_barriers = lowered.has_barrier();
  for (const auto& arg : args) {
    if (arg.is_buffer && arg.data != nullptr) {
      profile.footprint_bytes += static_cast<uint64_t>(arg.data->size()) * 4;
    }
  }
  return profile;
}

Prediction predict_cycles(const KernelProfile& profile, const Config& config) {
  const double cores = config.cores;
  const double warps = config.warps;
  const double threads = config.threads;
  const double items_per_core = static_cast<double>(profile.items) / cores;

  // Instructions per item: KIR operations expand ~1.35x in codegen
  // (addressing arithmetic, moves, divergence control), plus the per-item
  // share of the work-item loop (compare + pred + increment + jump).
  const double instrs_per_item = profile.ops_per_item * 1.35 + 4.0 +
                                 profile.local_accesses_per_item;

  // --- issue bound: one warp instruction per cycle per core; a warp
  // instruction covers `threads` items.
  const double issue = items_per_core * instrs_per_item / threads;

  // --- memory bound: the LSU drains one line request per port per cycle.
  // With 16-byte lines a fully coalesced warp access needs threads/4 line
  // requests (one per 4 lanes); non-consecutive accesses need one line per
  // lane. MSHR saturation at high in-flight counts adds a contention factor
  // (the head-of-line LSU stalls behind Fig. 7).
  const double accesses_per_item = profile.loads_per_item + profile.stores_per_item;
  // A consecutive warp access covers threads lanes x 4 bytes, but never less
  // than one 16-byte line — narrow warps (threads < 4) still fetch whole
  // lines, so their per-item line count is 1/threads, not 1/4.
  const double consecutive_lines = std::max(0.25, 1.0 / threads);
  const double lines_per_access =
      profile.consecutive_fraction * consecutive_lines +
      (1.0 - profile.consecutive_fraction) * 1.0;
  const double lines_per_core = items_per_core * accesses_per_item * lines_per_access;

  // Cache-geometry filtering: what fraction of line requests miss L1 (and,
  // of those, the shared L2). Compulsory misses are the distinct lines of
  // the working set — each must be fetched at least once — and the capacity
  // term grows as the footprint overflows the cache, vanishing once it
  // fits. footprint_bytes == 0 (hand-built profiles) keeps the legacy
  // streaming assumption: every request is a DRAM fill.
  double l1_miss = 1.0, l2_miss = 1.0;
  if (profile.footprint_bytes > 0 && lines_per_core > 0.0) {
    const double footprint_lines =
        static_cast<double>(profile.footprint_bytes) / mem::kLineBytes;
    const double per_core_bytes = static_cast<double>(profile.footprint_bytes) / cores;
    const double compulsory = std::min(1.0, (footprint_lines / cores) / lines_per_core);
    const double l1_capacity =
        (1.0 - compulsory) *
        std::max(0.0, 1.0 - static_cast<double>(config.l1d.size_bytes) / per_core_bytes);
    l1_miss = std::min(1.0, compulsory + l1_capacity);
    const double l1_miss_lines = std::max(1.0, lines_per_core * l1_miss * cores);
    const double l2_compulsory = std::min(1.0, footprint_lines / l1_miss_lines);
    const double l2_capacity =
        (1.0 - l2_compulsory) *
        std::max(0.0, 1.0 - static_cast<double>(config.l2.size_bytes) /
                                static_cast<double>(profile.footprint_bytes));
    l2_miss = std::min(1.0, l2_compulsory + l2_capacity);
  }

  // Two per-core memory limits: the LSU drain rate (lsu_ports lines/cycle),
  // and Little's law — with only `mshrs` fills in flight, sustained line
  // throughput cannot exceed mshrs / fill latency, where the fill latency
  // is the L2 round trip plus the DRAM share of the lines that miss it.
  const double drain = lines_per_core / std::max(1u, config.lsu_ports);
  const double avg_fill =
      static_cast<double>(config.l1d.hit_latency + config.l2.hit_latency) +
      l2_miss * static_cast<double>(config.dram.latency / 2);
  const double mshrs = config.l1d.mshrs;
  double memory = std::max(drain, lines_per_core * l1_miss * avg_fill / mshrs);
  const double inflight = warps * std::max(1.0, threads / 4.0) * l1_miss;
  if (inflight > mshrs) {
    // Saturated MSHRs additionally waste issue slots through head-of-line
    // LSU stalls; grows slowly with the oversubscription ratio.
    memory *= 1.0 + 0.18 * std::log2(inflight / mshrs + 1.0);
  }

  // --- DRAM service bound: cluster-wide, not per-core. Three ceilings
  // govern sustained line service for the lines that miss both cache
  // levels (Little's law applied at each stage of the fill chain):
  //   1. peak channel bandwidth — channels * requests_per_channel lines
  //      per cycle (the multi-channel HBM axis);
  //   2. the shared L2 fill window — only l2.mshrs fills in flight, each
  //      held for a DRAM round trip (latency + L2 lookup + fill pipeline
  //      hops + the queueing share of a full window draining through the
  //      channels). Default geometry: 16 MSHRs over ~126 cycles = 0.127
  //      lines/cycle, far below peak — this is why measured cycles plateau
  //      from ~2 cores on for streaming kernels (EXPERIMENTS.md core
  //      scaling) and why extra HBM channels barely help;
  //   3. core supply — cores * per-core in-flight lines (bounded by L1D
  //      MSHRs and by what the warps can keep outstanding) over the same
  //      round trip. A single core cannot fill the L2 window: this term
  //      reproduces the measured C1 -> C2 halving before the plateau.
  const double dram_lines = lines_per_core * cores * l1_miss * l2_miss;
  const double peak_lines =
      std::max(1.0, static_cast<double>(config.dram.channels) *
                        static_cast<double>(config.dram.requests_per_channel));
  const double queue_share = static_cast<double>(config.l2.mshrs) / (2.0 * peak_lines);
  const double round_trip_fill = static_cast<double>(config.dram.latency) +
                                 static_cast<double>(config.l2.hit_latency) + 12.0 +
                                 queue_share;
  const double fill_window = static_cast<double>(config.l2.mshrs) / round_trip_fill;
  // Measured MLP law (EXPERIMENTS.md probe sweeps): the lines a core keeps
  // in flight track the warp's lane width, not the warp count — narrow
  // warps expose ~1.15 * threads outstanding lines before dependence
  // chains stall them, regardless of how many warps time-share the LSU.
  const double inflight_lines = std::min<double>(config.l1d.mshrs, 1.15 * threads);
  const double core_supply = cores * inflight_lines / round_trip_fill;
  // Narrow warps (threads < 4) split each line across 4/threads accesses;
  // the trailing accesses merge into the in-flight MSHR and wake serially,
  // stretching its turnaround. Plentiful warps hide the stretch.
  const double merge_eff =
      1.0 / (1.0 + 0.4 * std::max(0.0, 4.0 / threads - 1.0) / warps);
  const double service_rate =
      std::max(1e-6, std::min({peak_lines, fill_window, core_supply}) * merge_eff);
  const double dram = dram_lines / service_rate;

  // --- latency bound: with few warps, per-warp serial latency shows. Each
  // warp executes items_per_core / (warps * threads) iterations; each
  // iteration costs its instructions plus exposed memory latency (misses
  // are covered once warps * issue gaps exceed the round trip; accesses
  // that hit in-cache expose only the short L2 trip).
  const double iterations_per_warp = items_per_core / (warps * threads);
  const double round_trip = static_cast<double>(config.l2.hit_latency) +
                            l1_miss * l2_miss * static_cast<double>(config.dram.latency / 4);
  const double exposed_latency =
      std::max(0.0, round_trip - instrs_per_item * (warps - 1.0));
  const double latency =
      iterations_per_warp * (instrs_per_item + accesses_per_item * exposed_latency);

  // --- fixed overhead: per-warp dispatch prologue + drain.
  const double overhead = 40.0 + 12.0 * warps + (profile.uses_barriers ? 20.0 * warps : 0.0);

  Prediction p;
  p.issue_bound = issue;
  p.memory_bound = memory;
  p.latency_bound = latency;
  p.dram_bound = dram;
  p.overhead = overhead;
  double binding = issue;
  p.bottleneck = "issue";
  if (memory > binding) {
    binding = memory;
    p.bottleneck = "memory";
  }
  if (dram > binding) {
    binding = dram;
    p.bottleneck = "dram";
  }
  if (latency > binding) {
    binding = latency;
    p.bottleneck = "latency";
  }
  p.cycles = binding + overhead;
  return p;
}

}  // namespace fgpu::vortex
