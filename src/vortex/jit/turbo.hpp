// Turbo execution tier: a threaded-code binary translator for the Vortex
// ISA. Guest basic blocks are decoded once into blocks of dispatchable
// instructions, cached by start PC, and chained so hot block-to-block
// transitions skip the cache lookup entirely.
//
// Contract (DESIGN.md "Execution tiers"): turbo is FUNCTIONAL-ONLY. It
// retires the same architectural state as the cycle-exact simulator —
// registers, memory, IPDOM divergence, barriers, ECALL console traffic —
// but models no pipeline, caches, or stalls. It therefore reports
// instruction counts and JIT statistics, never cycles, PerfCounters stall
// buckets, or per-PC profiles; the cycle-exact tier (vortex/core.cpp)
// remains the sole timing oracle. Both tiers compute lane values through
// arch/semantics.hpp and the lane driver in vortex/lanes.hpp, so results
// are bit-identical (asserted over all 28 Table-I benchmarks by
// tests/test_turbo.cpp and the CI digest gate, and per op by
// tests/test_semantics.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/isa.hpp"
#include "common/status.hpp"
#include "mem/memory.hpp"
#include "vortex/config.hpp"
#include "vortex/core.hpp"

namespace fgpu::vortex::jit {

// Counters of the translation/dispatch machinery (exported into
// fgpu.host.v1's "turbo" sections — see OBSERVABILITY.md). Purely
// host-side bookkeeping; none of these is a timing claim.
struct TurboStats {
  uint64_t instrs = 0;              // guest instructions retired
  uint64_t blocks_translated = 0;   // block-cache fills
  uint64_t block_lookups = 0;       // block-cache queries (miss => translate)
  uint64_t block_hits = 0;          // queries served from the cache
  uint64_t chained_dispatches = 0;  // successor taken via a cached pointer
  uint64_t invalidations = 0;       // cache flushes (kernel reload, i.e. build())
  uint64_t barriers = 0;
  uint64_t ecalls = 0;

  double hit_rate() const {
    return block_lookups == 0
               ? 0.0
               : static_cast<double>(block_hits) / static_cast<double>(block_lookups);
  }
  void accumulate(const TurboStats& other) {
    instrs += other.instrs;
    blocks_translated += other.blocks_translated;
    block_lookups += other.block_lookups;
    block_hits += other.block_hits;
    chained_dispatches += other.chained_dispatches;
    invalidations += other.invalidations;
    barriers += other.barriers;
    ecalls += other.ecalls;
  }
};

class TurboCore;

// One functional core: C of these make the turbo cluster (TurboEngine).
// Defined in turbo.cpp; the public surface is TurboEngine below.
class TurboEngine {
 public:
  // `gmem` is shared across cores (like vortex::Cluster); each core owns a
  // private __local scratchpad and barrier state.
  TurboEngine(const Config& config, mem::MainMemory& gmem, EcallHandler ecall_handler = {});
  ~TurboEngine();

  // Drops every translated block on every core. Call at the kernel-reload
  // boundary (device build(): the binaries themselves changed); NOT needed
  // between launches or when switching among the kernels of one build —
  // retained per-kernel blocks are the hit-rate win.
  void invalidate();

  // Device-reuse boundary (TurboDevice::reset): drops every translated
  // block and deselects the kernel on every core WITHOUT counting an
  // invalidation — the drop is pool lifecycle bookkeeping, not a kernel
  // reload, so per-benchmark jit-stat deltas on a reused device stay
  // byte-identical to a fresh device's. Cumulative counters survive (they
  // are exported as before/after deltas by the suite runner).
  void reset_blocks();

  // Selects `kernel`'s block cache on every core. Each kernel of a build
  // keeps a private cache (binaries share a load base, so PCs are only
  // meaningful per kernel); switching kernels swaps caches instead of
  // flushing, so alternating launch sequences stay warm.
  void select_kernel(const std::string& kernel);

  // Resets warp/register/local-memory state on every core and runs the
  // kernel at `entry_pc` to completion (cores execute sequentially; warps
  // within a core run to their next blocking point, round-robin). Errors on
  // barrier deadlock or when the per-launch instruction budget
  // (Config::max_cycles, reused as a guest-instruction ceiling) is hit.
  Status run(uint32_t entry_pc);

  // Guest instructions retired by the most recent run().
  uint64_t last_run_instrs() const { return last_run_instrs_; }
  // Cumulative across launches (block cache persists until invalidate()).
  const TurboStats& stats() const { return stats_; }

  const Config& config() const { return config_; }

 private:
  Config config_;
  mem::MainMemory& gmem_;
  EcallHandler ecall_handler_;
  std::vector<std::unique_ptr<TurboCore>> cores_;
  TurboStats stats_;
  uint64_t last_run_instrs_ = 0;
};

}  // namespace fgpu::vortex::jit
