// The full soft GPU: C cores behind a shared L2 and an off-chip DRAM model.
// This is the SimX-equivalent top level the paper uses for its Fig. 7
// design-space exploration ("Simx is a C++ cycle-level simulator ...").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/memory.hpp"
#include "vortex/core.hpp"

namespace fgpu::vortex {

struct ClusterStats {
  PerfCounters perf;          // aggregated over cores (cycles = max)
  mem::MemStats l1d;          // summed over cores
  mem::MemStats l1i;
  mem::MemStats l2;
  mem::MemStats dram;
  uint64_t dram_bytes = 0;
};

class Cluster {
 public:
  Cluster(const Config& config, mem::MainMemory& gmem, EcallHandler ecall_handler = {});

  // Resets every core and runs the kernel at `entry_pc` to completion
  // (all warps retired and no memory traffic in flight).
  Result<ClusterStats> run(uint32_t entry_pc);

  const Config& config() const { return config_; }
  Core& core(uint32_t i) { return *cores_[i]; }
  const Core& core(uint32_t i) const { return *cores_[i]; }
  uint32_t num_cores() const { return static_cast<uint32_t>(cores_.size()); }

  // Single-step interface for tests.
  void reset(uint32_t entry_pc);
  // Full return to construction-time state without reallocating anything:
  // deep-resets every cache/DRAM queue and every core (device-reuse
  // contract; DESIGN.md "Device lifecycle"). Only valid between kernels —
  // reset(entry_pc) remains the per-launch boundary.
  void hard_reset();
  void tick();
  // The shared half of a tick at `cycle`: ticks the DRAM and the L2 and
  // routes their answers into the L1s, whose responses() then hold what
  // reached them. tick() runs it before the cores' halves.
  void tick_memory(uint64_t cycle);
  bool busy() const;
  uint64_t cycle() const { return cycle_; }
  // tick() calls over this cluster's lifetime (cycles fast-forwarded by idle
  // skipping are not ticks).
  uint64_t ticks() const { return ticks_; }
  ClusterStats collect_stats() const;
  // Per-PC profile merged across cores, plus the cluster-level cache
  // conflict histograms (empty PcProfile unless Config::profile).
  PcProfile collect_profile() const;
  // Memory-hierarchy profile merged across cores + the shared L2/DRAM;
  // empty (enabled=false) unless Config::memprof is set.
  mem::MemHierarchyProfile collect_mem_profile() const;

 private:
  void trace_counters() const;
  void route_l2_responses(uint64_t cycle);
  void try_idle_skip();

  Config config_;
  mem::MainMemory& gmem_;
  mem::DramModel dram_;
  mem::Cache l2_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::string> stall_track_names_;  // "stalls.cN" trace tracks
  uint64_t cycle_ = 0;
  uint64_t ticks_ = 0;
};

}  // namespace fgpu::vortex
