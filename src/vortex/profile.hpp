// Per-PC cycle profiler for the soft GPU (the "where", where PerfCounters
// is the "how much"): every issue-stage cycle — issued, or stalled with the
// Fig. 7 reason taxonomy — is attributed to the PC of the issuing/blocking
// warp. Combined with the compiler's PC -> KIR source map this explains
// *which* load, loop, or barrier produced each stall bucket, the missing
// half of the paper's LSU-stall narrative.
//
// Collection is off by default (Config::profile) and the tables use only
// ordered containers, so exported profiles inherit the stats layer's
// byte-identical-across---jobs determinism contract (OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vasm/program.hpp"
#include "vortex/perf.hpp"

namespace fgpu::vortex {

// Issue-stage cycles charged to one PC. The stall buckets mirror
// PerfCounters exactly: for each bucket, the sum over all PCs equals the
// aggregate counter (idle cycles have no PC and stay core-level only).
struct PcStat {
  uint64_t issued = 0;
  uint64_t stall_scoreboard = 0;
  uint64_t stall_lsu = 0;
  uint64_t stall_fu = 0;
  uint64_t stall_ibuffer = 0;
  uint64_t stall_barrier = 0;

  uint64_t total_stalls() const {
    return stall_scoreboard + stall_lsu + stall_fu + stall_ibuffer + stall_barrier;
  }
  // Fraction of this PC's issue-stage cycles that issued (a per-PC IPC).
  double issue_rate() const {
    const uint64_t total = issued + total_stalls();
    return total == 0 ? 0.0 : static_cast<double>(issued) / static_cast<double>(total);
  }

  PcStat& operator+=(const PcStat& other) {
    issued += other.issued;
    stall_scoreboard += other.stall_scoreboard;
    stall_lsu += other.stall_lsu;
    stall_fu += other.stall_fu;
    stall_ibuffer += other.stall_ibuffer;
    stall_barrier += other.stall_barrier;
    return *this;
  }
  bool operator==(const PcStat&) const = default;
};

// One sample of the warp-occupancy timeline: how the core's warp slots were
// spent at the sampled cycle. Summed across cores (they tick in lockstep,
// so sample grids align) and across launches of the same kernel.
struct OccupancySample {
  uint64_t cycle = 0;    // sample-grid cycle (i * interval)
  uint32_t ready = 0;    // active, decoded instruction buffered, not barred
  uint32_t blocked = 0;  // active but at a barrier or fetch-bound
  uint32_t idle = 0;     // warp slot inactive

  bool operator==(const OccupancySample&) const = default;
};

// Profile of one launch (per core while collecting, merged across cores by
// the cluster, then across launches by the suite).
struct PcProfile {
  bool enabled = false;
  uint32_t occupancy_interval = 0;  // cycles between occupancy samples
  std::map<uint32_t, PcStat> by_pc;  // ordered: deterministic export
  std::vector<OccupancySample> occupancy;
  // Eviction counts per cache set (l1d summed across cores).
  std::vector<uint64_t> l1d_set_conflicts;
  std::vector<uint64_t> l2_set_conflicts;

  // Element-wise accumulation (PCs summed; occupancy and conflict
  // histograms added index-by-index).
  void merge(const PcProfile& other);

  // Sums of the per-PC buckets — equals the aggregate PerfCounters stall
  // totals by construction (asserted by tests/test_profile.cpp).
  PcStat totals() const;

  bool operator==(const PcProfile&) const = default;
};

// Renders `program` with per-PC cycle/stall/IPC columns and source-map
// provenance interleaved (vasm::Program::disassemble annotated mode).
std::string annotated_disassembly(const vasm::Program& program, const vasm::SourceMap& source_map,
                                  const PcProfile& profile);

// Flat-text hot-spot report: top `top_k` PCs by stall cycles, with the
// dominant stall reason, the decoded instruction, and KIR provenance.
std::string hotspot_report(const vasm::Program& program, const vasm::SourceMap& source_map,
                           const PcProfile& profile, size_t top_k);

}  // namespace fgpu::vortex
