#include "vortex/cluster.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace fgpu::vortex {
namespace {

void add_histogram(std::vector<uint64_t>& into, const std::vector<uint64_t>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

void add_stats(mem::MemStats& into, const mem::MemStats& from) {
  into.reads += from.reads;
  into.writes += from.writes;
  into.hits += from.hits;
  into.misses += from.misses;
  into.evictions += from.evictions;
  into.writebacks += from.writebacks;
  into.mshr_merges += from.mshr_merges;
  into.stall_rejects += from.stall_rejects;
}

}  // namespace

Cluster::Cluster(const Config& config, mem::MainMemory& gmem, EcallHandler ecall_handler)
    : config_(config), gmem_(gmem), dram_(config.dram), l2_(config.l2, &dram_), noc_(&l2_) {
  l2_.set_trace_id(0);
  dram_.set_trace_id(0);
  if (config_.memprof) {
    l2_.enable_memprof();
    dram_.enable_memprof();
  }
  cores_.reserve(config_.cores);
  stall_track_names_.reserve(config_.cores);
  for (uint32_t c = 0; c < config_.cores; ++c) {
    cores_.push_back(std::make_unique<Core>(config_, c, gmem_, *noc_.new_port(), *noc_.new_port(),
                                            ecall_handler));
    cores_.back()->l1d().set_trace_id(c);
    cores_.back()->l1i().set_trace_id(c);
    stall_track_names_.push_back("stalls.c" + std::to_string(c));
  }
}

void Cluster::hard_reset() {
  cycle_ = 0;
  l2_.reset();
  dram_.reset();
  noc_.reset();
  for (auto& core : cores_) core->hard_reset();
}

void Cluster::reset(uint32_t entry_pc) {
  cycle_ = 0;
  l2_.flush();
  l2_.reset_stats();
  dram_.reset_stats();
  for (auto& core : cores_) core->reset(entry_pc);
}

bool Cluster::busy() const {
  for (const auto& core : cores_) {
    if (core->busy()) return true;
  }
  return false;
}

void Cluster::tick() {
  if constexpr (trace::kEnabled) {
    if ((cycle_ & (trace::kCounterBucketCycles - 1)) == 0) trace_counters();
  }
  // Clear the per-cycle progress flags before anything can deliver a
  // response (memory responses count as progress for idle skipping).
  for (auto& core : cores_) core->begin_tick();
  // Bottom-up so responses ripple one level per cycle.
  dram_.tick(cycle_);
  l2_.tick(cycle_);
  for (auto& core : cores_) core->tick_caches(cycle_);
  for (auto& core : cores_) core->tick_logic(cycle_);
  ++cycle_;
  ++ticks_;
}

// Event-driven idle skipping (Config::idle_skip). Called after a tick: if
// no core made progress on that cycle, the machine's state is frozen until
// the earliest self-scheduled event anywhere in the hierarchy — every
// intervening cycle would replay the same issue outcome. Jump there,
// letting each core bulk-attribute the skipped cycles to the stall bucket
// it charged on the base cycle (preserving PerfCounters and the per-PC
// profile's exact-sum contract to the cycle; see tests/test_fastpath.cpp).
void Cluster::try_idle_skip() {
  for (const auto& core : cores_) {
    if (core->progressed()) return;
  }
  // `cycle_` was already advanced past the stalled cycle; components were
  // last ticked at cycle_ - 1 and their queries are relative to that.
  const uint64_t base = cycle_ - 1;
  uint64_t wake = dram_.next_event_cycle();
  wake = std::min(wake, l2_.next_event_cycle());
  for (const auto& core : cores_) {
    wake = std::min(wake, core->l1d().next_event_cycle());
    wake = std::min(wake, core->l1i().next_event_cycle());
    wake = std::min(wake, core->next_wake_cycle(base));
  }
  // No known event (e.g. a barrier deadlock): keep per-cycle ticking so the
  // max_cycles guard fires exactly as before.
  if (wake == mem::kNoEvent) return;
  wake = std::min(wake, config_.max_cycles);
  if (wake <= cycle_) return;
  for (auto& core : cores_) core->fast_forward(cycle_, wake - cycle_);
  cycle_ = wake;
}

// Per-bucket stall-attribution samples: one cumulative counter track per
// core, broken down by the issue-stage bubble reasons behind the paper's
// Fig. 7 analysis. Counter values are running totals; the slope in the
// trace viewer is the per-bucket stall rate.
void Cluster::trace_counters() const {
  trace::Sink* sink = trace::current();
  if (sink == nullptr) return;
  for (uint32_t c = 0; c < num_cores(); ++c) {
    const PerfCounters& perf = cores_[c]->perf();
    const uint64_t total = perf.stall_scoreboard + perf.stall_lsu + perf.stall_fu +
                           perf.stall_ibuffer + perf.stall_barrier + perf.idle_cycles;
    if (total == 0 && cycle_ != 0) continue;
    // Interned: the sink may outlive this cluster (the suite runner exports
    // after the devices are destroyed).
    sink->counter(sink->intern(stall_track_names_[c]), c, cycle_,
                  {{"scoreboard", perf.stall_scoreboard},
                   {"lsu", perf.stall_lsu},
                   {"fu", perf.stall_fu},
                   {"ibuffer", perf.stall_ibuffer},
                   {"barrier", perf.stall_barrier},
                   {"idle", perf.idle_cycles}});
  }
}

ClusterStats Cluster::collect_stats() const {
  ClusterStats stats;
  for (const auto& core : cores_) {
    PerfCounters perf = core->perf();
    perf.cycles = cycle_;
    stats.perf.accumulate(perf);
    add_stats(stats.l1d, core->l1d().stats());
    add_stats(stats.l1i, core->l1i().stats());
  }
  add_stats(stats.l2, l2_.stats());
  add_stats(stats.dram, dram_.stats());
  stats.dram_bytes = dram_.bytes_read() + dram_.bytes_written();
  return stats;
}

mem::MemHierarchyProfile Cluster::collect_mem_profile() const {
  mem::MemHierarchyProfile profile;
  if (!config_.memprof) return profile;
  profile.enabled = true;
  // Open time-weighted intervals (MSHR occupancy, DRAM queue depth) close
  // at the final simulated cycle.
  for (const auto& core : cores_) {
    profile.l1d.merge(core->l1d().memprof_snapshot(cycle_));
    profile.l1i.merge(core->l1i().memprof_snapshot(cycle_));
  }
  profile.l2 = l2_.memprof_snapshot(cycle_);
  profile.dram = dram_.memprof_snapshot(cycle_);
  return profile;
}

PcProfile Cluster::collect_profile() const {
  PcProfile profile;
  if (!config_.profile) return profile;
  for (const auto& core : cores_) {
    profile.merge(core->profile());
    add_histogram(profile.l1d_set_conflicts, core->l1d().set_conflicts());
  }
  profile.l2_set_conflicts = l2_.set_conflicts();
  return profile;
}

Result<ClusterStats> Cluster::run(uint32_t entry_pc) {
  reset(entry_pc);
  // Idle skipping is bypassed while a trace sink is active: the per-cycle
  // counter tracks sample on a cycle grid the skip would jump over. Per-core
  // sleep shares the gate: both rest on the same frozen-state argument.
  const bool idle_skip = config_.idle_skip && trace::current() == nullptr;
  for (auto& core : cores_) core->allow_sleep(idle_skip);
  while (busy()) {
    tick();
    if (idle_skip) try_idle_skip();
    if (cycle_ >= config_.max_cycles) {
      return Result<ClusterStats>(ErrorKind::kRuntimeError,
                                  "kernel exceeded max_cycles=" + std::to_string(config_.max_cycles) +
                                      " (possible deadlock or runaway loop)");
    }
  }
  return collect_stats();
}

}  // namespace fgpu::vortex
