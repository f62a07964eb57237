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
    : config_(config), gmem_(gmem), dram_(config.dram), l2_(config.l2, &dram_) {
  l2_.set_trace_id(0);
  dram_.set_trace_id(0);
  if (config_.memprof) {
    l2_.enable_memprof();
    dram_.enable_memprof();
  }
  cores_.reserve(config_.cores);
  stall_track_names_.reserve(config_.cores);
  for (uint32_t c = 0; c < config_.cores; ++c) {
    cores_.push_back(std::make_unique<Core>(config_, c, gmem_, l2_, ecall_handler));
    cores_.back()->l1d().set_trace_id(c);
    cores_.back()->l1i().set_trace_id(c);
    stall_track_names_.push_back("stalls.c" + std::to_string(c));
  }
}

void Cluster::hard_reset() {
  cycle_ = 0;
  l2_.reset();
  dram_.reset();
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
  tick_memory(cycle_);
  for (auto& core : cores_) core->tick_caches(cycle_);
  for (auto& core : cores_) core->tick_logic(cycle_);
  ++cycle_;
  ++ticks_;
}

// Bottom-up so responses ripple one level per cycle: each level's answers
// are routed up before the level above ticks. An idle component's tick is
// one compare against its next_tick().
void Cluster::tick_memory(uint64_t cycle) {
  dram_.tick(cycle);
  if (!dram_.responses().empty()) {
    for (const uint64_t id : dram_.responses()) l2_.on_lower_response(id, cycle);
    dram_.responses().clear();
    route_l2_responses(cycle);
  }
  l2_.tick(cycle);
  route_l2_responses(cycle);
}

// Hands each L2 answer to the L1 whose port rides in the request id.
void Cluster::route_l2_responses(uint64_t cycle) {
  std::vector<uint64_t>& ids = l2_.responses();
  if (ids.empty()) return;
  for (const uint64_t id : ids) {
    const uint32_t port = mem::port_of(id);
    Core& core = *cores_[port >> 1];
    ((port & 1) != 0 ? core.l1i() : core.l1d()).on_lower_response(id, cycle);
  }
  ids.clear();
}

// Event-driven idle skipping (Config::idle_skip). Called after a tick: if
// every core is asleep, the machine's state is frozen until the earliest
// self-scheduled event anywhere in the hierarchy, so jump there. The cores
// charge the skipped cycles when they wake (Core::wake), to the stall
// bucket of their last simulated cycle, which keeps PerfCounters and the
// per-PC profile's exact-sum contract to the cycle (tests/test_fastpath.cpp).
// With no event anywhere (a barrier deadlock) nothing can change again, and
// the jump goes straight to max_cycles.
void Cluster::try_idle_skip() {
  uint64_t wake = std::min(dram_.next_tick(), l2_.next_tick());
  for (const auto& core : cores_) {
    if (!core->asleep()) return;
    wake = std::min({wake, core->wake_cycle(), core->l1d().next_tick(), core->l1i().next_tick()});
  }
  cycle_ = std::max(cycle_, std::min(wake, config_.max_cycles));
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
    if (cycle_ >= config_.max_cycles) break;
  }
  // Cores still asleep (drained early, or stalled at a max_cycles stop) are
  // charged up to the last cycle.
  for (auto& core : cores_) core->wake(cycle_);
  if (cycle_ >= config_.max_cycles) {
    return Result<ClusterStats>(ErrorKind::kRuntimeError,
                                "kernel exceeded max_cycles=" + std::to_string(config_.max_cycles) +
                                    " (possible deadlock or runaway loop)");
  }
  return collect_stats();
}

}  // namespace fgpu::vortex
