// Set-associative, write-back, write-allocate cache with MSHRs.
// Used for the per-core L1 instruction/data caches and the shared L2 of
// the soft-GPU cluster. (The HLS executor's burst-coalesced LSU is an
// analytical timing model with no timed cache; its read path is profiled
// through mem::ShadowCacheSim instead — see memprof.hpp.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "mem/dram.hpp"
#include "mem/memprof.hpp"
#include "mem/timing.hpp"
#include "trace/trace.hpp"

namespace fgpu::mem {

// `size_bytes` and `ways` must both be powers of two, so the set count is
// one too and set/tag extraction is a mask and a shift (asserted in the
// Cache constructor).
struct CacheConfig {
  std::string name = "l1d";
  uint32_t size_bytes = 16 * 1024;
  uint32_t ways = 4;
  uint32_t hit_latency = 2;   // cycles from accept to hit response
  uint32_t mshrs = 8;         // outstanding distinct miss lines
  uint32_t ports = 1;         // requests accepted per cycle
  uint32_t mshr_slots = 8;    // merged requests per MSHR

  uint32_t num_lines() const { return size_bytes / kLineBytes; }
  uint32_t num_sets() const { return num_lines() / ways; }
};

class Cache {
 public:
  // The L2: misses and writebacks go to `lower` (not owned).
  Cache(CacheConfig config, DramModel* lower);
  // An L1: misses and writebacks go to the L2 `lower` (not owned), tagged
  // with this cache's `port` on that link (see port_tag in timing.hpp).
  Cache(CacheConfig config, Cache* lower, uint32_t port);

  bool can_accept(uint64_t cycle) const {
    if (cycle == accept_cycle_ && accepted_ >= config_.ports) return false;
    // Must be able to allocate an MSHR in the worst case (miss). This is
    // conservative when the incoming request would merge into an existing
    // MSHR, but that is exactly the back-pressure behaviour that produces
    // LSU stalls in the soft GPU under high warp/thread counts (paper §III-C).
    return mshr_used_ < config_.mshrs;
  }
  // Accepts `req` in `cycle`, after this cache's tick of that cycle.
  void send(const MemRequest& req, uint64_t cycle);
  // The level below answered request `id` (as sent by this cache) in
  // `cycle`, before this cache's tick of that cycle: a line fill installs
  // the line and answers its waiters; a writeback needs nothing.
  void on_lower_response(uint64_t id, uint64_t cycle);
  // Inline so an idle tick costs one compare: the cluster ticks every cache
  // (the L2 and both L1s of each core) on every simulated cycle, and most
  // of those ticks find nothing to send and no hit response due.
  void tick(uint64_t cycle) {
    if constexpr (trace::kEnabled) {
      if ((cycle & (trace::kCounterBucketCycles - 1)) == 0) trace_counters(cycle);
    }
    if (cycle < next_tick_) return;
    tick_queues(cycle);
  }

  // First cycle at which tick() has work: a queued hit response maturing,
  // or unsent lower-level traffic (writebacks / MSHR fills) to retry every
  // cycle. kNoEvent when quiescent apart from fills the lower level owes.
  // Lowered by send() and by a fill that queues a writeback; recomputed by
  // each tick that does work.
  uint64_t next_tick() const { return next_tick_; }
  // Requester ids answered since the owner last cleared the list, in
  // answer order.
  std::vector<uint64_t>& responses() { return responses_; }

  const CacheConfig& config() const { return config_; }
  const MemStats& stats() const { return stats_; }
  // Evictions per set (the profiler's cache-conflict histogram: a hot set
  // with many evictions marks addresses fighting over the same ways).
  const std::vector<uint64_t>& set_conflicts() const { return set_conflicts_; }
  // Also the launch boundary (see flush()).
  void reset_stats() {
    stats_ = MemStats{};
    std::fill(set_conflicts_.begin(), set_conflicts_.end(), 0ull);
    trace_last_total_ = 0;
    if (profiler_) profiler_->reset();
    restart_clock();
  }

  // Turns on the memory-hierarchy profiler (miss classification, reuse
  // distances, MSHR occupancy — see memprof.hpp). Runtime opt-in: when off
  // (the default) the access path pays one null-pointer test and never
  // allocates.
  void enable_memprof() {
    if (!profiler_) profiler_ = std::make_unique<CacheProfiler>(config_.num_lines());
  }
  bool memprof_enabled() const { return profiler_ != nullptr; }
  // Profile snapshot with the open MSHR-occupancy interval closed at
  // `final_cycle`. Empty profile when profiling is off.
  CacheMemProfile memprof_snapshot(uint64_t final_cycle) const {
    return profiler_ ? profiler_->snapshot(final_cycle) : CacheMemProfile{};
  }

  // Names this cache's counter track in exported traces ("l1d.c2"). The
  // owning core/cluster sets this once; caches sharing a config name (one
  // L1D per core) stay distinguishable in the viewer.
  void set_trace_id(uint32_t tid) {
    trace_tid_ = tid;
    trace_name_ = config_.name + ".c" + std::to_string(tid);
  }

  // Invalidates all lines (kernel-launch boundary). Cycles restart at 0 on
  // every launch while traffic left from the last one keeps its old ready
  // cycles, so the next tick re-evaluates from cycle 0 exactly as it would
  // had every cycle ticked (an unsent writeback goes out at cycle 0).
  void flush();

  // Full return to construction-time state: flush() + reset_stats() plus
  // everything the per-launch path leaves behind — pending hit responses,
  // queued writebacks and MSHR allocations. After reset() the cache is
  // indistinguishable from a freshly constructed one (the device-reuse
  // contract, DESIGN.md "Device lifecycle"); memprof enablement is
  // configuration, not state, and survives. No allocation is released —
  // capacity stays warm for reuse.
  void reset();

 private:
  struct LineState {
    uint32_t tag = 0;
    bool valid = false;
    bool dirty = false;
    uint64_t lru = 0;
  };
  struct Mshr {
    uint32_t line_addr = 0;  // line index (addr >> kLineShift)
    bool fill_sent = false;
    // Miss class of the primary (allocating) miss; merged requests inherit
    // it so the exact-sum contract holds without re-classifying.
    uint8_t miss_class = 0;
    std::vector<MemRequest> waiters;
  };
  struct PendingResponse {
    uint64_t id;
    uint64_t ready_cycle;
  };

  uint32_t set_of(uint32_t line_addr) const { return line_addr & set_mask_; }
  uint32_t tag_of(uint32_t line_addr) const { return line_addr >> set_shift_; }
  LineState* lookup(uint32_t line_addr);
  void install(uint32_t line_addr, uint64_t cycle);
  void trace_counters(uint64_t cycle);
  // The non-idle part of tick(): matured hit responses, writebacks and
  // unsent fills; then the next tick's cycle.
  void tick_queues(uint64_t cycle);
  void restart_clock() {
    next_tick_ = 0;
    accept_cycle_ = kNoEvent;
  }
  bool lower_can_accept(uint64_t cycle) const {
    return lower_l2_ != nullptr ? lower_l2_->can_accept(cycle) : lower_dram_->can_accept(cycle);
  }
  void lower_send(const MemRequest& req, uint64_t cycle) {
    if (lower_l2_ != nullptr) {
      lower_l2_->send(req, cycle);
    } else {
      lower_dram_->send(req, cycle);
    }
  }

  CacheConfig config_;
  uint32_t set_mask_ = 0;   // num_sets() - 1
  uint32_t set_shift_ = 0;  // log2(num_sets())
  // The level below: exactly one is set.
  Cache* lower_l2_ = nullptr;
  DramModel* lower_dram_ = nullptr;
  uint64_t lower_tag_ = 0;  // port_tag() on the L1->L2 link, else 0
  std::vector<LineState> lines_;  // [set * ways + way]
  std::vector<Mshr> mshrs_;  // a fill's request id is its index + 1
  std::deque<PendingResponse> hit_queue_;    // hit responses in flight
  std::deque<MemRequest> writeback_queue_;   // dirty evictions waiting to go down
  std::vector<uint64_t> responses_;
  uint64_t next_tick_ = 0;
  uint64_t lru_counter_ = 0;
  uint64_t accept_cycle_ = kNoEvent;  // the cycle accepted_ counts
  uint32_t accepted_ = 0;
  uint32_t mshr_used_ = 0;    // MSHRs with waiters or a fill in flight
  uint32_t mshr_unsent_ = 0;  // MSHRs still needing to send their fill
  MemStats stats_;
  std::vector<uint64_t> set_conflicts_;  // evictions per set
  std::unique_ptr<CacheProfiler> profiler_;  // null unless enable_memprof()

  // Trace hook state (see trace/trace.hpp).
  uint32_t trace_tid_ = 0;
  std::string trace_name_;
  uint64_t trace_last_total_ = 0;
};

}  // namespace fgpu::mem
