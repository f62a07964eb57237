// Off-chip memory timing models for the two boards the paper evaluates:
// Stratix 10 SX2800 (DDR4) and MX2100 (HBM2). HBM2 offers many more
// pseudo-channels (higher request throughput) at a slightly lower latency,
// which is the property the paper calls out when comparing the boards.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "mem/memprof.hpp"
#include "mem/timing.hpp"
#include "trace/trace.hpp"

namespace fgpu::mem {

struct DramConfig {
  std::string name = "ddr4";
  uint32_t latency = 100;          // cycles from accept to response
  uint32_t channels = 1;           // independent request pipes
  uint32_t requests_per_channel = 1;  // line requests accepted per channel per cycle
  uint32_t queue_depth = 32;       // per-channel in-flight limit

  static DramConfig ddr4() { return DramConfig{"ddr4", 100, 1, 1, 32}; }
  static DramConfig hbm2() { return DramConfig{"hbm2", 80, 8, 1, 32}; }
};

// Fixed-latency, bandwidth-limited DRAM. Requests are line-granular;
// channel selection is by address interleaving on line index. Answered
// request ids collect in responses() for the owner to route upward.
class DramModel {
 public:
  explicit DramModel(DramConfig config);

  bool can_accept(uint64_t cycle) const;
  void send(const MemRequest& req, uint64_t cycle);
  // Inline so an idle tick costs one compare: the cluster ticks the DRAM on
  // every simulated cycle, and most find no queued request due.
  void tick(uint64_t cycle) {
    if constexpr (trace::kEnabled) {
      if ((cycle & (trace::kCounterBucketCycles - 1)) == 0) trace_counters(cycle);
    }
    if (cycle < next_tick_) return;
    serve(cycle);
  }

  // First cycle at which tick() has work: the earliest channel front
  // maturing (queues are served front-gated in FIFO order). kNoEvent when
  // every channel is empty. Lowered by send(); recomputed by each tick
  // that does work.
  uint64_t next_tick() const { return next_tick_; }
  // Ids answered by the ticks since the owner last cleared the list.
  std::vector<uint64_t>& responses() { return responses_; }

  const DramConfig& config() const { return config_; }
  const MemStats& stats() const { return stats_; }
  uint64_t bytes_read() const { return stats_.reads * kLineBytes; }
  uint64_t bytes_written() const { return stats_.writes * kLineBytes; }
  // Peak line requests per cycle across channels (bandwidth ceiling).
  double peak_lines_per_cycle() const {
    return static_cast<double>(config_.channels * config_.requests_per_channel);
  }
  // Also the launch boundary: cycles restart at 0 while requests left
  // from the last launch keep their old ready cycles, so the next tick
  // re-evaluates from cycle 0 exactly as it would had every cycle ticked.
  void reset_stats() {
    stats_ = MemStats{};
    trace_last_total_ = 0;
    if (profiler_) profiler_->reset();
    next_tick_ = 0;
    accept_cycle_ = kNoEvent;
  }

  // Full return to construction-time state: reset_stats() plus the
  // per-channel request queues (the device-reuse contract, DESIGN.md
  // "Device lifecycle").
  void reset() {
    reset_stats();
    for (auto& queue : queues_) queue.clear();
    responses_.clear();
  }

  // Names this model's counter track in exported traces ("ddr4.d0"),
  // mirroring Cache::set_trace_id so multi-cluster/multi-device traces
  // keep DRAM tracks distinguishable.
  void set_trace_id(uint32_t tid) {
    trace_tid_ = tid;
    trace_name_ = config_.name + ".d" + std::to_string(tid);
  }

  // Turns on the per-channel DRAM profiler (queue-depth histograms,
  // channel imbalance — see memprof.hpp). Runtime opt-in like the cache's.
  void enable_memprof() {
    if (!profiler_) profiler_ = std::make_unique<DramProfiler>(config_.channels);
  }
  bool memprof_enabled() const { return profiler_ != nullptr; }
  DramMemProfile memprof_snapshot(uint64_t final_cycle) const {
    return profiler_ ? profiler_->snapshot(final_cycle) : DramMemProfile{};
  }

 private:
  struct Inflight {
    uint64_t id;
    uint64_t ready_cycle;
  };

  uint32_t channel_of(uint32_t addr) const { return line_of(addr) % config_.channels; }
  // Requests accepted on `channel` in `cycle` (the counters are stamped
  // with the cycle they count, so no tick has to clear them).
  uint32_t accepted(uint32_t channel, uint64_t cycle) const {
    return cycle == accept_cycle_ ? accepted_[channel] : 0;
  }
  void serve(uint64_t cycle);
  void trace_counters(uint64_t cycle);

  DramConfig config_;
  std::vector<std::deque<Inflight>> queues_;  // per channel
  std::vector<uint32_t> accepted_;            // per channel, in accept_cycle_
  uint64_t accept_cycle_ = kNoEvent;
  uint64_t next_tick_ = 0;
  std::vector<uint64_t> responses_;
  MemStats stats_;
  std::unique_ptr<DramProfiler> profiler_;  // null unless enable_memprof()

  // Trace hook state (see trace/trace.hpp).
  uint32_t trace_tid_ = 0;
  std::string trace_name_;
  uint64_t trace_last_total_ = 0;
};

}  // namespace fgpu::mem
