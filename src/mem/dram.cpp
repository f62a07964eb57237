#include "mem/dram.hpp"

#include <algorithm>
#include <cassert>

#include "trace/trace.hpp"

namespace fgpu::mem {

DramModel::DramModel(DramConfig config)
    : config_(std::move(config)),
      queues_(config_.channels),
      accepted_(config_.channels, 0),
      trace_name_(config_.name) {}

bool DramModel::can_accept(uint64_t cycle) const {
  // Conservative: accept only if every channel has room, since the caller
  // does not know which channel its address maps to. Per-cycle acceptance
  // limits are enforced in send() bookkeeping instead of rejecting here,
  // because multiple sends in one cycle may target distinct channels.
  for (uint32_t c = 0; c < config_.channels; ++c) {
    if (queues_[c].size() >= config_.queue_depth) return false;
    if (accepted(c, cycle) >= config_.requests_per_channel * config_.channels) return false;
  }
  return true;
}

void DramModel::send(const MemRequest& req, uint64_t cycle) {
  const uint32_t c = channel_of(req.addr);
  assert(queues_[c].size() < config_.queue_depth);
  if (cycle != accept_cycle_) {
    std::fill(accepted_.begin(), accepted_.end(), 0u);
    accept_cycle_ = cycle;
  }
  ++accepted_[c];
  // Serialization delay: each queued request behind us adds one service
  // slot (1/requests_per_channel cycles each).
  const uint64_t service =
      (queues_[c].size() + accepted_[c]) / std::max(1u, config_.requests_per_channel);
  const uint64_t ready = cycle + config_.latency + service;
  queues_[c].push_back(Inflight{req.id, ready});
  next_tick_ = std::min(next_tick_, ready);
  if (req.is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
  if (profiler_) {
    profiler_->on_request(c, req.is_write);
    profiler_->on_depth_change(c, static_cast<uint32_t>(queues_[c].size()), cycle);
  }
}

void DramModel::serve(uint64_t cycle) {
  uint64_t next = kNoEvent;
  for (uint32_t c = 0; c < config_.channels; ++c) {
    auto& queue = queues_[c];
    uint32_t served = 0;
    while (!queue.empty() && served < config_.requests_per_channel &&
           queue.front().ready_cycle <= cycle) {
      responses_.push_back(queue.front().id);
      queue.pop_front();
      ++served;
    }
    if (served > 0 && profiler_) {
      profiler_->on_depth_change(c, static_cast<uint32_t>(queue.size()), cycle);
    }
    if (!queue.empty()) next = std::min(next, std::max(queue.front().ready_cycle, cycle + 1));
  }
  next_tick_ = next;
}

void DramModel::trace_counters(uint64_t cycle) {
  trace::Sink* sink = trace::current();
  if (sink == nullptr) return;
  const uint64_t total = stats_.reads + stats_.writes;
  if (total == trace_last_total_) return;
  trace_last_total_ = total;
  uint64_t queued = 0;
  for (const auto& queue : queues_) queued += queue.size();
  // Interned: the sink may outlive this DRAM model.
  sink->counter(sink->intern(trace_name_), trace_tid_, cycle,
                {{"reads", stats_.reads}, {"writes", stats_.writes}, {"queued", queued}});
}

}  // namespace fgpu::mem
