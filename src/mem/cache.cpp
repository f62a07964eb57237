#include "mem/cache.hpp"

#include <cassert>

#include "trace/trace.hpp"

namespace fgpu::mem {

Cache::Cache(CacheConfig config, DramModel* lower)
    : config_(std::move(config)),
      set_mask_(config_.num_sets() - 1),
      set_shift_(log2_floor(config_.num_sets())),
      lower_dram_(lower),
      trace_name_(config_.name) {
  assert(is_pow2(config_.size_bytes) && "cache size must be a power of two");
  assert(is_pow2(config_.ways) && "cache ways must be a power of two");
  assert(config_.num_lines() % config_.ways == 0);
  assert(config_.mshrs < kFillIdMask && "an MSHR slot + 1 must fit the fill id");
  lines_.resize(config_.num_lines());
  set_conflicts_.resize(config_.num_sets(), 0);
}

Cache::Cache(CacheConfig config, Cache* lower, uint32_t port)
    : Cache(std::move(config), static_cast<DramModel*>(nullptr)) {
  lower_l2_ = lower;
  lower_tag_ = port_tag(port);
}

void Cache::flush() {
  for (auto& line : lines_) line = LineState{};
  restart_clock();
}

void Cache::reset() {
  flush();
  reset_stats();
  hit_queue_.clear();
  writeback_queue_.clear();
  mshrs_.clear();
  responses_.clear();
  lru_counter_ = 0;
  mshr_used_ = 0;
  mshr_unsent_ = 0;
}

Cache::LineState* Cache::lookup(uint32_t line_addr) {
  const uint32_t set = set_of(line_addr);
  const uint32_t tag = tag_of(line_addr);
  for (uint32_t w = 0; w < config_.ways; ++w) {
    LineState& line = lines_[set * config_.ways + w];
    if (line.valid && line.tag == tag) return &line;
  }
  return nullptr;
}

void Cache::install(uint32_t line_addr, uint64_t cycle) {
  const uint32_t set = set_of(line_addr);
  LineState* victim = nullptr;
  for (uint32_t w = 0; w < config_.ways; ++w) {
    LineState& line = lines_[set * config_.ways + w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (victim == nullptr || line.lru < victim->lru) victim = &line;
  }
  if (victim->valid) {
    ++stats_.evictions;
    ++set_conflicts_[set];
    if (victim->dirty) {
      ++stats_.writebacks;
      const uint32_t victim_line = (victim->tag << set_shift_) | set;
      writeback_queue_.push_back(
          MemRequest{.id = lower_tag_, .addr = victim_line << kLineShift, .is_write = true});
      next_tick_ = std::min(next_tick_, cycle);
    }
  }
  victim->tag = tag_of(line_addr);
  victim->valid = true;
  victim->dirty = false;
  victim->lru = ++lru_counter_;
}

void Cache::send(const MemRequest& req, uint64_t cycle) {
  if (cycle != accept_cycle_) {
    accept_cycle_ = cycle;
    accepted_ = 0;
  }
  ++accepted_;
  const uint32_t line_addr = line_of(req.addr);
  if (req.is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }

  // Already being fetched? Merge into the MSHR (no extra lower traffic).
  // mshr_used_ counts exactly the MSHRs this scan can match.
  if (mshr_used_ > 0) {
    for (auto& mshr : mshrs_) {
      if ((!mshr.waiters.empty() || mshr.fill_sent) && mshr.line_addr == line_addr) {
        ++stats_.mshr_merges;
        ++stats_.misses;
        if (profiler_) {
          profiler_->on_merge(line_addr, req.pc, static_cast<MissClass>(mshr.miss_class));
        }
        mshr.waiters.push_back(req);
        return;
      }
    }
  }

  if (LineState* line = lookup(line_addr)) {
    ++stats_.hits;
    if (profiler_) profiler_->on_access(line_addr, req.pc, /*is_miss=*/false);
    line->lru = ++lru_counter_;
    if (req.is_write) line->dirty = true;
    hit_queue_.push_back(PendingResponse{req.id, cycle + config_.hit_latency});
    next_tick_ = std::min(next_tick_, cycle + config_.hit_latency);
    return;
  }

  ++stats_.misses;
  MissClass miss_class{};
  if (profiler_) miss_class = profiler_->on_access(line_addr, req.pc, /*is_miss=*/true);
  // Allocate an MSHR; caller guaranteed availability via can_accept().
  Mshr* slot = nullptr;
  for (auto& mshr : mshrs_) {
    if (mshr.waiters.empty() && !mshr.fill_sent) {
      slot = &mshr;
      break;
    }
  }
  if (slot == nullptr) {
    assert(mshrs_.size() < config_.mshrs && "send() called without can_accept()");
    mshrs_.push_back(Mshr{});
    slot = &mshrs_.back();
  }
  slot->line_addr = line_addr;
  slot->fill_sent = false;
  slot->miss_class = static_cast<uint8_t>(miss_class);
  slot->waiters.clear();
  slot->waiters.push_back(req);
  ++mshr_used_;
  ++mshr_unsent_;
  next_tick_ = std::min(next_tick_, cycle + 1);  // the fill goes down next tick
  if (profiler_) profiler_->on_mshr_change(mshr_used_, cycle);
}

void Cache::on_lower_response(uint64_t id, uint64_t cycle) {
  const uint64_t slot = id & kFillIdMask;
  // Slot 0 is a writeback ack; an answer to a slot with no fill in flight
  // is stale (it was sent before a reset) and changes nothing.
  if (slot == 0 || slot > mshrs_.size() || !mshrs_[slot - 1].fill_sent) return;
  Mshr& mshr = mshrs_[slot - 1];
  install(mshr.line_addr, cycle);
  LineState* line = lookup(mshr.line_addr);
  for (const auto& waiter : mshr.waiters) {
    if (waiter.is_write && line != nullptr) line->dirty = true;
    responses_.push_back(waiter.id);
  }
  mshr.waiters.clear();
  mshr.fill_sent = false;
  --mshr_used_;
  if (profiler_) profiler_->on_mshr_change(mshr_used_, cycle);
}

// Bucketed counter samples of the cumulative hit/miss/eviction totals —
// bounded trace volume regardless of traffic, and only when totals moved.
void Cache::trace_counters(uint64_t cycle) {
  trace::Sink* sink = trace::current();
  if (sink == nullptr) return;
  const uint64_t total = stats_.hits + stats_.misses + stats_.evictions + stats_.writebacks;
  if (total == trace_last_total_) return;
  trace_last_total_ = total;
  // Interned: the sink may outlive this cache.
  sink->counter(sink->intern(trace_name_), trace_tid_, cycle,
                {{"hits", stats_.hits},
                 {"misses", stats_.misses},
                 {"evictions", stats_.evictions},
                 {"writebacks", stats_.writebacks},
                 {"mshr_merges", stats_.mshr_merges},
                 {"mshr_used", mshr_used_}});
}

void Cache::tick_queues(uint64_t cycle) {
  // Drain hit responses whose latency elapsed.
  while (!hit_queue_.empty() && hit_queue_.front().ready_cycle <= cycle) {
    responses_.push_back(hit_queue_.front().id);
    hit_queue_.pop_front();
  }

  // Writebacks take priority on the lower port (they free victim lines).
  while (!writeback_queue_.empty() && lower_can_accept(cycle)) {
    lower_send(writeback_queue_.front(), cycle);
    writeback_queue_.pop_front();
  }

  // Issue line fills for MSHRs that have not sent one yet.
  if (mshr_unsent_ > 0) {
    for (auto& mshr : mshrs_) {
      if (!mshr.waiters.empty() && !mshr.fill_sent) {
        if (!lower_can_accept(cycle)) break;
        // The fill carries the primary waiter's PC so lower-level misses
        // stay attributable to the instruction that started the chain.
        const uint64_t slot = static_cast<uint64_t>(&mshr - mshrs_.data());
        lower_send(MemRequest{.id = lower_tag_ | (slot + 1),
                              .addr = mshr.line_addr << kLineShift,
                              .is_write = false,
                              .pc = mshr.waiters.front().pc},
                   cycle);
        mshr.fill_sent = true;
        --mshr_unsent_;
      }
    }
  }

  // Unsent lower-level traffic retries every cycle (its send time depends
  // on lower-level back-pressure we cannot predict). Hit responses drain
  // front-gated in FIFO order, so the front holds the next maturity.
  if (!writeback_queue_.empty() || mshr_unsent_ > 0) {
    next_tick_ = cycle + 1;
  } else if (!hit_queue_.empty()) {
    next_tick_ = hit_queue_.front().ready_cycle;
  } else {
    next_tick_ = kNoEvent;
  }
}

}  // namespace fgpu::mem
