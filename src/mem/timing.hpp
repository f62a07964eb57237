// Timing model of the memory hierarchy. Components (caches, DRAM) exchange
// line-granular requests; the data itself lives in MainMemory. The shape is
// fixed (per core an L1I and an L1D, then L2, then DRAM), so components are
// plain classes wired to the level below them. No component calls upward:
// each appends the ids it answers to its responses() list, which the owner
// drains right after ticking it. Within a cycle components tick bottom-up
// (DRAM, then L2, then the L1s), so a response climbs one level per tick.
#pragma once

#include <cstdint>

namespace fgpu::mem {

// Vortex v1's data cache uses 16-byte lines (4 words); the whole on-chip
// hierarchy of the soft GPU model follows suit. Note this makes a fully
// coalesced 16-lane access span 4 lines — the MSHR pressure behind the
// paper's Fig. 7 "LSU stall" behaviour at high thread counts.
constexpr uint32_t kLineBytes = 16;
constexpr uint32_t kLineShift = 4;

inline uint32_t line_of(uint32_t addr) { return addr >> kLineShift; }

// "No pending event" sentinel for next_tick() queries (idle skipping: the
// cluster fast-forwards to the minimum next tick across components).
constexpr uint64_t kNoEvent = ~0ull;

// Request ids a cache sends below route answers by array index. The low
// kFillIdBits name the request: MSHR slot + 1 for a line fill, 0 for a
// writeback (whose answer needs no routing). Above them an L1 carries its
// port on the L1->L2 link, 2 * core + {0 L1D, 1 L1I}, so the cluster
// hands each L2 answer to the right L1 without a routing table.
constexpr uint32_t kFillIdBits = 16;
constexpr uint64_t kFillIdMask = (1ull << kFillIdBits) - 1;
inline uint64_t port_tag(uint32_t port) { return uint64_t{port} << kFillIdBits; }
inline uint32_t port_of(uint64_t id) { return static_cast<uint32_t>(id >> kFillIdBits); }

struct MemRequest {
  uint64_t id = 0;       // requester-chosen token, returned with the response
  uint32_t addr = 0;     // byte address (component aligns to its granularity)
  bool is_write = false;
  // Attribution tag for the memory profiler: the PC of the instruction
  // behind the access (0 when none, e.g. writebacks). Caches propagate the
  // primary waiter's PC on MSHR fills so L2 misses stay attributable.
  uint32_t pc = 0;
};

struct MemStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t mshr_merges = 0;
  uint64_t stall_rejects = 0;  // sends refused due to back-pressure; 0 today, as
                               // every sender checks can_accept() first

  bool operator==(const MemStats&) const = default;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

}  // namespace fgpu::mem
