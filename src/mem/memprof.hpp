// Memory-hierarchy profiler (fgpu.mem.v1): miss classification, reuse
// distances, and occupancy histograms beneath the existing MemStats layer.
//
// Every cache level gets a shadow fully-associative LRU tag store of the
// same line count. Each access yields an exact line-granular stack
// distance (the number of distinct lines touched since the previous
// access to this line), which drives both the 3C miss classification
//
//   compulsory  line never seen before (cold)
//   conflict    distance < total lines — a same-size fully-associative
//               LRU cache would have hit, so the miss is down to set
//               mapping / associativity
//   capacity    distance >= total lines — even full associativity misses
//
// and the log2-bucketed reuse-distance histogram. The exact-sum contract
// `compulsory + capacity + conflict == misses` is enforced in tests.
//
// Everything here is runtime opt-in (Config::memprof / fgpu-run
// --memprof): a disabled cache pays one null-pointer test per access and
// allocates nothing. Data structures are deterministic — profiles are
// byte-identical across --jobs once exported.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace fgpu::mem {

enum class MissClass : uint8_t { kCompulsory = 0, kCapacity = 1, kConflict = 2 };

struct MissClasses {
  uint64_t compulsory = 0;
  uint64_t capacity = 0;
  uint64_t conflict = 0;

  uint64_t total() const { return compulsory + capacity + conflict; }
  void add(MissClass cls) {
    switch (cls) {
      case MissClass::kCompulsory: ++compulsory; break;
      case MissClass::kCapacity: ++capacity; break;
      case MissClass::kConflict: ++conflict; break;
    }
  }
  MissClasses& operator+=(const MissClasses& other) {
    compulsory += other.compulsory;
    capacity += other.capacity;
    conflict += other.conflict;
    return *this;
  }
  bool operator==(const MissClasses&) const = default;
};

// Reuse-distance buckets: bucket 0 holds distance 0 (back-to-back reuse),
// bucket k >= 1 holds distances [2^(k-1), 2^k), and the last bucket
// absorbs everything beyond. 21 buckets cover up to 2^20 distinct lines
// (16 MiB of 16-byte lines) before saturating — beyond any modeled cache.
constexpr uint32_t kReuseBuckets = 21;

uint32_t reuse_bucket(uint64_t distance);

// Exact stack distances in O(log n) per access (Bennett–Kruskal): a hash
// map remembers each line's last access timestamp and a Fenwick tree
// counts *live* timestamps, so the distance is the number of live
// timestamps newer than the line's previous one. The timestamp space is
// compacted in place when exhausted, bounding memory by the number of
// distinct lines rather than the access count.
class StackDistance {
 public:
  static constexpr uint64_t kCold = ~0ull;

  // Records an access; returns the stack distance, kCold on first touch.
  uint64_t access(uint32_t line_addr);
  void clear();
  size_t distinct_lines() const { return last_pos_.size(); }

 private:
  void bit_add(uint32_t pos, int delta);
  uint64_t bit_sum(uint32_t pos) const;  // prefix sum over [1, pos]
  void compact();

  std::unordered_map<uint32_t, uint32_t> last_pos_;  // line -> timestamp
  std::vector<uint32_t> tree_;                       // Fenwick, 1-based
  uint32_t time_ = 0;                                // last issued timestamp
};

// Plain-data per-cache-level profile: mergeable across cores and
// launches, exported into fgpu.mem.v1. `by_tag` keys are whatever the
// request stream tags accesses with — instruction PCs on the soft-GPU
// path, AccessSite indices on the HLS read path — ordered for
// deterministic export.
struct CacheMemProfile {
  uint32_t shadow_lines = 0;  // FA-LRU capacity used for classification
  uint64_t accesses = 0;      // hits + misses (incl. MSHR merges)
  uint64_t misses = 0;        // classes.total() == misses, always
  uint64_t cold = 0;          // first-touch accesses (no finite distance)
  MissClasses classes;
  std::array<uint64_t, kReuseBuckets> reuse{};  // finite distances, log2
  std::map<uint32_t, MissClasses> by_tag;       // pc/site -> miss classes
  // Time-weighted MSHR occupancy: mshr_cycles[n] = cycles spent with
  // exactly n MSHRs in use. Empty for shadow-only profiles (HLS).
  std::vector<uint64_t> mshr_cycles;

  uint64_t reuse_total() const;  // cold + sum(reuse) == accesses
  void merge(const CacheMemProfile& other);
  bool operator==(const CacheMemProfile&) const = default;
};

// Per-channel DRAM profile: request counts and a time-weighted queue-depth
// histogram (depth_cycles[d] = cycles the channel queue held d requests).
struct DramChannelProfile {
  uint64_t reads = 0;
  uint64_t writes = 0;
  std::vector<uint64_t> depth_cycles;

  uint64_t requests() const { return reads + writes; }
  uint64_t busy_cycles() const;      // cycles with depth > 0
  uint64_t weighted_depth() const;   // sum of depth * cycles
  void merge(const DramChannelProfile& other);
  bool operator==(const DramChannelProfile&) const = default;
};

struct DramMemProfile {
  std::vector<DramChannelProfile> channels;

  uint64_t total_requests() const;
  // Max-over-mean per-channel request imbalance; 1.0 = perfectly even,
  // `channels` = everything on one channel. 0 when idle.
  double imbalance() const;
  void merge(const DramMemProfile& other);
  bool operator==(const DramMemProfile&) const = default;
};

struct MemHierarchyProfile {
  bool enabled = false;
  CacheMemProfile l1d;
  CacheMemProfile l1i;
  CacheMemProfile l2;
  DramMemProfile dram;

  void merge(const MemHierarchyProfile& other);
  bool operator==(const MemHierarchyProfile&) const = default;
};

// Attached to a mem::Cache (or driven standalone via ShadowCacheSim) when
// profiling is on. Owns the shadow stack and the occupancy accumulators;
// `snapshot(final_cycle)` closes the open MSHR interval and returns the
// plain-data profile.
class CacheProfiler {
 public:
  explicit CacheProfiler(uint32_t shadow_lines);

  // Records an access tagged `tag` and, when `is_miss`, classifies it.
  // The return value is meaningful only for misses.
  MissClass on_access(uint32_t line_addr, uint32_t tag, bool is_miss);
  // A request that merged into an in-flight MSHR: the line's fetch was
  // already classified, so the merged miss inherits the primary's class
  // (re-classifying would mislabel every secondary miss as distance-0
  // conflict). Still updates the shadow stack and reuse histogram.
  void on_merge(uint32_t line_addr, uint32_t tag, MissClass cls);
  // MSHR occupancy transitioned to `used` at `cycle` (time-weighted
  // accounting: the elapsed interval is charged to the previous value, so
  // idle-skipped windows — during which occupancy is frozen — are charged
  // exactly once without per-cycle sampling).
  void on_mshr_change(uint32_t used, uint64_t cycle);

  void reset();
  CacheMemProfile snapshot(uint64_t final_cycle) const;

 private:
  MissClass classify(uint64_t distance) const;
  void record_reuse(uint64_t distance);

  CacheMemProfile profile_;
  StackDistance stack_;
  uint32_t mshr_cur_ = 0;
  uint64_t mshr_since_ = 0;
};

// Standalone shadow simulator for request streams that have no timing
// cache behind them (the HLS burst-LSU read path): a set-associative LRU
// tag store of the reference geometry decides hit/miss and the attached
// CacheProfiler classifies. Purely functional — no cycles, no MSHRs.
class ShadowCacheSim {
 public:
  ShadowCacheSim(uint32_t lines, uint32_t ways);

  void access(uint32_t line_addr, uint32_t tag);
  CacheMemProfile profile() const { return profiler_.snapshot(0); }

 private:
  struct Way {
    uint32_t line_addr = 0;
    uint64_t lru = 0;
    bool valid = false;
  };

  uint32_t sets_;
  uint32_t ways_;
  std::vector<Way> store_;  // [set * ways + way]
  uint64_t lru_counter_ = 0;
  CacheProfiler profiler_;
};

// Per-channel DRAM profiler driven by DramModel when profiling is on.
class DramProfiler {
 public:
  explicit DramProfiler(uint32_t channels);

  void on_request(uint32_t channel, bool is_write);
  void on_depth_change(uint32_t channel, uint32_t depth, uint64_t cycle);
  void reset();
  DramMemProfile snapshot(uint64_t final_cycle) const;

 private:
  DramMemProfile profile_;
  std::vector<uint32_t> depth_cur_;
  std::vector<uint64_t> depth_since_;
};

}  // namespace fgpu::mem
