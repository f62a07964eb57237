// Memory-hierarchy tests: functional main memory, cache hit/miss/MSHR
// behaviour, writebacks, DRAM latency/bandwidth, and the cluster's routing
// of L2 answers to the L1 ports.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "arch/isa.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/memory.hpp"
#include "mem/memprof.hpp"
#include "vortex/cluster.hpp"

namespace fgpu::mem {
namespace {

TEST(MainMemoryTest, ReadWriteRoundTrip) {
  MainMemory memory;
  memory.store32(0x1000, 0xDEADBEEF);
  EXPECT_EQ(memory.load32(0x1000), 0xDEADBEEFu);
  EXPECT_EQ(memory.load16(0x1000), 0xBEEFu);
  EXPECT_EQ(memory.load8(0x1003), 0xDEu);
  memory.store8(0x1001, 0x42);
  EXPECT_EQ(memory.load32(0x1000), 0xDEAD42EFu);
}

TEST(MainMemoryTest, UntouchedMemoryReadsZero) {
  MainMemory memory;
  EXPECT_EQ(memory.load32(0x7FFF0000), 0u);
}

TEST(MainMemoryTest, FreshlyTouchedPageReadsZero) {
  MainMemory memory;
  // Dirty a page and free it, so the next page allocation is likely to
  // reuse the same heap block.
  memory.fill(0x30000, 0xAB, MainMemory::kPageSize);
  memory.clear();
  memory.store32(0x50004, 0xFFFFFFFFu);  // first touch of a new page
  const uint8_t* page = memory.page_data(0x50000);
  for (uint32_t i = 0; i < MainMemory::kPageSize; ++i) {
    ASSERT_EQ(page[i], (i >= 4 && i < 8) ? 0xFFu : 0u) << "byte " << i;
  }
  const uint8_t* untouched = memory.page_data(0x60000);  // touched by page_data
  EXPECT_EQ(std::count(untouched, untouched + MainMemory::kPageSize, 0),
            static_cast<std::ptrdiff_t>(MainMemory::kPageSize));
}

TEST(MainMemoryTest, CrossPageCopy) {
  MainMemory memory;
  std::vector<uint8_t> data(MainMemory::kPageSize + 128);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i * 7);
  const uint32_t base = MainMemory::kPageSize - 64;  // straddles a page boundary
  memory.write(base, data.data(), static_cast<uint32_t>(data.size()));
  std::vector<uint8_t> out(data.size());
  memory.read(base, out.data(), static_cast<uint32_t>(out.size()));
  EXPECT_EQ(data, out);
}

// The kernel ABI gives each hardware thread a 64 KiB stack slot, but a
// kernel that spills touches only its top words. With 4 KiB pages, one word
// per slot makes one 4 KiB page resident: 1 MiB for 256 threads, not the
// 16 MiB that 64 KiB pages would zero.
TEST(MainMemoryTest, OneSpillPerStackSlotMakesOnePageResident) {
  MainMemory memory;
  EXPECT_EQ(memory.resident_bytes(), 0u);
  constexpr uint32_t kThreads = 256;
  for (uint32_t hwtid = 0; hwtid < kThreads; ++hwtid) {
    const uint32_t sp = arch::kStackTop - (hwtid + 1) * arch::kStackSizePerThread;
    memory.store32(sp - 4, hwtid);
  }
  EXPECT_EQ(memory.resident_bytes(), uint64_t{kThreads} * 4096);
  for (uint32_t hwtid = 0; hwtid < kThreads; ++hwtid) {
    const uint32_t sp = arch::kStackTop - (hwtid + 1) * arch::kStackSizePerThread;
    ASSERT_EQ(memory.load32(sp - 4), hwtid);
  }
  memory.clear();
  EXPECT_EQ(memory.resident_bytes(), 0u);
}

// The last page of the address space sits in the last directory slot and
// the last leaf slot.
TEST(MainMemoryTest, LastPageOfAddressSpaceRoundTrips) {
  MainMemory memory;
  constexpr uint32_t kLastPage = 0xFFFFF000u;
  memory.store32(kLastPage, 0x01234567u);
  memory.store32(0xFFFFFFFCu, 0x89ABCDEFu);
  EXPECT_EQ(memory.load32(kLastPage), 0x01234567u);
  EXPECT_EQ(memory.load32(0xFFFFFFFCu), 0x89ABCDEFu);
  EXPECT_EQ(memory.load8(0xFFFFFFFFu), 0x89u);
  EXPECT_EQ(memory.load32(0xFFFFEFFCu), 0u);  // the page below stays untouched
  EXPECT_EQ(memory.resident_bytes(), uint64_t{MainMemory::kPageSize});
  EXPECT_EQ(memory.page_data(0xFFFFFFFFu), memory.page_data(kLastPage));
}

TEST(MainMemoryTest, FillAndClear) {
  MainMemory memory;
  memory.fill(0x2000, 0xAB, 256);
  EXPECT_EQ(memory.load8(0x2000), 0xABu);
  EXPECT_EQ(memory.load8(0x20FF), 0xABu);
  EXPECT_EQ(memory.load8(0x2100), 0u);
  memory.clear();
  EXPECT_EQ(memory.load8(0x2000), 0u);
}

// Harness that drives a cache over a DRAM and collects responses, in the
// cluster's order: DRAM tick, its answers into the cache, cache tick. Sends
// happen in `cycle`, after its tick (cycle 0 is ticked at construction).
struct Harness {
  DramModel dram{DramConfig::ddr4()};
  Cache cache;
  std::vector<uint64_t> responses;
  uint64_t cycle = 0;

  explicit Harness(CacheConfig config = CacheConfig{}) : cache(config, &dram) { tick_at(0); }

  void tick_at(uint64_t c) {
    dram.tick(c);
    for (const uint64_t id : dram.responses()) cache.on_lower_response(id, c);
    dram.responses().clear();
    cache.tick(c);
    responses.insert(responses.end(), cache.responses().begin(), cache.responses().end());
    cache.responses().clear();
  }

  void tick(int n = 1) {
    for (int i = 0; i < n; ++i) tick_at(++cycle);
  }

  bool can_accept() const { return cache.can_accept(cycle); }
  void send(const MemRequest& req) { cache.send(req, cycle); }

  // Sends when accepted; returns cycles waited.
  int send(uint64_t id, uint32_t addr, bool write = false) {
    int waited = 0;
    while (!can_accept()) {
      tick();
      ++waited;
      EXPECT_LT(waited, 10000) << "cache never accepted";
    }
    send(MemRequest{.id = id, .addr = addr, .is_write = write});
    return waited;
  }

  void drain_until(size_t count, int limit = 5000) {
    int guard = 0;
    while (responses.size() < count && guard++ < limit) tick();
    ASSERT_GE(responses.size(), count) << "timed out draining responses";
  }
};

TEST(CacheTest, MissThenHitLatency) {
  Harness h;
  h.send(1, 0x1000);
  h.drain_until(1);
  const uint64_t miss_done = h.cycle;
  EXPECT_GT(miss_done, DramConfig::ddr4().latency);  // went to DRAM
  h.send(2, 0x1004);  // same line
  h.drain_until(2);
  EXPECT_LE(h.cycle - miss_done, h.cache.config().hit_latency + 3);
  EXPECT_EQ(h.cache.stats().hits, 1u);
  EXPECT_EQ(h.cache.stats().misses, 1u);
}

TEST(CacheTest, MshrMergesSameLine) {
  Harness h;
  h.send(1, 0x2000);
  h.send(2, 0x2008);  // same 16B line, still outstanding
  h.drain_until(2);
  EXPECT_EQ(h.cache.stats().mshr_merges, 1u);
  EXPECT_EQ(h.dram.stats().reads, 1u);  // one line fill serves both
}

TEST(CacheTest, DistinctLinesUseDistinctFills) {
  Harness h;
  h.send(1, 0x3000);
  h.send(2, 0x3010);
  h.send(3, 0x3020);
  h.drain_until(3);
  EXPECT_EQ(h.dram.stats().reads, 3u);
}

TEST(CacheTest, CapacityEvictionAndWriteback) {
  CacheConfig config;
  config.size_bytes = 256;  // 16 lines of 16B
  config.ways = 2;
  config.mshrs = 4;
  Harness h(config);
  // Dirty a line, then stream enough distinct lines through its set to
  // evict it; the dirty eviction must produce a DRAM write.
  h.send(1, 0x0, /*write=*/true);
  h.drain_until(1);
  const uint32_t sets = config.num_sets();
  for (uint64_t i = 1; i <= 4; ++i) {
    h.send(1 + i, static_cast<uint32_t>(i * sets * 16));  // same set as 0x0
    h.drain_until(1 + i);
  }
  EXPECT_GT(h.cache.stats().evictions, 0u);
  EXPECT_GT(h.cache.stats().writebacks, 0u);
  EXPECT_GT(h.dram.stats().writes, 0u);
}

TEST(CacheTest, EvictedLineMissesAgain) {
  CacheConfig config;
  config.size_bytes = 256;
  config.ways = 2;
  Harness h(config);
  h.send(1, 0x0);
  h.drain_until(1);
  const uint32_t sets = config.num_sets();
  for (uint64_t i = 1; i <= 3; ++i) {
    h.send(1 + i, static_cast<uint32_t>(i * sets * 16));
    h.drain_until(1 + i);
  }
  const uint64_t misses_before = h.cache.stats().misses;
  h.send(10, 0x0);  // must have been evicted (2 ways, 3 conflicting lines)
  h.drain_until(5);
  EXPECT_EQ(h.cache.stats().misses, misses_before + 1);
}

TEST(CacheTest, FlushInvalidatesEverything) {
  Harness h;
  h.send(1, 0x4000);
  h.drain_until(1);
  h.cache.flush();
  h.send(2, 0x4000);
  h.drain_until(2);
  EXPECT_EQ(h.cache.stats().misses, 2u);
}

TEST(CacheTest, BackPressureWhenMshrsFull) {
  CacheConfig config;
  config.mshrs = 2;
  Harness h(config);
  ASSERT_TRUE(h.can_accept());
  h.send(MemRequest{.id = 1, .addr = 0x5000});
  h.send(MemRequest{.id = 2, .addr = 0x6000});
  // Port limit: one accept per cycle already consumed... tick to refresh.
  h.tick();
  EXPECT_FALSE(h.can_accept());  // both MSHRs pending
  h.drain_until(2);
  h.tick();
  EXPECT_TRUE(h.can_accept());
}

TEST(CacheTest, PortLimitOneAcceptPerCycle) {
  Harness h;
  h.tick();
  ASSERT_TRUE(h.can_accept());
  h.send(MemRequest{.id = 1, .addr = 0x100});
  EXPECT_FALSE(h.can_accept());  // port consumed this cycle
  h.tick();
  EXPECT_TRUE(h.can_accept());
}

TEST(DramTest, FixedLatency) {
  DramModel dram(DramConfig{"test", 50, 1, 1, 8});
  dram.tick(0);
  dram.send(MemRequest{.id = 1, .addr = 0}, 0);
  uint64_t cycle = 0;
  while (dram.responses().empty() && cycle < 200) dram.tick(++cycle);
  ASSERT_EQ(dram.responses(), std::vector<uint64_t>{1});
  EXPECT_GE(cycle, 50u);
  EXPECT_LE(cycle, 60u);
}

TEST(DramTest, BandwidthOneLinePerCyclePerChannel) {
  DramModel dram(DramConfig{"test", 10, 1, 1, 32});
  int responses = 0;
  uint64_t cycle = 0;
  int sent = 0;
  while (responses < 16 && cycle < 500) {
    dram.tick(cycle);
    responses += static_cast<int>(dram.responses().size());
    dram.responses().clear();
    if (sent < 16 && dram.can_accept(cycle)) {
      dram.send(MemRequest{.id = static_cast<uint64_t>(sent), .addr = 0}, cycle);
      ++sent;
    }
    ++cycle;
  }
  // 16 responses at 1/cycle after the initial latency.
  EXPECT_GE(cycle, 16u + 10u);
  EXPECT_EQ(responses, 16);
}

TEST(DramTest, Hbm2HasMoreChannels) {
  EXPECT_GT(DramConfig::hbm2().channels, DramConfig::ddr4().channels);
  EXPECT_LT(DramConfig::hbm2().latency, DramConfig::ddr4().latency);
  DramModel dram(DramConfig::hbm2());
  EXPECT_DOUBLE_EQ(dram.peak_lines_per_cycle(), 8.0);
}

// The cluster routes each L2 answer by the L1 port riding in its id
// (2 * core + {0 L1D, 1 L1I}), so requester ids only need to be unique per
// L1: two cores' L1Ds use the same id, and core 0's L1D and L1I each get
// back only their own answers.
TEST(ClusterRoutingTest, RoutesL2AnswersToTheRightL1) {
  MainMemory memory;
  vortex::Cluster cluster(vortex::Config::with(2, 1, 1), memory);
  Cache& d0 = cluster.core(0).l1d();
  Cache& i0 = cluster.core(0).l1i();
  Cache& d1 = cluster.core(1).l1d();
  cluster.tick_memory(0);
  d0.tick(0);
  i0.tick(0);
  d1.tick(0);
  d0.send(MemRequest{.id = 100, .addr = 0x1000}, 0);
  i0.send(MemRequest{.id = 100, .addr = 0x2000}, 0);
  d1.send(MemRequest{.id = 100, .addr = 0x3000}, 0);  // same requester id, other core
  std::vector<uint64_t> got_d0, got_i0, got_d1;
  for (uint64_t cycle = 1; cycle < 2000; ++cycle) {
    cluster.tick_memory(cycle);
    for (auto [cache, got] : {std::pair{&d0, &got_d0}, {&i0, &got_i0}, {&d1, &got_d1}}) {
      cache->tick(cycle);
      got->insert(got->end(), cache->responses().begin(), cache->responses().end());
      cache->responses().clear();
    }
    if (cycle == 1) d0.send(MemRequest{.id = 101, .addr = 0x4000}, cycle);
  }
  ASSERT_EQ(got_d0.size(), 2u);
  ASSERT_EQ(got_i0.size(), 1u);
  ASSERT_EQ(got_d1.size(), 1u);
  EXPECT_EQ(got_d0[0], 100u);
  EXPECT_EQ(got_d0[1], 101u);
  EXPECT_EQ(got_i0[0], 100u);
  EXPECT_EQ(got_d1[0], 100u);
  // Each L1 missed once per request and the L2 saw one fill per line.
  EXPECT_EQ(d0.stats().misses, 2u);
  EXPECT_EQ(i0.stats().misses, 1u);
  EXPECT_EQ(d1.stats().misses, 1u);
  EXPECT_EQ(cluster.collect_stats().l2.reads, 4u);
}

// Parameterized property: a burst of reads through any cache geometry
// always produces exactly one response per request and never loses one.
class CacheGeometry : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CacheGeometry, EveryRequestGetsExactlyOneResponse) {
  auto [size_kb, ways, mshrs] = GetParam();
  CacheConfig config;
  config.size_bytes = static_cast<uint32_t>(size_kb) * 1024;
  config.ways = static_cast<uint32_t>(ways);
  config.mshrs = static_cast<uint32_t>(mshrs);
  Harness h(config);
  const int requests = 200;
  uint32_t addr = 0x1234;
  for (int i = 0; i < requests; ++i) {
    addr = addr * 1664525u + 1013904223u;
    h.send(static_cast<uint64_t>(i), addr % (64 * 1024), (i % 3) == 0);
  }
  h.drain_until(requests);
  EXPECT_EQ(h.responses.size(), static_cast<size_t>(requests));
  // Every id delivered exactly once.
  std::vector<uint64_t> sorted = h.responses;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < requests; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], static_cast<uint64_t>(i));
  EXPECT_EQ(h.cache.stats().hits + h.cache.stats().misses, static_cast<uint64_t>(requests));
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 2, 4},
                                           std::tuple{4, 2, 2}, std::tuple{4, 4, 8},
                                           std::tuple{16, 2, 6}, std::tuple{16, 8, 16},
                                           std::tuple{64, 4, 4}));

TEST(MemStatsTest, EqualityOperator) {
  MemStats a, b;
  EXPECT_TRUE(a == b);
  a.hits = 3;
  EXPECT_FALSE(a == b);
  b.hits = 3;
  EXPECT_TRUE(a == b);
}

TEST(StackDistanceTest, ColdThenExactDistances) {
  StackDistance sd;
  EXPECT_EQ(sd.access(1), StackDistance::kCold);
  EXPECT_EQ(sd.access(2), StackDistance::kCold);
  EXPECT_EQ(sd.access(3), StackDistance::kCold);
  EXPECT_EQ(sd.access(1), 2u);  // lines 2 and 3 touched since
  EXPECT_EQ(sd.access(1), 0u);  // back-to-back reuse
  EXPECT_EQ(sd.access(3), 1u);  // only line 1 touched since
  EXPECT_EQ(sd.distinct_lines(), 3u);
}

TEST(StackDistanceTest, CompactionPreservesDistances) {
  // 900+ accesses over 3 lines exhaust the initial timestamp space several
  // times; distances must survive every in-place compaction.
  StackDistance sd;
  sd.access(10);
  sd.access(20);
  sd.access(30);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(sd.access(10), 2u) << "round " << i;
    ASSERT_EQ(sd.access(20), 2u) << "round " << i;
    ASSERT_EQ(sd.access(30), 2u) << "round " << i;
  }
  EXPECT_EQ(sd.distinct_lines(), 3u);
}

TEST(ReuseBucketTest, Log2BucketsWithSaturation) {
  EXPECT_EQ(reuse_bucket(0), 0u);
  EXPECT_EQ(reuse_bucket(1), 1u);
  EXPECT_EQ(reuse_bucket(2), 2u);
  EXPECT_EQ(reuse_bucket(3), 2u);
  EXPECT_EQ(reuse_bucket(4), 3u);
  EXPECT_EQ(reuse_bucket(1023), 10u);
  EXPECT_EQ(reuse_bucket(1024), 11u);
  EXPECT_EQ(reuse_bucket(~0ull >> 1), kReuseBuckets - 1);
}

TEST(CacheProfilerTest, ThreeCClassification) {
  CacheProfiler prof(4);  // shadow FA-LRU capacity: 4 lines
  EXPECT_EQ(prof.on_access(0, 0, true), MissClass::kCompulsory);
  EXPECT_EQ(prof.on_access(1, 0, true), MissClass::kCompulsory);
  // Distance 1 < 4: a same-size fully-associative cache would have hit.
  EXPECT_EQ(prof.on_access(0, 0, true), MissClass::kConflict);
  for (uint32_t line = 2; line <= 5; ++line) prof.on_access(line, 0, true);
  // Four distinct lines touched since the last access: distance >= capacity.
  EXPECT_EQ(prof.on_access(0, 0, true), MissClass::kCapacity);
  const CacheMemProfile p = prof.snapshot(0);
  EXPECT_EQ(p.classes.total(), p.misses);
  EXPECT_EQ(p.reuse_total(), p.accesses);
  EXPECT_EQ(p.classes.compulsory, 6u);
  EXPECT_EQ(p.classes.conflict, 1u);
  EXPECT_EQ(p.classes.capacity, 1u);
}

// The tentpole's exact-sum contracts against a real timed cache:
// compulsory + capacity + conflict == misses == MemStats::misses,
// cold + reuse histogram == accesses == hits + misses, and the by_tag
// attribution partitions the aggregate classes exactly.
TEST(CacheProfilerTest, ExactSumContractsMatchCacheStats) {
  CacheConfig config;
  config.size_bytes = 256;  // 16 lines: small enough to evict under the stream
  config.ways = 2;
  config.mshrs = 4;
  Harness h(config);
  h.cache.enable_memprof();
  ASSERT_TRUE(h.cache.memprof_enabled());
  uint32_t addr = 0x40;
  for (int i = 0; i < 300; ++i) {
    addr = addr * 1664525u + 1013904223u;
    h.send(static_cast<uint64_t>(i), addr % 4096, (i % 5) == 0);
    if (i % 3 == 0) h.tick(2);
  }
  h.drain_until(300);
  const CacheMemProfile p = h.cache.memprof_snapshot(h.cycle);
  EXPECT_EQ(p.misses, h.cache.stats().misses);
  EXPECT_EQ(p.classes.total(), p.misses);
  EXPECT_EQ(p.accesses, h.cache.stats().hits + h.cache.stats().misses);
  EXPECT_EQ(p.reuse_total(), p.accesses);
  EXPECT_GT(p.classes.conflict + p.classes.capacity, 0u);  // stream evicts
  MissClasses by_tag_sum;
  for (const auto& [tag, cls] : p.by_tag) by_tag_sum += cls;
  EXPECT_EQ(by_tag_sum, p.classes);
  // Time-weighted MSHR occupancy accounts for every cycle of the run.
  uint64_t occupancy_cycles = 0;
  for (const uint64_t c : p.mshr_cycles) occupancy_cycles += c;
  EXPECT_EQ(occupancy_cycles, h.cycle);
}

TEST(CacheProfilerTest, MergedMissInheritsPrimaryClass) {
  Harness h;
  h.cache.enable_memprof();
  while (!h.can_accept()) h.tick();
  h.send(MemRequest{.id = 1, .addr = 0x2000, .is_write = false, .pc = 0x100});
  h.tick();
  while (!h.can_accept()) h.tick();
  h.send(MemRequest{.id = 2, .addr = 0x2008, .is_write = false, .pc = 0x104});
  h.drain_until(2);
  ASSERT_EQ(h.cache.stats().mshr_merges, 1u);
  const CacheMemProfile p = h.cache.memprof_snapshot(h.cycle);
  EXPECT_EQ(p.misses, h.cache.stats().misses);
  // The secondary miss rides the primary's fill: it must inherit the
  // compulsory class, not be re-classified as a distance-0 conflict.
  EXPECT_EQ(p.classes.compulsory, 2u);
  EXPECT_EQ(p.classes.conflict, 0u);
  ASSERT_EQ(p.by_tag.size(), 2u);
  EXPECT_EQ(p.by_tag.at(0x100).compulsory, 1u);
  EXPECT_EQ(p.by_tag.at(0x104).compulsory, 1u);
}

TEST(CacheProfilerTest, ResetStatsClearsProfile) {
  Harness h;
  h.cache.enable_memprof();
  h.send(1, 0x1000);
  h.drain_until(1);
  h.cache.reset_stats();
  const CacheMemProfile p = h.cache.memprof_snapshot(h.cycle);
  EXPECT_EQ(p.accesses, 0u);
  EXPECT_EQ(p.misses, 0u);
  EXPECT_EQ(p.by_tag.size(), 0u);
}

TEST(ShadowCacheSimTest, ClassifiesConflictInDirectMappedStore) {
  ShadowCacheSim sim(4, 1);  // 4 sets, direct-mapped; shadow capacity 4 lines
  sim.access(0, 7);
  sim.access(4, 8);  // same set (4 % 4 == 0) evicts line 0 from the store
  sim.access(0, 7);  // distance 1 < 4: the FA shadow still holds it -> conflict
  const CacheMemProfile p = sim.profile();
  EXPECT_EQ(p.accesses, 3u);
  EXPECT_EQ(p.misses, 3u);
  EXPECT_EQ(p.classes.compulsory, 2u);
  EXPECT_EQ(p.classes.conflict, 1u);
  EXPECT_EQ(p.by_tag.at(7).conflict, 1u);
}

TEST(ShadowCacheSimTest, HitsAreNotMisclassified) {
  ShadowCacheSim sim(16, 2);
  sim.access(1, 0);
  sim.access(1, 0);  // hit: counted as an access, never as a miss
  const CacheMemProfile p = sim.profile();
  EXPECT_EQ(p.accesses, 2u);
  EXPECT_EQ(p.misses, 1u);
  EXPECT_EQ(p.reuse_total(), 2u);
}

TEST(DramTest, MemprofCountsRequestsAndOccupancyPerChannel) {
  DramModel dram(DramConfig{"test", 5, 2, 1, 32});  // 2 channels
  dram.enable_memprof();
  dram.set_trace_id(3);  // distinct counter-track name per cluster
  int responses = 0;
  uint64_t cycle = 0;
  dram.tick(cycle);
  int sent = 0;
  while (responses < 8 && cycle < 500) {
    if (sent < 8 && dram.can_accept(cycle)) {
      dram.send(MemRequest{.id = static_cast<uint64_t>(sent),
                           .addr = static_cast<uint32_t>(sent * 16),
                           .is_write = (sent % 2) == 1},
                cycle);
      ++sent;
    }
    dram.tick(++cycle);
    responses += static_cast<int>(dram.responses().size());
    dram.responses().clear();
  }
  ASSERT_EQ(responses, 8);
  const DramMemProfile p = dram.memprof_snapshot(cycle);
  ASSERT_EQ(p.channels.size(), 2u);
  EXPECT_EQ(p.total_requests(), 8u);
  // Line-interleaved addresses split evenly across the two channels.
  EXPECT_EQ(p.channels[0].requests(), 4u);
  EXPECT_EQ(p.channels[1].requests(), 4u);
  EXPECT_DOUBLE_EQ(p.imbalance(), 1.0);
  uint64_t busy = 0;
  for (const auto& ch : p.channels) busy += ch.busy_cycles();
  EXPECT_GT(busy, 0u);
}

}  // namespace
}  // namespace fgpu::mem
