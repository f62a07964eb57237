// One SIMT core of the soft GPU: the six-stage in-order pipeline of the
// paper's Fig. 4 (schedule, fetch, decode, issue, execute, commit) modelled
// at cycle level, SimX-style: instructions execute functionally at issue,
// through the semantics table and lane driver the turbo tier also runs
// (arch/semantics.hpp, vortex/lanes.hpp), while timing (scoreboard
// occupancy, FU latency, LSU/cache round trips, barriers, IPDOM divergence)
// is simulated per cycle.
//
// Host-throughput fast path (cycle counts are unaffected, see
// EXPERIMENTS.md "Fast-forward methodology"):
//  * a per-core decode cache (PC -> DecodedInstr) so straight-line refetches
//    skip arch::decode and the issue stage reuses precomputed scoreboard
//    masks instead of re-deriving them from the instruction format;
//  * fixed-capacity ring ibuffers (no per-warp deque allocation churn);
//  * in-flight fetch/LSU responses keyed by request id (warp / queue slot
//    encoded in the low bits) instead of linear side-table scans;
//  * event bookkeeping (wake_cycle, asleep) that lets a stalled or drained
//    core sleep while the others keep running, charged in one batch when
//    it wakes, and lets the cluster fast-forward through cycles where every
//    core sleeps and no memory component is due.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/isa.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "vortex/config.hpp"
#include "vortex/perf.hpp"
#include "vortex/profile.hpp"

namespace fgpu::vortex {

// Host upcall for ECALL (used by the runtime to implement OpenCL printf,
// mirroring the "communication function" challenge in paper §IV-A).
struct EcallRequest {
  uint32_t core_id = 0;
  uint32_t warp_id = 0;
  uint32_t lane = 0;
  uint32_t function = 0;  // a7
  uint32_t arg0 = 0;      // a0
};
using EcallHandler = std::function<void(const EcallRequest&, mem::MainMemory&)>;

class Core {
 public:
  // Both L1s send their misses to `l2`, on link ports 2 * core_id (L1D)
  // and 2 * core_id + 1 (L1I); the cluster routes the L2's answers back by
  // that port (mem/timing.hpp).
  Core(const Config& config, uint32_t core_id, mem::MainMemory& gmem, mem::Cache& l2,
       EcallHandler ecall_handler);

  // Resets all warps; warp 0 starts at `entry_pc` with one active thread
  // (the Vortex boot convention: the startup stub then TMCs/WSPAWNs).
  // Also invalidates the decode cache (the kernel-launch boundary: the
  // runtime rewrites the code region before each run).
  void reset(uint32_t entry_pc);

  // Full return to construction-time state (device-reuse contract; DESIGN.md
  // "Device lifecycle"): everything reset() does, plus the deep L1 state the
  // per-launch path leaves behind (pending responses, MSHRs, writebacks)
  // and the memory-request id sequence. Safe only when no traffic is in
  // flight — i.e. between benchmarks, never between the launches of one.
  // Leaves every warp inactive (busy() == false), like a new core.
  void hard_reset();

  // Ticks the L1s and takes their answers, L1D then L1I (the cluster calls
  // this for every core before any tick_logic). An answer is progress: it
  // freed an MSHR or delivered data, so it wakes a sleeping core.
  void tick_caches(uint64_t cycle) {
    progressed_ = false;
    l1d_.tick(cycle);
    l1i_.tick(cycle);
    if (!l1d_.responses().empty() || !l1i_.responses().empty()) take_responses(cycle);
  }
  // One cycle of pipeline logic: writeback, issue, LSU drain, fetch. A
  // sleeping core (see allow_sleep) is skipped until its wake_cycle().
  void tick_logic(uint64_t cycle) {
    if (asleep_) {
      if (cycle < wake_cycle_) return;
      wake(cycle);
    }
    run_logic(cycle);
  }

  bool busy() const;

  // --- Per-core sleep and idle skipping (see Cluster::run) -------------
  // Gated like idle skipping (the cluster enables it per run; reset()
  // disables it). After a cycle without progress the core's state is
  // frozen until an L1 answer arrives or wake_cycle() is reached, so each
  // cycle in between would repeat that cycle's issue outcome. The core
  // skips them and charges them all through one fast_forward when it wakes.
  void allow_sleep(bool on) { sleep_allowed_ = on; }
  bool asleep() const { return asleep_; }
  // While asleep: the first cycle at which a self-scheduled event (a
  // completion retiring, a non-pipelined FU freeing) is due; kNoEvent
  // when only a memory answer can wake the core.
  uint64_t wake_cycle() const { return wake_cycle_; }
  // Charges the cycles slept before `cycle` and wakes the core; a no-op
  // when awake. The cluster calls it at the end of a run for the cores
  // still asleep (a drained core sleeps until then).
  void wake(uint64_t cycle) {
    if (!asleep_) return;
    fast_forward(sleep_from_, cycle - sleep_from_);
    slept_ticks_ += cycle - sleep_from_;
    asleep_ = false;
  }

  const PerfCounters& perf() const { return perf_; }
  PerfCounters& perf() { return perf_; }
  // Per-PC issue/stall attribution + occupancy timeline; empty unless
  // Config::profile is set.
  const PcProfile& profile() const { return profile_; }
  mem::Cache& l1d() { return l1d_; }
  mem::Cache& l1i() { return l1i_; }
  mem::MainMemory& local_mem() { return local_mem_; }
  uint32_t id() const { return core_id_; }

  // Debug access for tests.
  uint32_t xreg(uint32_t warp, uint32_t lane, uint32_t index) const;
  uint32_t freg_bits(uint32_t warp, uint32_t lane, uint32_t index) const;
  bool warp_active(uint32_t warp) const { return warps_[warp].active; }
  uint64_t warp_tmask(uint32_t warp) const { return warps_[warp].tmask; }
  // Decode-cache statistics (tests assert cold/warm behaviour).
  uint64_t decode_cache_hits() const { return decode_hits_; }
  uint64_t decode_cache_fills() const { return decode_fills_; }
  // Cycles whose pipeline logic was simulated vs. slept cycles charged
  // through fast_forward, idle-skip windows included; cumulative like the
  // decode-cache counters. After a run their sum is its cycle count.
  uint64_t logic_ticks() const { return logic_ticks_; }
  uint64_t slept_ticks() const { return slept_ticks_; }

 private:
  struct IpdomEntry {
    enum Kind : uint8_t { kUniform, kElse, kRestore };
    Kind kind;
    uint64_t mask;
    uint32_t pc;
  };

  // A decoded instruction plus everything the issue stage needs, computed
  // once at decode time instead of per issue attempt: scoreboard masks
  // (sources + destination, x0 excluded), the FU routing/latency and the
  // destination row (the discard row for x0, see vortex/lanes.hpp).
  struct DecodedInstr {
    arch::Instr instr;
    uint32_t need_x = 0;
    uint32_t need_f = 0;
    uint8_t rd_row = 0;
    uint8_t fu = 0;  // arch::FuClass
    bool is_lsu = false;
    bool is_store = false;
  };

  struct FetchSlot {
    DecodedInstr decoded;
    uint32_t pc;
  };

  // Fixed-capacity ring of decoded instructions awaiting issue. Storage is
  // reserved once per Config::ibuffer_depth (the old per-warp std::deque
  // allocated chunks on every push/pop in the fetch hot loop).
  struct IBuffer {
    std::vector<FetchSlot> slots;
    uint32_t head = 0;
    uint32_t count = 0;

    void init(uint32_t capacity) {
      slots.resize(capacity);
      head = count = 0;
    }
    bool empty() const { return count == 0; }
    bool full() const { return count == static_cast<uint32_t>(slots.size()); }
    uint32_t size() const { return count; }
    const FetchSlot& front() const { return slots[head]; }
    void push(const FetchSlot& slot) {
      uint32_t tail = head + count;
      if (tail >= slots.size()) tail -= static_cast<uint32_t>(slots.size());
      slots[tail] = slot;
      ++count;
    }
    void pop() {
      if (++head == slots.size()) head = 0;
      --count;
    }
    void clear() { head = count = 0; }
  };

  struct Warp {
    bool active = false;
    uint32_t pc = 0;
    uint64_t tmask = 0;
    std::vector<IpdomEntry> ipdom;
    IBuffer ibuffer;
    bool fetch_pending = false;
    uint64_t fetch_id = 0;         // full request id of the in-flight fetch
    uint32_t fetch_pc = 0;
    uint64_t fetch_generation = 0;  // warp generation when the fetch left
    uint64_t generation = 0;        // bumped on redirects to drop stale fetches
    bool at_barrier = false;
    uint32_t barrier_id = 0;
    uint32_t busy_x = 0;  // scoreboard bitmasks
    uint32_t busy_f = 0;

    // Clears execution state but keeps the ibuffer/ipdom storage.
    void reset() {
      active = false;
      pc = 0;
      tmask = 0;
      ipdom.clear();
      ibuffer.clear();
      fetch_pending = false;
      fetch_id = 0;
      fetch_pc = 0;
      fetch_generation = 0;
      generation = 0;
      at_barrier = false;
      barrier_id = 0;
      busy_x = busy_f = 0;
    }
  };

  // A memory instruction in flight in the load-store unit.
  struct LsuEntry {
    bool valid = false;
    uint32_t warp = 0;
    bool is_write = false;
    bool has_rd = false;
    bool writes_float = false;
    uint8_t rd = 0;
    uint32_t pc = 0;  // issuing instruction (memory-profiler attribution)
    uint64_t token = 0;                   // allocation token (stale-response guard)
    std::vector<uint32_t> lines_pending;  // line addresses not yet sent
    uint32_t outstanding = 0;             // responses still expected
  };

  // Deferred scoreboard release (register values are committed at issue).
  struct Completion {
    uint64_t ready_cycle;
    uint32_t warp;
    uint8_t rd;
    bool is_float;
  };

  void run_logic(uint64_t cycle);
  // Bulk-attributes `count` slept cycles [from, from+count) to the stall
  // bucket charged on the last simulated cycle (state is provably frozen
  // over the window, so each slept cycle repeats that attribution), and
  // synthesizes the occupancy samples the profiler would have taken.
  void fast_forward(uint64_t from, uint64_t count);
  void take_responses(uint64_t cycle);
  void on_data_response(uint64_t id);
  void on_fetch_response(uint64_t id);
  // Earliest future cycle (> now) at which this core has a self-scheduled
  // event; mem::kNoEvent when it is waiting purely on memory.
  uint64_t next_wake_cycle(uint64_t now) const;
  void do_writeback(uint64_t cycle);
  void do_issue(uint64_t cycle);
  void do_lsu(uint64_t cycle);
  void do_fetch(uint64_t cycle);

  // Decode via the per-core PC -> DecodedInstr cache; nullptr on an invalid
  // encoding. The pointer stays valid until the next decode_at call (cache
  // growth may reallocate).
  const DecodedInstr* decode_at(uint32_t pc);
  static void fill_issue_metadata(DecodedInstr* d);

  // Returns false if the instruction cannot issue this cycle (structural or
  // data hazard); sets *stall_reason for attribution.
  bool can_issue(const Warp& warp, const DecodedInstr& instr, uint64_t cycle, int* stall_reason);
  void execute(uint32_t warp_id, const FetchSlot& slot, uint64_t cycle);
  void execute_memory(uint32_t warp_id, const DecodedInstr& d, uint32_t pc, uint64_t cycle);
  void redirect(Warp& warp, uint32_t new_pc);
  uint32_t next_warp(uint32_t w) const { return w + 1 == config_.warps ? 0 : w + 1; }
  uint32_t read_csr(uint32_t csr, uint32_t warp_id, uint32_t lane, uint64_t cycle) const;
  void barrier_arrive(uint32_t warp_id, uint32_t id, uint32_t count, uint64_t cycle);

  bool is_local_addr(uint32_t addr) const {
    return addr >= arch::kLocalBase && addr < arch::kLocalBase + arch::kLocalSize;
  }

  const Config& config_;
  uint32_t core_id_;
  mem::MainMemory& gmem_;
  mem::MainMemory local_mem_;  // per-core OpenCL __local scratchpad
  mem::Cache l1d_;
  mem::Cache l1i_;
  EcallHandler ecall_handler_;

  std::vector<Warp> warps_;
  std::vector<uint32_t> xregs_;  // [warp][kXRows][lane], register-major (vortex/lanes.hpp)
  std::vector<uint32_t> fregs_;

  std::vector<Completion> completions_;  // unordered; retired by swap-remove
  uint64_t completions_min_ready_ = mem::kNoEvent;  // min ready_cycle in completions_
  std::vector<LsuEntry> lsu_queue_;
  uint32_t lsu_free_ = 0;       // entries with valid == false
  uint32_t lsu_unsent_ = 0;     // valid entries with lines_pending non-empty
  // execute_memory's line list, swapped into the LSU entry it allocates:
  // the buffers circulate between the two, so steady state never allocates.
  std::vector<uint32_t> mem_lines_;
  uint64_t next_mem_id_ = 1;    // never reset: ids stay unique across runs

  // Decode cache: word index (pc - kCodeBase)/4 -> decoded entry. Grows to
  // the highest PC decoded; invalidated wholesale on reset().
  std::vector<DecodedInstr> decode_cache_;
  std::vector<uint8_t> decode_valid_;
  uint64_t decode_hits_ = 0;
  uint64_t decode_fills_ = 0;
  uint64_t logic_ticks_ = 0;
  uint64_t slept_ticks_ = 0;

  // Per-FU readiness (structural hazards for non-pipelined units).
  uint64_t fu_ready_[8] = {0};

  // Barrier bookkeeping: id -> warps arrived.
  std::vector<uint32_t> barrier_arrived_;
  std::vector<uint32_t> barrier_expected_;

  uint32_t issue_rr_ = 0;  // round-robin cursors
  uint32_t fetch_rr_ = 0;
  uint64_t instret_ = 0;

  // Last-cycle issue outcome, for bulk attribution during fast-forward.
  enum class IssueOutcome : uint8_t {
    kIssued, kIdle, kLsu, kScoreboard, kFu, kIbuffer, kBarrier, kNone,
  };
  IssueOutcome last_outcome_ = IssueOutcome::kNone;
  uint32_t last_stall_pc_ = 0;
  // Whether this cycle did anything that could change the next one: issued,
  // fetched, sent an LSU line request or took an L1 answer.
  bool progressed_ = false;
  bool sleep_allowed_ = false;
  bool asleep_ = false;
  uint64_t sleep_from_ = 0;  // while asleep_: the first cycle not simulated
  uint64_t wake_cycle_ = 0;  // while asleep_: next_wake_cycle() at sleep time

  PerfCounters perf_;
  PcProfile profile_;

  void sample_occupancy(uint64_t cycle);
};

}  // namespace fgpu::vortex
