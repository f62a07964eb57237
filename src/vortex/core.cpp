#include "vortex/core.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "trace/trace.hpp"
#include "vortex/lanes.hpp"

namespace fgpu::vortex {
namespace {

using arch::Instr;
using arch::Op;
using arch::sem::Opd;

constexpr int kStallNone = 0, kStallScoreboard = 1, kStallLsu = 2, kStallFu = 3;

// In-flight request ids encode their routing slot in the low byte (warp
// index for fetches, LSU queue slot for data requests) and a monotonically
// increasing sequence above it, so responses resolve in O(1) and a stale
// response (from before a reset) can never match a recycled slot.
constexpr uint64_t kIdSlotBits = 8;
constexpr uint64_t kIdSlotMask = (1ull << kIdSlotBits) - 1;

// Decode-cache ceiling: PCs past this word index fall back to uncached
// decode (kernels are tiny; this only guards runaway PCs from growing the
// cache unboundedly).
constexpr uint32_t kDecodeCacheMaxWords = 1u << 20;

}  // namespace

Core::Core(const Config& config, uint32_t core_id, mem::MainMemory& gmem, mem::Cache& l2,
           EcallHandler ecall_handler)
    : config_(config),
      core_id_(core_id),
      gmem_(gmem),
      l1d_(config.l1d, &l2, 2 * core_id),
      l1i_(config.l1i, &l2, 2 * core_id + 1),
      ecall_handler_(std::move(ecall_handler)),
      warps_(config.warps),
      xregs_(config.warps * config.threads * kXRows, 0),
      fregs_(config.warps * config.threads * 32, 0),
      lsu_queue_(config.lsu_queue_depth),
      lsu_free_(config.lsu_queue_depth),
      barrier_arrived_(32, 0),
      barrier_expected_(32, 0) {
  assert(config_.warps <= (1u << kIdSlotBits) && "warp index must fit the id slot byte");
  assert(config_.lsu_queue_depth <= (1u << kIdSlotBits) && "LSU slot must fit the id slot byte");
  for (auto& warp : warps_) warp.ibuffer.init(std::max(1u, config_.ibuffer_depth));
  if (config_.memprof) {
    l1d_.enable_memprof();
    l1i_.enable_memprof();
  }
}

// Answers are taken L1D first, then L1I: each only touches its own side's
// state (LSU entries and scoreboard vs. fetch slots), so the order between
// the two lists cannot matter. A sleeping core is charged for its slept
// cycles first, so the charge samples the state it slept in.
void Core::take_responses(uint64_t cycle) {
  wake(cycle);
  progressed_ = true;
  for (const uint64_t id : l1d_.responses()) on_data_response(id);
  l1d_.responses().clear();
  for (const uint64_t id : l1i_.responses()) on_fetch_response(id);
  l1i_.responses().clear();
}

// O(1): the queue slot is in the id's low byte; the token above it rejects
// responses addressed to a previous occupant of the slot. A stale response
// still counts as progress: it freed an L1D MSHR, which can unblock do_lsu.
void Core::on_data_response(uint64_t id) {
  LsuEntry& entry = lsu_queue_[id & kIdSlotMask];
  if (!entry.valid || entry.token != (id >> kIdSlotBits)) return;  // stale
  assert(entry.outstanding > 0);
  --entry.outstanding;
  if (entry.outstanding == 0 && entry.lines_pending.empty()) {
    if (entry.has_rd) {
      Warp& warp = warps_[entry.warp];
      if (entry.writes_float) {
        warp.busy_f &= ~(1u << entry.rd);
      } else {
        warp.busy_x &= ~(1u << entry.rd);
      }
    }
    entry.valid = false;
    ++lsu_free_;
  }
}

// O(1): the fetching warp is in the id's low byte; the full id must match
// the warp's in-flight fetch (stale responses never do).
void Core::on_fetch_response(uint64_t id) {
  Warp& warp = warps_[id & kIdSlotMask];
  if (!warp.fetch_pending || warp.fetch_id != id) return;  // stale
  warp.fetch_pending = false;
  if (warp.generation != warp.fetch_generation || !warp.active) return;  // stale
  const DecodedInstr* decoded = decode_at(warp.fetch_pc);
  if (decoded == nullptr) {
    FGPU_LOG(kError, "core %u warp %u: invalid instruction at %08x", core_id_,
             static_cast<uint32_t>(id & kIdSlotMask), warp.fetch_pc);
    warp.active = false;
    return;
  }
  warp.ibuffer.push(FetchSlot{*decoded, warp.fetch_pc});
}

void Core::reset(uint32_t entry_pc) {
  for (auto& warp : warps_) warp.reset();
  std::fill(xregs_.begin(), xregs_.end(), 0u);
  std::fill(fregs_.begin(), fregs_.end(), 0u);
  completions_.clear();
  completions_min_ready_ = mem::kNoEvent;
  for (auto& entry : lsu_queue_) entry = LsuEntry{};
  lsu_free_ = config_.lsu_queue_depth;
  lsu_unsent_ = 0;
  // The runtime rewrites the code region between launches; drop every
  // cached decode (next_mem_id_ is NOT reset, so in-flight responses from a
  // previous run can never match a new request id).
  std::fill(decode_valid_.begin(), decode_valid_.end(), uint8_t{0});
  last_outcome_ = IssueOutcome::kNone;
  last_stall_pc_ = 0;
  progressed_ = false;
  sleep_allowed_ = false;
  asleep_ = false;
  std::fill(std::begin(fu_ready_), std::end(fu_ready_), 0ull);
  std::fill(barrier_arrived_.begin(), barrier_arrived_.end(), 0u);
  std::fill(barrier_expected_.begin(), barrier_expected_.end(), 0u);
  issue_rr_ = fetch_rr_ = 0;
  instret_ = 0;
  perf_ = PerfCounters{};
  profile_ = PcProfile{};
  profile_.enabled = config_.profile;
  profile_.occupancy_interval = config_.profile_interval;
  local_mem_.clear();
  l1d_.flush();
  l1i_.flush();
  l1d_.reset_stats();
  l1i_.reset_stats();

  warps_[0].active = true;
  warps_[0].pc = entry_pc;
  warps_[0].tmask = 1;
}

void Core::hard_reset() {
  reset(0);
  // reset() is the launch boundary: it leaves warp 0 armed. A hard reset
  // models a not-yet-launched core, so deactivate it again.
  warps_[0].reset();
  // With every queue empty across the hierarchy there are no stale in-flight
  // responses to collide with, so the id sequence can restart — giving a
  // reused device the exact request-id stream of a fresh one.
  next_mem_id_ = 1;
  l1d_.reset();
  l1i_.reset();
}

bool Core::busy() const {
  for (const auto& warp : warps_) {
    if (warp.active) return true;
  }
  return lsu_free_ != config_.lsu_queue_depth || !completions_.empty();
}

uint32_t Core::xreg(uint32_t warp, uint32_t lane, uint32_t index) const {
  return xregs_[(warp * kXRows + index) * config_.threads + lane];
}
uint32_t Core::freg_bits(uint32_t warp, uint32_t lane, uint32_t index) const {
  return fregs_[(warp * 32 + index) * config_.threads + lane];
}

uint32_t Core::read_csr(uint32_t csr, uint32_t warp_id, uint32_t lane, uint64_t cycle) const {
  switch (csr) {
    case arch::kCsrThreadId: return lane;
    case arch::kCsrWarpId: return warp_id;
    case arch::kCsrCoreId: return core_id_;
    case arch::kCsrTmask: return static_cast<uint32_t>(warps_[warp_id].tmask);
    case arch::kCsrNumThreads: return config_.threads;
    case arch::kCsrNumWarps: return config_.warps;
    case arch::kCsrNumCores: return config_.cores;
    case arch::kCsrCycle: return static_cast<uint32_t>(cycle);
    case arch::kCsrInstret: return static_cast<uint32_t>(instret_);
    default: return 0;
  }
}

void Core::redirect(Warp& warp, uint32_t new_pc) {
  warp.pc = new_pc;
  ++warp.generation;
  warp.ibuffer.clear();
}

void Core::barrier_arrive(uint32_t warp_id, uint32_t id, uint32_t count, uint64_t cycle) {
  assert(id < barrier_arrived_.size());
  Warp& warp = warps_[warp_id];
  warp.at_barrier = true;
  warp.barrier_id = id;
  barrier_expected_[id] = count;
  ++barrier_arrived_[id];
  ++perf_.barriers;
  FGPU_TRACE_INSTANT("barrier_arrive", "warp", core_id_, cycle,
                     {{"warp", warp_id}, {"barrier", id}, {"arrived", barrier_arrived_[id]}});
  if (barrier_arrived_[id] >= barrier_expected_[id]) {
    for (auto& other : warps_) {
      if (other.at_barrier && other.barrier_id == id) other.at_barrier = false;
    }
    barrier_arrived_[id] = 0;
    FGPU_TRACE_INSTANT("barrier_release", "warp", core_id_, cycle,
                       {{"barrier", id}, {"warps", count}});
  }
}

void Core::run_logic(uint64_t cycle) {
  ++logic_ticks_;
  if (profile_.enabled && cycle % config_.profile_interval == 0) sample_occupancy(cycle);
  do_writeback(cycle);
  do_issue(cycle);
  do_lsu(cycle);
  do_fetch(cycle);
  // Nothing changed this cycle, so nothing will until a memory response or
  // this core's own next event: sleep until then (a drained core has no
  // event and sleeps until the end of the run).
  asleep_ = sleep_allowed_ && !progressed_;
  if (asleep_) {
    sleep_from_ = cycle + 1;
    wake_cycle_ = next_wake_cycle(cycle);
  }
}

// One occupancy-timeline sample: how this core's warp slots are spent.
// "Ready" warps have a decoded instruction buffered and are not barred —
// they may still stall at issue (scoreboard/LSU/FU), which the per-PC
// table attributes; the timeline shows how much parallelism the scheduler
// had available at all (the latency-hiding story behind Fig. 7).
void Core::sample_occupancy(uint64_t cycle) {
  OccupancySample sample;
  sample.cycle = cycle;
  for (const Warp& warp : warps_) {
    if (!warp.active) {
      ++sample.idle;
    } else if (warp.at_barrier || warp.ibuffer.empty()) {
      ++sample.blocked;
    } else {
      ++sample.ready;
    }
  }
  profile_.occupancy.push_back(sample);
}

void Core::do_writeback(uint64_t cycle) {
  // Nothing retires before the cached minimum ready cycle — skip the scan
  // entirely on most cycles (the common case in latency-bound phases).
  if (completions_min_ready_ > cycle) return;
  // Completions are unordered (latencies differ); retire by swap-remove —
  // O(1) per retirement, order-independent since retiring only clears
  // scoreboard bits — recomputing the minimum over the survivors.
  uint64_t min_ready = mem::kNoEvent;
  for (size_t i = 0; i < completions_.size();) {
    const Completion& c = completions_[i];
    if (c.ready_cycle <= cycle) {
      Warp& warp = warps_[c.warp];
      if (c.is_float) {
        warp.busy_f &= ~(1u << c.rd);
      } else {
        warp.busy_x &= ~(1u << c.rd);
      }
      progressed_ = true;
      completions_[i] = completions_.back();
      completions_.pop_back();
    } else {
      min_ready = std::min(min_ready, c.ready_cycle);
      ++i;
    }
  }
  completions_min_ready_ = min_ready;
}

// Scoreboard masks and FU routing were precomputed at decode time
// (fill_issue_metadata); the issue hot loop is just mask tests.
bool Core::can_issue(const Warp& warp, const DecodedInstr& d, uint64_t cycle,
                     int* stall_reason) {
  if ((warp.busy_x & d.need_x) != 0 || (warp.busy_f & d.need_f) != 0) {
    *stall_reason = kStallScoreboard;
    return false;
  }
  // Structural hazards.
  if (d.is_lsu) {
    if (lsu_free_ == 0) {
      *stall_reason = kStallLsu;
      return false;
    }
  } else if (fu_ready_[d.fu] > cycle) {
    *stall_reason = kStallFu;
    return false;
  }
  *stall_reason = kStallNone;
  return true;
}

// Derives everything can_issue needs from the instruction format, once per
// decode-cache fill instead of once per issue attempt.
void Core::fill_issue_metadata(DecodedInstr* d) {
  const Instr& instr = d->instr;
  const auto& info = arch::op_info(instr.op);
  uint32_t need_x = 0, need_f = 0;
  auto add = [&](uint8_t reg, bool fp) {
    if (fp) {
      need_f |= (1u << reg);
    } else if (reg != 0) {
      need_x |= (1u << reg);
    }
  };
  switch (info.fmt) {
    case arch::Format::kR:
      add(instr.rs1, arch::reads_freg_rs1(instr.op));
      add(instr.rs2, arch::reads_freg_rs2(instr.op));
      add(instr.rd, arch::writes_freg(instr.op));
      break;
    case arch::Format::kR4:
      add(instr.rs1, true);
      add(instr.rs2, true);
      add(instr.rs3, true);
      add(instr.rd, true);
      break;
    case arch::Format::kI:
    case arch::Format::kIShift:
    case arch::Format::kCsr:
      add(instr.rs1, false);
      add(instr.rd, arch::writes_freg(instr.op));
      break;
    case arch::Format::kS:
      add(instr.rs1, false);
      add(instr.rs2, arch::reads_freg_rs2(instr.op));
      break;
    case arch::Format::kB:
      add(instr.rs1, false);
      add(instr.rs2, false);
      break;
    case arch::Format::kJr:
      add(instr.rs1, false);
      break;
    case arch::Format::kU:
    case arch::Format::kJ:
      add(instr.rd, false);
      break;
    case arch::Format::kAmo:
      add(instr.rs1, false);
      add(instr.rs2, false);
      add(instr.rd, false);
      break;
    case arch::Format::kSys:
      // ECALL reads a0/a7 by convention.
      if (instr.op == Op::kEcall) {
        need_x |= (1u << 10) | (1u << 17);
      }
      break;
  }
  d->need_x = need_x;
  d->need_f = need_f;
  d->rd_row = dest_row(instr);
  d->fu = static_cast<uint8_t>(info.fu);
  d->is_lsu = info.fu == arch::FuClass::kLsu;
  d->is_store = instr.op == Op::kSb || instr.op == Op::kSh || instr.op == Op::kSw ||
                instr.op == Op::kFsw;
}

// Decode through the per-core PC -> DecodedInstr cache. The cache is indexed
// by code-region word offset, grown on demand, and invalidated wholesale at
// reset() (the kernel-launch boundary — the same point the L1I is flushed).
const Core::DecodedInstr* Core::decode_at(uint32_t pc) {
  const uint32_t word_index = (pc - arch::kCodeBase) / 4;
  const bool cacheable = pc >= arch::kCodeBase && pc % 4 == 0 &&
                         word_index < kDecodeCacheMaxWords;
  if (cacheable && word_index < decode_cache_.size() && decode_valid_[word_index]) {
    ++decode_hits_;
    return &decode_cache_[word_index];
  }
  const uint32_t word = gmem_.load32(pc);
  auto decoded = arch::decode(word);
  if (!decoded) return nullptr;
  if (!cacheable) {
    // Off-region PC (runaway jump): decode into a scratch slot, uncached.
    static thread_local DecodedInstr scratch;
    scratch = DecodedInstr{};
    scratch.instr = *decoded;
    fill_issue_metadata(&scratch);
    return &scratch;
  }
  if (word_index >= decode_cache_.size()) {
    decode_cache_.resize(word_index + 1);
    decode_valid_.resize(word_index + 1, 0);
  }
  DecodedInstr& entry = decode_cache_[word_index];
  entry = DecodedInstr{};
  entry.instr = *decoded;
  fill_issue_metadata(&entry);
  decode_valid_[word_index] = 1;
  ++decode_fills_;
  return &entry;
}

void Core::do_issue(uint64_t cycle) {
  bool any_active = false, saw_barrier = false, saw_empty = false;
  bool saw_scoreboard = false, saw_lsu = false, saw_fu = false;
  // First warp (in round-robin order) blocked for each reason; a bubble
  // cycle is charged to exactly one of these PCs — the same single bucket
  // the aggregate counters use — so per-PC sums match PerfCounters exactly.
  uint32_t barrier_pc = 0, empty_pc = 0, scoreboard_pc = 0, lsu_pc = 0, fu_pc = 0;
  const uint32_t warps = config_.warps;
  uint32_t w = issue_rr_;
  for (uint32_t i = 0; i < warps; ++i, w = next_warp(w)) {
    Warp& warp = warps_[w];
    if (!warp.active) continue;
    any_active = true;
    if (warp.at_barrier) {
      if (!saw_barrier) {
        // Resume point: the buffered instruction after the BAR, or the
        // warp's next fetch PC when the buffer drained.
        barrier_pc = warp.ibuffer.empty() ? warp.pc : warp.ibuffer.front().pc;
      }
      saw_barrier = true;
      continue;
    }
    if (warp.ibuffer.empty()) {
      if (!saw_empty) empty_pc = warp.pc;  // next fetch PC (fetch-bound)
      saw_empty = true;
      continue;
    }
    int reason = kStallNone;
    const FetchSlot& head = warp.ibuffer.front();
    if (!can_issue(warp, head.decoded, cycle, &reason)) {
      if (reason == kStallScoreboard && !saw_scoreboard) scoreboard_pc = head.pc;
      if (reason == kStallFu && !saw_fu) fu_pc = head.pc;
      saw_scoreboard |= reason == kStallScoreboard;
      saw_fu |= reason == kStallFu;
      if (reason == kStallLsu) {
        if (!saw_lsu) lsu_pc = head.pc;
        saw_lsu = true;
        // The LSU input port is a shared structural resource: a ready LOAD
        // that cannot enter the queue blocks the issue stage (head-of-line),
        // wasting the slot — the "LSU stall" behaviour behind the paper's
        // Fig. 7 observation that load-heavy kernels (vecadd) degrade at
        // high warp/thread counts. Stores drain through the write buffer
        // and merely wait, letting other warps proceed.
        if (!head.decoded.is_store) break;
      }
      continue;
    }
    const FetchSlot slot = warp.ibuffer.front();
    warp.ibuffer.pop();
    issue_rr_ = next_warp(w);
    ++perf_.instrs;
    ++instret_;
    progressed_ = true;
    last_outcome_ = IssueOutcome::kIssued;
    if (profile_.enabled) ++profile_.by_pc[slot.pc].issued;
    execute(w, slot, cycle);
    return;
  }
  // Attribute the bubble (and, when profiling, the PC behind it — the same
  // priority order, so each bucket's per-PC sum equals the aggregate). The
  // outcome is remembered so fast_forward() can bulk-charge skipped cycles
  // to the same bucket and PC.
  if (!any_active) {
    ++perf_.idle_cycles;
    last_outcome_ = IssueOutcome::kIdle;
    last_stall_pc_ = 0;
  } else if (saw_lsu) {
    ++perf_.stall_lsu;
    if (profile_.enabled) ++profile_.by_pc[lsu_pc].stall_lsu;
    last_outcome_ = IssueOutcome::kLsu;
    last_stall_pc_ = lsu_pc;
  } else if (saw_scoreboard) {
    ++perf_.stall_scoreboard;
    if (profile_.enabled) ++profile_.by_pc[scoreboard_pc].stall_scoreboard;
    last_outcome_ = IssueOutcome::kScoreboard;
    last_stall_pc_ = scoreboard_pc;
  } else if (saw_fu) {
    ++perf_.stall_fu;
    if (profile_.enabled) ++profile_.by_pc[fu_pc].stall_fu;
    last_outcome_ = IssueOutcome::kFu;
    last_stall_pc_ = fu_pc;
  } else if (saw_empty) {
    ++perf_.stall_ibuffer;
    if (profile_.enabled) ++profile_.by_pc[empty_pc].stall_ibuffer;
    last_outcome_ = IssueOutcome::kIbuffer;
    last_stall_pc_ = empty_pc;
  } else if (saw_barrier) {
    ++perf_.stall_barrier;
    if (profile_.enabled) ++profile_.by_pc[barrier_pc].stall_barrier;
    last_outcome_ = IssueOutcome::kBarrier;
    last_stall_pc_ = barrier_pc;
  } else {
    last_outcome_ = IssueOutcome::kNone;
  }
}

void Core::execute(uint32_t w, const FetchSlot& slot, uint64_t cycle) {
  const Instr& in = slot.decoded.instr;
  const uint32_t rd_row = slot.decoded.rd_row;
  const auto& info = arch::op_info(in.op);
  Warp& warp = warps_[w];
  const uint64_t mask = warp.tmask;
  const uint32_t pc = slot.pc;

  if (config_.trace) {
    config_.trace(TraceEvent{core_id_, w, pc, mask, in, cycle});
  }

  // Non-pipelined units block further issue to the same unit.
  if (info.fu == arch::FuClass::kSfu ||
      (info.fu == arch::FuClass::kMulDiv && info.latency > 4)) {
    fu_ready_[static_cast<size_t>(info.fu)] = cycle + info.latency;
  }

  auto schedule_rd = [&](bool is_float) {
    if (!is_float && in.rd == 0) return;
    if (is_float) {
      warp.busy_f |= (1u << in.rd);
    } else {
      warp.busy_x |= (1u << in.rd);
    }
    completions_.push_back(Completion{cycle + info.latency, w, in.rd, is_float});
    completions_min_ready_ = std::min(completions_min_ready_, cycle + info.latency);
  };

  // This warp's register rows (register-major, see vortex/lanes.hpp). The
  // lane count and bases are hoisted into locals: each lane's result is
  // stored through a uint32_t*, which may alias config_.threads, so reading
  // them through `this` would reload both on every lane.
  const uint32_t threads = config_.threads;
  uint32_t* const xbase = xregs_.data() + static_cast<size_t>(w) * kXRows * threads;
  uint32_t* const fbase = fregs_.data() + static_cast<size_t>(w) * 32 * threads;
  auto xw = [xbase, threads](uint32_t lane, uint32_t reg) -> uint32_t& {
    return xbase[reg * threads + lane];
  };
  const uint32_t lane0 = first_lane(mask);

  switch (in.op) {
    // ---------------- ALU / MUL-DIV / FPU ----------------
    // Values from the shared semantics table; only the scoreboard is ours.
#define FGPU_CORE_EXEC(OP, FN, RD, S1, S2, S3)                                          \
    case Op::k##OP:                                                                     \
      exec_lanes<arch::sem::FN, Opd::RD, Opd::S1, Opd::S2, Opd::S3>(xbase, fbase, threads, \
                                                                   mask, in, rd_row, pc); \
      schedule_rd(Opd::RD == Opd::F);                                                    \
      break;
    FGPU_SEM_OPS(FGPU_CORE_EXEC)
#undef FGPU_CORE_EXEC
    // ---------------- control flow ----------------
    case Op::kJal:
      for_lanes(mask, threads, [&](uint32_t l) { xw(l, rd_row) = pc + 4; });
      schedule_rd(false);
      ++perf_.branches;
      redirect(warp, pc + static_cast<uint32_t>(in.imm));
      break;
    case Op::kJalr: {
      const uint32_t target = (xw(lane0, in.rs1) + static_cast<uint32_t>(in.imm)) & ~1u;
      for_lanes(mask, threads, [&](uint32_t l) { xw(l, rd_row) = pc + 4; });
      schedule_rd(false);
      ++perf_.branches;
      redirect(warp, target);
      break;
    }
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      ++perf_.branches;
      if (arch::sem::branch_taken(in.op, xw(lane0, in.rs1), xw(lane0, in.rs2))) {
        redirect(warp, pc + static_cast<uint32_t>(in.imm));
      }
      break;
    // ---------------- CSR / system ----------------
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
      // Machine-information CSRs are read-only; writes are ignored.
      for_lanes(mask, threads, [&](uint32_t l) {
        xw(l, rd_row) = read_csr(static_cast<uint32_t>(in.imm), w, l, cycle);
      });
      schedule_rd(false);
      break;
    case Op::kEcall:
      for_lanes(mask, threads, [&](uint32_t l) {
        if (ecall_handler_) {
          ecall_handler_(EcallRequest{core_id_, w, l, xw(l, 17), xw(l, 10)}, gmem_);
        }
      });
      break;
    case Op::kFence:
      break;  // memory ordering is already program order in this model
    // ---------------- SIMT control ----------------
    case Op::kTmc: {
      const uint64_t full = (config_.threads >= 64) ? ~0ull : ((1ull << config_.threads) - 1);
      const uint64_t value = xw(lane0, in.rs1) & full;
      warp.tmask = value;
      if (value == 0) {
        warp.active = false;
        FGPU_TRACE_INSTANT("warp_exit", "warp", core_id_, cycle, {{"warp", w}});
      }
      break;
    }
    case Op::kWspawn: {
      const uint32_t count = std::min(xw(lane0, in.rs1), config_.warps);
      const uint32_t target = xw(lane0, in.rs2);
      uint32_t spawned_now = 0;
      for (uint32_t i = 1; i < count; ++i) {
        Warp& spawned = warps_[i];
        if (spawned.active) continue;
        spawned.reset();  // keeps the ibuffer/ipdom storage allocations
        spawned.active = true;
        spawned.pc = target;
        spawned.tmask = 1;
        ++perf_.warps_spawned;
        ++spawned_now;
      }
      FGPU_TRACE_INSTANT("wspawn", "warp", core_id_, cycle,
                         {{"by_warp", w}, {"spawned", spawned_now}, {"entry_pc", target}});
      break;
    }
    case Op::kSplit: {
      uint64_t taken = 0;
      for_lanes(mask, threads, [&](uint32_t l) {
        if (xw(l, in.rs1) != 0) taken |= (1ull << l);
      });
      const uint64_t nottaken = mask & ~taken;
      ++perf_.branches;
      if (nottaken == 0) {
        warp.ipdom.push_back({IpdomEntry::kUniform, 0, 0});
      } else if (taken == 0) {
        warp.ipdom.push_back({IpdomEntry::kUniform, 0, 0});
        redirect(warp, pc + static_cast<uint32_t>(in.imm));
      } else {
        ++perf_.divergent_branches;
        warp.ipdom.push_back({IpdomEntry::kRestore, mask, 0});
        warp.ipdom.push_back({IpdomEntry::kElse, nottaken, pc + static_cast<uint32_t>(in.imm)});
        warp.tmask = taken;
      }
      break;
    }
    case Op::kJoin: {
      ++perf_.joins;
      if (warp.ipdom.empty()) {
        FGPU_LOG(kError, "core %u warp %u: JOIN with empty IPDOM stack at %08x", core_id_, w, pc);
        warp.active = false;
        break;
      }
      const IpdomEntry entry = warp.ipdom.back();
      warp.ipdom.pop_back();
      switch (entry.kind) {
        case IpdomEntry::kUniform:
          redirect(warp, pc + static_cast<uint32_t>(in.imm));
          break;
        case IpdomEntry::kElse:
          warp.tmask = entry.mask;
          redirect(warp, entry.pc);
          break;
        case IpdomEntry::kRestore:
          warp.tmask = entry.mask;
          redirect(warp, pc + static_cast<uint32_t>(in.imm));
          break;
      }
      break;
    }
    case Op::kPred: {
      uint64_t alive = 0;
      for_lanes(mask, threads, [&](uint32_t l) {
        if (xw(l, in.rs1) != 0) alive |= (1ull << l);
      });
      ++perf_.branches;
      if (alive == 0) {
        redirect(warp, pc + static_cast<uint32_t>(in.imm));
      } else {
        if (alive != mask) ++perf_.divergent_branches;
        warp.tmask = alive;
      }
      break;
    }
    case Op::kBar:
      barrier_arrive(w, xw(lane0, in.rs1) & 31, xw(lane0, in.rs2), cycle);
      break;
    // ---------------- memory ----------------
    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLbu:
    case Op::kLhu:
    case Op::kFlw:
    case Op::kSb:
    case Op::kSh:
    case Op::kSw:
    case Op::kFsw:
    case Op::kLrW:
    case Op::kScW:
    case Op::kAmoswapW:
    case Op::kAmoaddW:
    case Op::kAmoandW:
    case Op::kAmoorW:
    case Op::kAmoxorW:
    case Op::kAmominW:
    case Op::kAmomaxW:
      execute_memory(w, slot.decoded, pc, cycle);
      break;
    default:
      FGPU_LOG(kError, "core %u: unimplemented op '%s' at %08x", core_id_,
               arch::op_info(in.op).name, pc);
      warp.active = false;
      break;
  }
}

void Core::execute_memory(uint32_t w, const DecodedInstr& d, uint32_t pc, uint64_t cycle) {
  const Instr& in = d.instr;
  const uint32_t rd = d.rd_row;  // the discard row for x0 (vortex/lanes.hpp)
  Warp& warp = warps_[w];
  const uint64_t mask = warp.tmask;
  const bool is_amo = arch::op_info(in.op).fmt == arch::Format::kAmo;
  const bool is_store = in.op == Op::kSb || in.op == Op::kSh || in.op == Op::kSw ||
                        in.op == Op::kFsw;
  const bool is_float = in.op == Op::kFlw;
  const bool has_rd = !is_store && (is_float || in.rd != 0 || is_amo);

  if (is_store) {
    ++perf_.stores;
  } else if (is_amo) {
    ++perf_.atomics;
  } else {
    ++perf_.loads;
  }

  std::vector<uint32_t>& lines = mem_lines_;
  lines.clear();
  bool all_local = true;

  // Hoisted for the same aliasing reason as in execute().
  const uint32_t threads = config_.threads;
  uint32_t* const xbase = xregs_.data() + static_cast<size_t>(w) * kXRows * threads;
  uint32_t* const fbase = fregs_.data() + static_cast<size_t>(w) * 32 * threads;
  auto xw = [xbase, threads](uint32_t lane, uint32_t reg) -> uint32_t& {
    return xbase[reg * threads + lane];
  };
  auto fw = [fbase, threads](uint32_t lane, uint32_t reg) -> uint32_t& {
    return fbase[reg * threads + lane];
  };
  for (uint32_t lane = 0; lane < threads; ++lane) {
    if (!(mask & (1ull << lane))) continue;
    const uint32_t base = xw(lane, in.rs1);
    const uint32_t addr = base + static_cast<uint32_t>(is_amo ? 0 : in.imm);
    const bool local = is_local_addr(addr);
    all_local &= local;
    mem::MainMemory& memory = local ? local_mem_ : gmem_;

    // Functional access now; timing modelled below.
    switch (in.op) {
      case Op::kLb:
      case Op::kLbu: xw(lane, rd) = arch::sem::load_extend(in.op, memory.load8(addr)); break;
      case Op::kLh:
      case Op::kLhu: xw(lane, rd) = arch::sem::load_extend(in.op, memory.load16(addr)); break;
      case Op::kLw: xw(lane, rd) = memory.load32(addr); break;
      case Op::kFlw: fw(lane, rd) = memory.load32(addr); break;
      case Op::kSb: memory.store8(addr, static_cast<uint8_t>(xw(lane, in.rs2))); break;
      case Op::kSh: memory.store16(addr, static_cast<uint16_t>(xw(lane, in.rs2))); break;
      case Op::kSw: memory.store32(addr, xw(lane, in.rs2)); break;
      case Op::kFsw: memory.store32(addr, fw(lane, in.rs2)); break;
      case Op::kLrW: xw(lane, rd) = memory.load32(addr); break;
      case Op::kScW:
        // Single-context simulation: SC always succeeds.
        memory.store32(addr, xw(lane, in.rs2));
        xw(lane, rd) = 0;
        break;
      default: {  // AMOs
        const uint32_t old = memory.load32(addr);
        memory.store32(addr, arch::sem::amo(in.op, old, xw(lane, in.rs2)));
        xw(lane, rd) = old;
        break;
      }
    }

    if (!local) {
      if (is_amo) {
        // Atomics serialize: one request per lane, no coalescing.
        lines.push_back(mem::line_of(addr));
      } else {
        const uint32_t line = mem::line_of(addr);
        if (std::find(lines.begin(), lines.end(), line) == lines.end()) lines.push_back(line);
      }
    }
  }

  if (all_local || lines.empty()) {
    // Shared-memory path: fixed low latency, no cache traffic.
    if (has_rd) {
      if (is_float) {
        warp.busy_f |= (1u << in.rd);
      } else if (in.rd != 0) {
        warp.busy_x |= (1u << in.rd);
      }
      if (is_float || in.rd != 0) {
        completions_.push_back(Completion{cycle + config_.smem_latency, w, in.rd, is_float});
        completions_min_ready_ =
            std::min(completions_min_ready_, cycle + config_.smem_latency);
      }
    }
    return;
  }

  // Allocate the LSU slot (availability checked in can_issue()). The token
  // tags this occupancy so a stale response to a recycled slot is rejected.
  for (auto& entry : lsu_queue_) {
    if (entry.valid) continue;
    entry.valid = true;
    entry.warp = w;
    entry.is_write = is_store;
    entry.has_rd = has_rd && (is_float || in.rd != 0);
    entry.writes_float = is_float;
    entry.rd = in.rd;
    entry.pc = pc;
    entry.token = next_mem_id_++;
    entry.lines_pending.swap(lines);
    entry.outstanding = 0;
    --lsu_free_;
    ++lsu_unsent_;
    if (entry.has_rd) {
      if (is_float) {
        warp.busy_f |= (1u << in.rd);
      } else {
        warp.busy_x |= (1u << in.rd);
      }
    }
    return;
  }
  assert(false && "LSU slot must be available at issue");
}

void Core::do_lsu(uint64_t cycle) {
  if (lsu_unsent_ == 0) return;
  uint32_t sent = 0;
  for (auto& entry : lsu_queue_) {
    if (!entry.valid || entry.lines_pending.empty()) continue;
    // The request id carries the queue slot in its low byte and the entry's
    // allocation token above it, so the L1D response handler resolves the
    // owner in O(1) with a built-in staleness check.
    const uint64_t slot = static_cast<uint64_t>(&entry - lsu_queue_.data());
    const uint64_t id = (entry.token << kIdSlotBits) | slot;
    while (!entry.lines_pending.empty() && sent < config_.lsu_ports && l1d_.can_accept(cycle)) {
      const uint32_t line = entry.lines_pending.back();
      entry.lines_pending.pop_back();
      l1d_.send(mem::MemRequest{.id = id, .addr = line << mem::kLineShift,
                                .is_write = entry.is_write, .pc = entry.pc},
                cycle);
      ++entry.outstanding;
      ++sent;
      progressed_ = true;
    }
    if (entry.lines_pending.empty()) --lsu_unsent_;
    if (sent >= config_.lsu_ports) break;
  }
}

void Core::do_fetch(uint64_t cycle) {
  const uint32_t warps = config_.warps;
  uint32_t w = fetch_rr_;
  for (uint32_t i = 0; i < warps; ++i, w = next_warp(w)) {
    Warp& warp = warps_[w];
    if (!warp.active || warp.fetch_pending) continue;
    if (warp.ibuffer.size() >= config_.ibuffer_depth) continue;
    if (config_.perfect_icache) {
      const DecodedInstr* decoded = decode_at(warp.pc);
      if (decoded == nullptr) {
        FGPU_LOG(kError, "core %u warp %u: invalid instruction at %08x", core_id_, w, warp.pc);
        warp.active = false;
        progressed_ = true;  // the warp set changed: next cycle differs
        return;
      }
      warp.ibuffer.push(FetchSlot{*decoded, warp.pc});
      warp.pc += 4;
      fetch_rr_ = next_warp(w);
      progressed_ = true;
      return;
    }
    if (!l1i_.can_accept(cycle)) return;
    // The fetching warp index rides in the id's low byte; the monotonic
    // sequence above it makes the full id unique across redirects/resets.
    const uint64_t id = (next_mem_id_++ << kIdSlotBits) | w;
    warp.fetch_pending = true;
    warp.fetch_id = id;
    warp.fetch_pc = warp.pc;
    warp.fetch_generation = warp.generation;
    l1i_.send(mem::MemRequest{.id = id, .addr = warp.pc, .is_write = false, .pc = warp.pc},
              cycle);
    warp.pc += 4;
    fetch_rr_ = next_warp(w);
    progressed_ = true;
    return;
  }
}

// Earliest future cycle at which this core has a self-scheduled event,
// taken when the core falls asleep: the cluster combines it with the memory
// components' next_tick() to bound an idle-skip window; mem::kNoEvent means
// "waiting on memory only".
uint64_t Core::next_wake_cycle(uint64_t now) const {
  uint64_t wake = mem::kNoEvent;
  if (completions_min_ready_ != mem::kNoEvent) {
    // A completion whose ready cycle already passed still needs a tick to
    // retire (do_writeback runs at most once per cycle).
    wake = std::max(completions_min_ready_, now + 1);
  }
  for (const uint64_t ready : fu_ready_) {
    if (ready > now) wake = std::min(wake, ready);
  }
  return wake;
}

// Bulk-attributes the `count` slept cycles [from, from+count). The core
// slept because cycle `from - 1` made no progress, and it wakes at the first
// L1 answer or self-scheduled event, so each slept cycle would have
// repeated that cycle's issue outcome exactly — charge the same bucket (and
// profiled PC) `count` times and synthesize the occupancy samples the
// per-cycle path would have taken at its interval grid points.
void Core::fast_forward(uint64_t from, uint64_t count) {
  if (count == 0) return;
  switch (last_outcome_) {
    case IssueOutcome::kIdle:
      perf_.idle_cycles += count;
      break;
    case IssueOutcome::kLsu:
      perf_.stall_lsu += count;
      if (profile_.enabled) profile_.by_pc[last_stall_pc_].stall_lsu += count;
      break;
    case IssueOutcome::kScoreboard:
      perf_.stall_scoreboard += count;
      if (profile_.enabled) profile_.by_pc[last_stall_pc_].stall_scoreboard += count;
      break;
    case IssueOutcome::kFu:
      perf_.stall_fu += count;
      if (profile_.enabled) profile_.by_pc[last_stall_pc_].stall_fu += count;
      break;
    case IssueOutcome::kIbuffer:
      perf_.stall_ibuffer += count;
      if (profile_.enabled) profile_.by_pc[last_stall_pc_].stall_ibuffer += count;
      break;
    case IssueOutcome::kBarrier:
      perf_.stall_barrier += count;
      if (profile_.enabled) profile_.by_pc[last_stall_pc_].stall_barrier += count;
      break;
    case IssueOutcome::kIssued:
    case IssueOutcome::kNone:
      assert(false && "fast_forward after a progressing cycle");
      break;
  }
  if (profile_.enabled) {
    // Same grid as run_logic: one sample at every cycle divisible by the
    // interval. Warp states are frozen across the window, so the samples
    // are identical except for their cycle stamps.
    const uint64_t interval = config_.profile_interval;
    uint64_t next = ((from + interval - 1) / interval) * interval;
    for (; next < from + count; next += interval) sample_occupancy(next);
  }
}

}  // namespace fgpu::vortex
