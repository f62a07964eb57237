// Threaded-code binary translation for the turbo tier (see turbo.hpp for
// the tier contract). Structure:
//
//   TurboCore::lookup(pc)     block cache: start PC -> TranslatedBlock
//   TurboCore::translate(pc)  decode a straight-line run of guest words
//                             into dispatch-coded instructions, ending at
//                             the first control-flow/SIMT instruction
//   TurboCore::run_warp(w)    dispatch loop: execute block bodies through
//                             one switch on the codes, resolve terminators,
//                             and hop to the successor block through the
//                             chain pointers (cache lookup only on a cold
//                             edge or a dynamic target)
//
// Warp scheduling is run-to-block: each warp executes until it hits a
// barrier, deactivates, or errors; the core round-robins over runnable
// warps until none is active. This reorders memory operations relative to
// the cycle-exact interleaving, which is safe for output digests because
// the generated code's cross-warp side effects are commutative (AMOs; no
// LR/SC is emitted) — the property the -O0/-O2 digest differential already
// relies on. Lane values come from arch/semantics.hpp through the lane
// driver in vortex/lanes.hpp, the code the cycle-exact core runs, so
// register/memory results are bit-identical.
#include "vortex/jit/turbo.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "vortex/lanes.hpp"

namespace fgpu::vortex::jit {
namespace {

using arch::Instr;
using arch::Op;
using arch::sem::Opd;

// Straight-line translation cap: a block longer than this is split, ending
// without a terminator and falling through to its successor.
constexpr size_t kMaxBlockInstrs = 256;

// Terminators end a translated block: everything that can move a warp's PC
// or scheduling state. ECALL/FENCE/memory ops stay in the block body.
bool is_terminator(Op op) {
  switch (op) {
    case Op::kJal:
    case Op::kJalr:
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
    case Op::kTmc:
    case Op::kWspawn:
    case Op::kSplit:
    case Op::kJoin:
    case Op::kPred:
    case Op::kBar:
      return true;
    default:
      return false;
  }
}

// Static jump target of a terminator (PC-relative immediates); 0 for the
// dynamic ones (JALR, JOIN's else-side PC comes off the IPDOM stack).
uint32_t static_take_pc(const Instr& in, uint32_t pc) {
  switch (in.op) {
    case Op::kJal:
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
    case Op::kSplit:
    case Op::kJoin:
    case Op::kPred:
      return pc + static_cast<uint32_t>(in.imm);
    default:
      return 0;
  }
}

}  // namespace

class TurboCore {
 public:
  struct TranslatedBlock;

  // One translated guest instruction: the decoded form plus its dispatch
  // code (the arch::Op, or a fused superinstruction's code).
  struct TI {
    Instr instr;
    uint32_t pc = 0;
    uint8_t code = 0;
  };

  struct TranslatedBlock {
    uint32_t start_pc = 0;
    std::vector<TI> body;  // straight-line, non-control-flow
    // Guest instructions the body represents. Exceeds body.size() when the
    // constant-fusion peephole merged adjacent guest instructions into one
    // TI — retirement counts (stats, instret CSR, budget) stay exact.
    uint32_t body_retired = 0;
    Instr term;            // valid when has_term
    uint32_t term_pc = 0;
    bool has_term = false;  // false: capped block, plain fallthrough
    uint32_t fall_pc = 0;   // next PC when the terminator is not taken
    uint32_t take_pc = 0;   // static jump target (0 = dynamic or none)
    // Chained dispatch: resolved successors, so hot edges skip the cache.
    TranslatedBlock* next_fall = nullptr;
    TranslatedBlock* next_take = nullptr;
  };

  TurboCore(const Config& config, uint32_t core_id, mem::MainMemory& gmem,
            EcallHandler& ecall_handler, TurboStats& stats)
      : config_(config),
        core_id_(core_id),
        gmem_(gmem),
        ecall_handler_(ecall_handler),
        stats_(stats),
        warps_(config.warps),
        xregs_(config.warps * config.threads * kXRows, 0),
        fregs_(config.warps * config.threads * 32, 0),
        barrier_arrived_(32, 0),
        barrier_expected_(32, 0) {}

  void invalidate() {
    bool any = false;
    for (const auto& [kernel, cache] : caches_) any |= !cache.empty();
    caches_.clear();
    blocks_ = &caches_[active_kernel_];
    if (any) ++stats_.invalidations;
  }

  // Silent variant of invalidate() for the device-reuse boundary
  // (TurboDevice::reset between benchmarks): the drop is lifecycle
  // bookkeeping, not a kernel reload, so it must not perturb the
  // invalidations counter — per-benchmark jit-stat deltas stay identical
  // between a pooled device and a fresh one. Also deselects the kernel so
  // the next build starts from a construction-state cache map.
  void clear_blocks() {
    caches_.clear();
    active_kernel_.clear();
    blocks_ = &caches_[active_kernel_];
  }

  // Switches the active block cache to `kernel`'s. Each kernel of a build
  // keeps its own cache, so alternating launches (gaussian's Fan1/Fan2)
  // re-enter warm caches instead of re-translating; only build()'s
  // invalidate() drops translations.
  void select_kernel(const std::string& kernel) {
    if (kernel == active_kernel_) return;
    active_kernel_ = kernel;
    blocks_ = &caches_[kernel];
  }

  void reset(uint32_t entry_pc) {
    for (auto& warp : warps_) warp = TWarp{};
    std::fill(xregs_.begin(), xregs_.end(), 0u);
    std::fill(fregs_.begin(), fregs_.end(), 0u);
    std::fill(barrier_arrived_.begin(), barrier_arrived_.end(), 0u);
    std::fill(barrier_expected_.begin(), barrier_expected_.end(), 0u);
    local_mem_.clear();
    instret_ = 0;
    error_ = Status::ok();
    warps_[0].active = true;
    warps_[0].pc = entry_pc;
    warps_[0].tmask = 1;
  }

  // Runs every warp to completion; `run_instrs` is the launch-wide retired
  // counter shared across cores, checked against `budget`.
  Status run(uint64_t* run_instrs, uint64_t budget) {
    run_instrs_ = run_instrs;
    budget_ = budget;
    for (;;) {
      bool progressed = false;
      for (uint32_t w = 0; w < config_.warps; ++w) {
        if (!warps_[w].active || warps_[w].at_barrier) continue;
        progressed = true;
        if (!run_warp(w)) return error_;
      }
      bool any_active = false;
      for (const auto& warp : warps_) any_active |= warp.active;
      if (!any_active) return Status::ok();
      if (!progressed) {
        return Status(ErrorKind::kRuntimeError,
                      "turbo: barrier deadlock on core " + std::to_string(core_id_) +
                          " (every active warp is blocked)");
      }
    }
  }

  // --- register file --------------------------------------------------------
  // Register-major, [warp][reg][lane], as in core.cpp (vortex/lanes.hpp).
  uint32_t& xr(uint32_t warp, uint32_t lane, uint32_t index) {
    return xregs_[(warp * kXRows + index) * config_.threads + lane];
  }
  // Warp-base pointers for the hot paths: register row r starts at
  // base[r * threads]. Hoisting the base (and the lane count) out of the
  // lane loop matters because register stores are uint32_t writes, which
  // TBAA says may alias config_ fields — without the locals the compiler
  // must re-derive addresses from memory every lane.
  uint32_t* xwarp(uint32_t w) { return xregs_.data() + w * kXRows * config_.threads; }
  uint32_t* fwarp(uint32_t w) { return fregs_.data() + w * 32 * config_.threads; }
  uint32_t nthreads() const { return config_.threads; }

  template <typename Fn>
  void lanes(uint32_t w, Fn&& fn) {
    for_lanes(warps_[w].tmask, config_.threads, fn);
  }

  // True when every lane of an 8-thread warp is active — the precondition
  // of both the for_lanes() constant-8 loop and the coalesced memory fast
  // path of the word loads and stores.
  bool full8(uint32_t w) const { return warps_[w].tmask == 0xFFull && config_.threads == 8; }

  uint32_t read_csr(uint32_t csr, uint32_t warp_id, uint32_t lane) const {
    switch (csr) {
      case arch::kCsrThreadId: return lane;
      case arch::kCsrWarpId: return warp_id;
      case arch::kCsrCoreId: return core_id_;
      case arch::kCsrTmask: return static_cast<uint32_t>(warps_[warp_id].tmask);
      case arch::kCsrNumThreads: return config_.threads;
      case arch::kCsrNumWarps: return config_.warps;
      case arch::kCsrNumCores: return config_.cores;
      // Functional tier: no cycle model. Instret counts this core's retired
      // instructions, as in the cycle simulator.
      case arch::kCsrCycle: return 0;
      case arch::kCsrInstret: return static_cast<uint32_t>(instret_);
      default: return 0;
    }
  }

  bool is_local_addr(uint32_t addr) const {
    return addr >= arch::kLocalBase && addr < arch::kLocalBase + arch::kLocalSize;
  }
  mem::MainMemory& memory_for(uint32_t addr) {
    return is_local_addr(addr) ? local_mem_ : gmem_;
  }

  // Backing storage of the page holding `addr`: a two-index walk of
  // MainMemory's page table, as cheap as a TLB hit would be.
  uint8_t* page(uint32_t addr) { return memory_for(addr).page_data(addr); }
  static constexpr uint32_t kPageMask = mem::MainMemory::kPageSize - 1;

  uint32_t load32(uint32_t addr) {
    if ((addr & kPageMask) <= kPageMask - 3) [[likely]] {
      uint32_t v;
      std::memcpy(&v, page(addr) + (addr & kPageMask), 4);
      return v;
    }
    return memory_for(addr).load32(addr);  // page-straddling access
  }
  uint16_t load16(uint32_t addr) {
    if ((addr & kPageMask) <= kPageMask - 1) [[likely]] {
      uint16_t v;
      std::memcpy(&v, page(addr) + (addr & kPageMask), 2);
      return v;
    }
    return memory_for(addr).load16(addr);
  }
  uint8_t load8(uint32_t addr) { return page(addr)[addr & kPageMask]; }
  void store32(uint32_t addr, uint32_t v) {
    if ((addr & kPageMask) <= kPageMask - 3) [[likely]] {
      std::memcpy(page(addr) + (addr & kPageMask), &v, 4);
      return;
    }
    memory_for(addr).store32(addr, v);
  }
  void store16(uint32_t addr, uint16_t v) {
    if ((addr & kPageMask) <= kPageMask - 1) [[likely]] {
      std::memcpy(page(addr) + (addr & kPageMask), &v, 2);
      return;
    }
    memory_for(addr).store16(addr, v);
  }
  void store8(uint32_t addr, uint8_t v) { page(addr)[addr & kPageMask] = v; }

  void do_ecall(uint32_t w) {
    ++stats_.ecalls;
    lanes(w, [&](uint32_t l) {
      if (ecall_handler_) {
        ecall_handler_(EcallRequest{core_id_, w, l, xr(w, l, 17), xr(w, l, 10)}, gmem_);
      }
    });
  }

  uint64_t tmask(uint32_t w) const { return warps_[w].tmask; }

 private:
  struct IpdomEntry {
    enum Kind : uint8_t { kUniform, kElse, kRestore };
    Kind kind;
    uint64_t mask;
    uint32_t pc;
  };

  struct TWarp {
    bool active = false;
    uint32_t pc = 0;
    uint64_t tmask = 0;
    std::vector<IpdomEntry> ipdom;
    bool at_barrier = false;
    uint32_t barrier_id = 0;
  };

  TranslatedBlock* lookup(uint32_t pc) {
    ++stats_.block_lookups;
    auto it = blocks_->find(pc);
    if (it != blocks_->end()) {
      ++stats_.block_hits;
      return it->second.get();
    }
    return translate(pc);
  }

  TranslatedBlock* translate(uint32_t start_pc);

  TranslatedBlock* next_fall(TranslatedBlock* blk) {
    if (blk->next_fall != nullptr) {
      ++stats_.chained_dispatches;
      return blk->next_fall;
    }
    return blk->next_fall = lookup(blk->fall_pc);
  }
  TranslatedBlock* next_take(TranslatedBlock* blk) {
    if (blk->next_take != nullptr) {
      ++stats_.chained_dispatches;
      return blk->next_take;
    }
    return blk->next_take = lookup(blk->take_pc);
  }

  void barrier_arrive(uint32_t warp_id, uint32_t id, uint32_t count) {
    TWarp& warp = warps_[warp_id];
    warp.at_barrier = true;
    warp.barrier_id = id;
    barrier_expected_[id] = count;
    ++barrier_arrived_[id];
    ++stats_.barriers;
    if (barrier_arrived_[id] >= barrier_expected_[id]) {
      for (auto& other : warps_) {
        if (other.at_barrier && other.barrier_id == id) other.at_barrier = false;
      }
      barrier_arrived_[id] = 0;
    }
  }

  // Dispatch loop: returns false when error_ is set (budget, deadlock
  // cannot happen here). Returning true means the warp blocked or retired.
  bool run_warp(uint32_t w);

  const Config& config_;
  uint32_t core_id_;
  mem::MainMemory& gmem_;
  mem::MainMemory local_mem_;  // per-core OpenCL __local scratchpad
  EcallHandler& ecall_handler_;
  TurboStats& stats_;

  std::vector<TWarp> warps_;
  std::vector<uint32_t> xregs_;  // [warp][kXRows][lane]
  std::vector<uint32_t> fregs_;
  std::vector<uint32_t> barrier_arrived_;
  std::vector<uint32_t> barrier_expected_;
  uint64_t instret_ = 0;

  // Block caches, one per kernel name: start PC -> translated block.
  // Binaries share a load base, so PCs from different kernels must never
  // share a cache; keeping them separate (instead of flushing on kernel
  // switch) is what makes alternating-kernel launch sequences warm.
  // unique_ptr storage keeps chain pointers stable as a map grows; chains
  // never cross caches because lookup/translate only touch the active one.
  // Invalidated wholesale at the kernel-reload boundary
  // (TurboEngine::invalidate, i.e. device build()).
  using BlockCache = std::unordered_map<uint32_t, std::unique_ptr<TranslatedBlock>>;
  std::unordered_map<std::string, BlockCache> caches_;
  std::string active_kernel_;
  BlockCache* blocks_ = &caches_[active_kernel_];

  uint64_t* run_instrs_ = nullptr;
  uint64_t budget_ = 0;
  Status error_;
};

namespace {

using TI = TurboCore::TI;

// Dispatch codes of the fused superinstructions, which no single guest op
// maps to; every other TI's code is its arch::Op.
constexpr uint8_t kCodeConstX = arch::kNumOps;       // lui[+addi]: imm to x[rd]
constexpr uint8_t kCodeConstXF = arch::kNumOps + 1;  // ...+fmv.w.x: imm to x[rs1], f[rd]
static_assert(arch::kNumOps + 2 <= 256, "TI::code is one byte");

constexpr uint8_t code_of(Op op) { return static_cast<uint8_t>(op); }

// Coalesced warp word access: GPU kernels overwhelmingly issue unit-stride
// (or at least same-page) warp loads and stores, so when all 8 lanes of a
// full warp hit one 4 KiB page — and none straddles its end — one page-table
// walk serves the whole warp instead of eight. The address and
// same-page checks are branch-free lane loops the compiler vectorizes; the
// per-lane load32/store32 path remains the fallback (partial masks,
// cross-page scatters, straddles) and the semantic reference. Lane order is
// ascending in both store paths, so same-address conflicts resolve
// identically.
FGPU_LANES_INLINE void warp_load32(TurboCore& c, uint32_t w, const uint32_t* rs1, uint32_t imm,
                                   uint32_t* rd) {
  if (c.full8(w)) {
    uint32_t addr[8];
    uint32_t tag_diff = 0, straddle = 0;
    for (uint32_t l = 0; l < 8; ++l) {
      addr[l] = rs1[l] + imm;
      tag_diff |= (addr[l] ^ addr[0]) >> mem::MainMemory::kPageBits;
      straddle |= static_cast<uint32_t>((addr[l] & TurboCore::kPageMask) >
                                        TurboCore::kPageMask - 3);
    }
    if ((tag_diff | straddle) == 0) {
      const uint8_t* const base = c.page(addr[0]);
      for (uint32_t l = 0; l < 8; ++l) {
        std::memcpy(&rd[l], base + (addr[l] & TurboCore::kPageMask), 4);
      }
      return;
    }
    for (uint32_t l = 0; l < 8; ++l) rd[l] = c.load32(addr[l]);
    return;
  }
  c.lanes(w, [&](uint32_t l) { rd[l] = c.load32(rs1[l] + imm); });
}

FGPU_LANES_INLINE void warp_store32(TurboCore& c, uint32_t w, const uint32_t* rs1, uint32_t imm,
                                    const uint32_t* rs2) {
  if (c.full8(w)) {
    uint32_t addr[8];
    uint32_t tag_diff = 0, straddle = 0;
    for (uint32_t l = 0; l < 8; ++l) {
      addr[l] = rs1[l] + imm;
      tag_diff |= (addr[l] ^ addr[0]) >> mem::MainMemory::kPageBits;
      straddle |= static_cast<uint32_t>((addr[l] & TurboCore::kPageMask) >
                                        TurboCore::kPageMask - 3);
    }
    if ((tag_diff | straddle) == 0) {
      uint8_t* const base = c.page(addr[0]);
      for (uint32_t l = 0; l < 8; ++l) {
        std::memcpy(base + (addr[l] & TurboCore::kPageMask), &rs2[l], 4);
      }
      return;
    }
    for (uint32_t l = 0; l < 8; ++l) c.store32(addr[l], rs2[l]);
    return;
  }
  c.lanes(w, [&](uint32_t l) { c.store32(rs1[l] + imm, rs2[l]); });
}

// Body instructions outside the op list and the word-access fast path:
// CSR reads, ECALL, FENCE, sub-word and atomic memory ops. Kept out of
// line so the dispatch loop stays compact.
__attribute__((noinline)) void exec_other(TurboCore& c, uint32_t w, const TI& i) {
  const Instr in = i.instr;
  const uint32_t T = c.nthreads();
  uint32_t* const xp_rd = c.xwarp(w) + in.rd * T;
  const uint32_t* const xp_rs1 = c.xwarp(w) + in.rs1 * T;
  const uint32_t* const xp_rs2 = c.xwarp(w) + in.rs2 * T;
  const uint32_t imm = static_cast<uint32_t>(in.imm);
  switch (in.op) {
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
      c.lanes(w, [&](uint32_t l) { xp_rd[l] = c.read_csr(imm, w, l); });
      break;
    case Op::kEcall: c.do_ecall(w); break;
    case Op::kFence: break;
    case Op::kLb:
    case Op::kLbu:
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = arch::sem::load_extend(in.op, c.load8(xp_rs1[l] + imm));
      });
      break;
    case Op::kLh:
    case Op::kLhu:
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = arch::sem::load_extend(in.op, c.load16(xp_rs1[l] + imm));
      });
      break;
    case Op::kSb:
      c.lanes(w, [&](uint32_t l) { c.store8(xp_rs1[l] + imm, static_cast<uint8_t>(xp_rs2[l])); });
      break;
    case Op::kSh:
      c.lanes(w, [&](uint32_t l) {
        c.store16(xp_rs1[l] + imm, static_cast<uint16_t>(xp_rs2[l]));
      });
      break;
    case Op::kLrW: c.lanes(w, [&](uint32_t l) { xp_rd[l] = c.load32(xp_rs1[l]); }); break;
    case Op::kScW:
      // Single-context execution: SC always succeeds (as in core.cpp).
      c.lanes(w, [&](uint32_t l) {
        c.store32(xp_rs1[l], xp_rs2[l]);
        xp_rd[l] = 0;
      });
      break;
    default:  // AMOs
      c.lanes(w, [&](uint32_t l) {
        const uint32_t old = c.load32(xp_rs1[l]);
        c.store32(xp_rs1[l], arch::sem::amo(in.op, old, xp_rs2[l]));
        xp_rd[l] = old;
      });
      break;
  }
}

}  // namespace

TurboCore::TranslatedBlock* TurboCore::translate(uint32_t start_pc) {
  auto blk = std::make_unique<TranslatedBlock>();
  blk->start_pc = start_pc;
  uint32_t pc = start_pc;
  for (;;) {
    if (blk->body.size() >= kMaxBlockInstrs) {
      blk->has_term = false;
      blk->fall_pc = pc;
      break;
    }
    const uint32_t word = gmem_.load32(pc);
    const auto decoded = arch::decode(word);
    if (!decoded) {
      // Terminate on the undecodable word; dispatch reports the error.
      blk->term = Instr{};
      blk->term_pc = pc;
      blk->has_term = true;
      break;
    }
    if (is_terminator(decoded->op)) {
      blk->term = *decoded;
      blk->term_pc = pc;
      blk->has_term = true;
      blk->fall_pc = pc + 4;
      blk->take_pc = static_take_pc(*decoded, pc);
      break;
    }
    // Constant-fusion peephole: collapse `lui r, hi` [+ `addi r, r, lo`]
    // [+ `fmv.w.x f, r`] chains into one superinstruction TI. Legal within
    // a block because the thread mask only changes at terminators, so every
    // instruction of the chain executes under the same lanes; a jump into
    // the middle of a chain translates its own block starting there, so
    // fusion never swallows a branch target. body_retired keeps guest
    // retirement exact.
    bool fused = false;
    if (!blk->body.empty()) {
      TI& prev = blk->body.back();
      const bool prev_const_x = prev.code == code_of(Op::kLui) || prev.code == kCodeConstX;
      if (prev_const_x) {
        const uint32_t prev_val = prev.code == code_of(Op::kLui)
                                      ? static_cast<uint32_t>(prev.instr.imm) << 12
                                      : static_cast<uint32_t>(prev.instr.imm);
        if (decoded->op == Op::kAddi && decoded->rd == prev.instr.rd &&
            decoded->rs1 == prev.instr.rd) {
          prev.instr.op = Op::kAddi;
          prev.instr.imm = static_cast<int32_t>(prev_val + static_cast<uint32_t>(decoded->imm));
          prev.code = kCodeConstX;
          fused = true;
        } else if (decoded->op == Op::kFmvWX && decoded->rs1 == prev.instr.rd) {
          prev.instr.op = Op::kFmvWX;
          prev.instr.rs1 = prev.instr.rd;  // x destination (the chain's register)
          prev.instr.rd = decoded->rd;     // f destination
          prev.instr.imm = static_cast<int32_t>(prev_val);
          prev.code = kCodeConstXF;
          fused = true;
        }
      }
    }
    if (!fused) {
      // An x0 destination becomes the discard row here, once, so no lane
      // loop tests rd (vortex/lanes.hpp). The fusions above then never
      // match it: a chain through x0 reads x0 as zero, unfused.
      Instr in = *decoded;
      in.rd = dest_row(in);
      blk->body.push_back(TI{in, pc, code_of(in.op)});
    }
    ++blk->body_retired;
    pc += 4;
  }
  ++stats_.blocks_translated;
  TranslatedBlock* raw = blk.get();
  blocks_->emplace(start_pc, std::move(blk));
  return raw;
}

bool TurboCore::run_warp(uint32_t w) {
  TWarp& warp = warps_[w];
  TranslatedBlock* blk = lookup(warp.pc);
  // Retired counts accumulate in a local and flush once per run_warp exit:
  // stats_ and the launch-wide counter live behind pointers whose targets
  // register stores may alias (TBAA), so per-block RMWs through them would
  // reload every block. instret_ stays per-block exact for CSR reads.
  uint64_t local_retired = 0;
  uint32_t* const xw = xwarp(w);
  uint32_t* const fw = fwarp(w);
  const uint32_t T = config_.threads;
  struct Flush {
    TurboCore& c;
    const uint64_t& n;
    ~Flush() {
      c.stats_.instrs += n;
      *c.run_instrs_ += n;
    }
  } flush{*this, local_retired};
  for (;;) {
    if (*run_instrs_ + local_retired > budget_) {
      error_ = Status(ErrorKind::kRuntimeError,
                      "turbo: kernel exceeded instruction budget=" + std::to_string(budget_) +
                          " (possible deadlock or runaway loop)");
      return false;
    }
    // The thread mask only changes at terminators, so it holds for the body.
    const uint64_t mask = warp.tmask;
    for (const TI& ti : blk->body) {
      const Instr& in = ti.instr;
      const uint32_t imm = static_cast<uint32_t>(in.imm);
      switch (ti.code) {
#define FGPU_TURBO_EXEC(OP, FN, RD, S1, S2, S3)                                          \
        case code_of(Op::k##OP):                                                         \
          exec_lanes<arch::sem::FN, Opd::RD, Opd::S1, Opd::S2, Opd::S3>(xw, fw, T, mask, in, \
                                                                       in.rd, ti.pc);    \
          break;
        FGPU_SEM_OPS(FGPU_TURBO_EXEC)
#undef FGPU_TURBO_EXEC
        case code_of(Op::kLw):
          warp_load32(*this, w, xw + in.rs1 * T, imm, xw + in.rd * T);
          break;
        case code_of(Op::kFlw):
          warp_load32(*this, w, xw + in.rs1 * T, imm, fw + in.rd * T);
          break;
        case code_of(Op::kSw):
          warp_store32(*this, w, xw + in.rs1 * T, imm, xw + in.rs2 * T);
          break;
        case code_of(Op::kFsw):
          warp_store32(*this, w, xw + in.rs1 * T, imm, fw + in.rs2 * T);
          break;
        case kCodeConstX:
          for_lanes(mask, T, [&](uint32_t l) { xw[in.rd * T + l] = imm; });
          break;
        case kCodeConstXF:
          for_lanes(mask, T, [&](uint32_t l) {
            xw[in.rs1 * T + l] = imm;
            fw[in.rd * T + l] = imm;
          });
          break;
        default: exec_other(*this, w, ti); break;
      }
    }
    const uint64_t retired = blk->body_retired + (blk->has_term ? 1 : 0);
    instret_ += retired;
    local_retired += retired;
    if (!blk->has_term) {
      blk = next_fall(blk);
      continue;
    }

    const Instr& in = blk->term;
    const uint32_t pc = blk->term_pc;
    switch (in.op) {
      case Op::kJal:
        if (in.rd != 0) {
          lanes(w, [&](uint32_t l) { xr(w, l, in.rd) = pc + 4; });
        }
        warp.pc = blk->take_pc;
        blk = next_take(blk);
        break;
      case Op::kJalr: {
        const uint32_t target =
            (xr(w, first_lane(mask), in.rs1) + static_cast<uint32_t>(in.imm)) & ~1u;
        if (in.rd != 0) {
          lanes(w, [&](uint32_t l) { xr(w, l, in.rd) = pc + 4; });
        }
        warp.pc = target;
        blk = lookup(target);  // dynamic target: no chain slot
        break;
      }
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBltu:
      case Op::kBgeu: {
        const uint32_t lane = first_lane(mask);
        const bool taken = arch::sem::branch_taken(in.op, xr(w, lane, in.rs1), xr(w, lane, in.rs2));
        if (taken) {
          warp.pc = blk->take_pc;
          blk = next_take(blk);
        } else {
          warp.pc = blk->fall_pc;
          blk = next_fall(blk);
        }
        break;
      }
      case Op::kTmc: {
        const uint64_t full =
            (config_.threads >= 64) ? ~0ull : ((1ull << config_.threads) - 1);
        const uint64_t value = xr(w, first_lane(mask), in.rs1) & full;
        warp.tmask = value;
        if (value == 0) {
          warp.active = false;
          return true;
        }
        warp.pc = blk->fall_pc;
        blk = next_fall(blk);
        break;
      }
      case Op::kWspawn: {
        const uint32_t lane = first_lane(mask);
        const uint32_t count = std::min(xr(w, lane, in.rs1), config_.warps);
        const uint32_t target = xr(w, lane, in.rs2);
        for (uint32_t s = 1; s < count; ++s) {
          TWarp& spawned = warps_[s];
          if (spawned.active) continue;
          spawned = TWarp{};
          spawned.active = true;
          spawned.pc = target;
          spawned.tmask = 1;
        }
        warp.pc = blk->fall_pc;
        blk = next_fall(blk);
        break;
      }
      case Op::kSplit: {
        uint64_t taken = 0;
        lanes(w, [&](uint32_t l) {
          if (xr(w, l, in.rs1) != 0) taken |= (1ull << l);
        });
        const uint64_t nottaken = mask & ~taken;
        if (nottaken == 0) {
          warp.ipdom.push_back({IpdomEntry::kUniform, 0, 0});
          warp.pc = blk->fall_pc;
          blk = next_fall(blk);
        } else if (taken == 0) {
          warp.ipdom.push_back({IpdomEntry::kUniform, 0, 0});
          warp.pc = blk->take_pc;
          blk = next_take(blk);
        } else {
          warp.ipdom.push_back({IpdomEntry::kRestore, mask, 0});
          warp.ipdom.push_back({IpdomEntry::kElse, nottaken, blk->take_pc});
          warp.tmask = taken;
          warp.pc = blk->fall_pc;
          blk = next_fall(blk);
        }
        break;
      }
      case Op::kJoin: {
        if (warp.ipdom.empty()) {
          FGPU_LOG(kError, "turbo core %u warp %u: JOIN with empty IPDOM stack at %08x",
                   core_id_, w, pc);
          warp.active = false;
          return true;
        }
        const IpdomEntry entry = warp.ipdom.back();
        warp.ipdom.pop_back();
        switch (entry.kind) {
          case IpdomEntry::kUniform:
            warp.pc = blk->take_pc;
            blk = next_take(blk);
            break;
          case IpdomEntry::kElse:
            warp.tmask = entry.mask;
            warp.pc = entry.pc;
            blk = lookup(entry.pc);  // stack-carried target: no chain slot
            break;
          case IpdomEntry::kRestore:
            warp.tmask = entry.mask;
            warp.pc = blk->take_pc;
            blk = next_take(blk);
            break;
        }
        break;
      }
      case Op::kPred: {
        uint64_t alive = 0;
        lanes(w, [&](uint32_t l) {
          if (xr(w, l, in.rs1) != 0) alive |= (1ull << l);
        });
        if (alive == 0) {
          warp.pc = blk->take_pc;
          blk = next_take(blk);
        } else {
          warp.tmask = alive;
          warp.pc = blk->fall_pc;
          blk = next_fall(blk);
        }
        break;
      }
      case Op::kBar: {
        const uint32_t lane = first_lane(mask);
        barrier_arrive(w, xr(w, lane, in.rs1) & 31, xr(w, lane, in.rs2));
        warp.pc = blk->fall_pc;
        if (warp.at_barrier) return true;  // blocked; resumes after the BAR
        blk = next_fall(blk);
        break;
      }
      default:
        FGPU_LOG(kError, "turbo core %u warp %u: invalid instruction at %08x", core_id_, w, pc);
        warp.active = false;
        return true;
    }
  }
}

TurboEngine::TurboEngine(const Config& config, mem::MainMemory& gmem, EcallHandler ecall_handler)
    : config_(config), gmem_(gmem), ecall_handler_(std::move(ecall_handler)) {
  cores_.reserve(config_.cores);
  for (uint32_t c = 0; c < config_.cores; ++c) {
    cores_.push_back(std::make_unique<TurboCore>(config_, c, gmem_, ecall_handler_, stats_));
  }
}

TurboEngine::~TurboEngine() = default;

void TurboEngine::invalidate() {
  for (auto& core : cores_) core->invalidate();
}

void TurboEngine::reset_blocks() {
  for (auto& core : cores_) core->clear_blocks();
}

void TurboEngine::select_kernel(const std::string& kernel) {
  for (auto& core : cores_) core->select_kernel(kernel);
}

Status TurboEngine::run(uint32_t entry_pc) {
  last_run_instrs_ = 0;
  uint64_t run_instrs = 0;
  // Cores execute sequentially over shared global memory; Config::max_cycles
  // doubles as the launch-wide guest-instruction ceiling (an instruction
  // takes at least a cycle, so any kernel the cycle tier completes fits).
  for (auto& core : cores_) {
    core->reset(entry_pc);
    const Status status = core->run(&run_instrs, config_.max_cycles);
    if (!status.is_ok()) {
      last_run_instrs_ = run_instrs;
      return status;
    }
  }
  last_run_instrs_ = run_instrs;
  return Status::ok();
}

}  // namespace fgpu::vortex::jit
