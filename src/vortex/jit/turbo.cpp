// Threaded-code binary translation for the turbo tier (see turbo.hpp for
// the tier contract). Structure:
//
//   TurboCore::lookup(pc)     block cache: start PC -> TranslatedBlock
//   TurboCore::translate(pc)  decode a straight-line run of guest words
//                             into per-instruction handler pointers, ending
//                             at the first control-flow/SIMT instruction
//   TurboCore::run_warp(w)    dispatch loop: execute block bodies through
//                             the handler pointers, resolve terminators,
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
// relies on. All per-instruction semantics below copy vortex/core.cpp's
// expression forms verbatim so register/memory results are bit-identical.
#include "vortex/jit/turbo.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/bits.hpp"
#include "common/log.hpp"

namespace fgpu::vortex::jit {
namespace {

using arch::Instr;
using arch::Op;

// Straight-line translation cap: a block longer than this is split, ending
// without a terminator and falling through to its successor.
constexpr size_t kMaxBlockInstrs = 256;

int32_t as_i32(uint32_t v) { return static_cast<int32_t>(v); }

// Copied from vortex/core.cpp so conversion saturation is bit-identical.
uint32_t fcvt_w_s(float f, bool is_unsigned) {
  if (std::isnan(f)) {
    return is_unsigned ? 0xFFFFFFFFu : 0x7FFFFFFFu;
  }
  if (is_unsigned) {
    if (f <= -1.0f) return 0;
    if (f >= 4294967296.0f) return 0xFFFFFFFFu;
    return static_cast<uint32_t>(f);
  }
  if (f <= -2147483648.0f) return 0x80000000u;
  if (f >= 2147483648.0f) return 0x7FFFFFFFu;
  return static_cast<uint32_t>(static_cast<int32_t>(f));
}

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

  // One translated guest instruction: the decoded form plus its
  // precomputed handler — the "threaded code" unit of dispatch.
  struct TI {
    void (*fn)(TurboCore&, uint32_t, const TI&) = nullptr;
    Instr instr;
    uint32_t pc = 0;
    uint8_t fast = 0;  // FastOp dispatch code; 0 = dispatch through fn
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
        xregs_(config.warps * config.threads * 32, 0),
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
  // Register-major ("structure of arrays") layout, unlike core.cpp's
  // lane-major one: register r of lane l lives at [(warp*32 + r)*threads + l],
  // so one warp-instruction's operand rows are contiguous runs of `threads`
  // words — the layout the lane loops need to autovectorize. Purely an
  // internal representation choice; values are bit-identical.
  uint32_t& xr(uint32_t warp, uint32_t lane, uint32_t index) {
    return xregs_[(warp * 32 + index) * config_.threads + lane];
  }
  uint32_t& fr(uint32_t warp, uint32_t lane, uint32_t index) {
    return fregs_[(warp * 32 + index) * config_.threads + lane];
  }
  // Warp-base pointers for the handler hot paths: register row r starts at
  // base[r * threads]. Hoisting the base (and a local Instr copy) out of the
  // lane loop matters because register stores are uint32_t writes, which
  // TBAA says may alias config_ fields and Instr bytes — without the locals
  // the compiler must re-derive addresses from memory every lane.
  uint32_t* xwarp(uint32_t w) { return xregs_.data() + w * 32 * config_.threads; }
  uint32_t* fwarp(uint32_t w) { return fregs_.data() + w * 32 * config_.threads; }
  uint32_t nthreads() const { return config_.threads; }

  template <typename Fn>
  void lanes(uint32_t w, Fn&& fn) {
    const uint64_t mask = warps_[w].tmask;
    // Full-mask fast path with a compile-time bound: the dominant case is
    // every lane of an 8-thread warp active, and the constant-8 loop lets
    // the compiler unroll the handler body with no per-lane mask tests.
    if (mask == 0xFFull && config_.threads == 8) {
      for (uint32_t lane = 0; lane < 8; ++lane) fn(lane);
      return;
    }
    // Partial masks (divergence, scalar prologues with tmask=1) iterate set
    // bits only — the trip count is the active-lane count, not the warp
    // width, which is what makes scalar-heavy kernels cheap.
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      fn(static_cast<uint32_t>(__builtin_ctzll(m)));
    }
  }

  uint32_t first_active_lane(uint64_t mask) const {
    return mask != 0 ? static_cast<uint32_t>(__builtin_ctzll(mask)) : 0;
  }

  // True when every lane of an 8-thread warp is active — the precondition
  // of both the lanes() constant-8 loop and the coalesced memory fast path
  // in the word load/store handlers.
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
  std::vector<uint32_t> xregs_;  // [warp][thread][32], as in core.cpp
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
using Handler = void (*)(TurboCore&, uint32_t, const TI&);

// Hot-path handlers as named functions: the handler table points at them
// like any other op, but translate() also tags their instructions with a
// FastOp code so run_warp can dispatch them through an inline switch.
// always_inline because the whole point is folding the op body into the
// dispatch loop; the out-of-line copies still back the handler table.
#define FGPU_TURBO_HOT inline __attribute__((always_inline))
FGPU_TURBO_HOT void exec_Lui(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = static_cast<uint32_t>(in.imm) << 12;
      });
    }

FGPU_TURBO_HOT void exec_Auipc(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; const uint32_t ipc = i.pc; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = ipc + (static_cast<uint32_t>(in.imm) << 12);
      });
    }

FGPU_TURBO_HOT void exec_Addi(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] + static_cast<uint32_t>(in.imm);
      });
    }

FGPU_TURBO_HOT void exec_Andi(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] & static_cast<uint32_t>(in.imm);
      });
    }

FGPU_TURBO_HOT void exec_Ori(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] | static_cast<uint32_t>(in.imm);
      });
    }

FGPU_TURBO_HOT void exec_Xori(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] ^ static_cast<uint32_t>(in.imm);
      });
    }

FGPU_TURBO_HOT void exec_Slli(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] << in.imm;
      });
    }

FGPU_TURBO_HOT void exec_Srli(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] >> in.imm;
      });
    }

FGPU_TURBO_HOT void exec_Srai(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] =
            static_cast<uint32_t>(as_i32(xp_rs1[l]) >> in.imm);
      });
    }

FGPU_TURBO_HOT void exec_Slti(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = as_i32(xp_rs1[l]) < in.imm ? 1 : 0;
      });
    }

FGPU_TURBO_HOT void exec_Sltiu(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] =
            xp_rs1[l] < static_cast<uint32_t>(in.imm) ? 1 : 0;
      });
    }

FGPU_TURBO_HOT void exec_Add(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] + xp_rs2[l];
      });
    }

FGPU_TURBO_HOT void exec_Sub(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] - xp_rs2[l];
      });
    }

FGPU_TURBO_HOT void exec_And(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] & xp_rs2[l];
      });
    }

FGPU_TURBO_HOT void exec_Or(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] | xp_rs2[l];
      });
    }

FGPU_TURBO_HOT void exec_Xor(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] ^ xp_rs2[l];
      });
    }

FGPU_TURBO_HOT void exec_Sll(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] << (xp_rs2[l] & 31);
      });
    }

FGPU_TURBO_HOT void exec_Srl(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] >> (xp_rs2[l] & 31);
      });
    }

FGPU_TURBO_HOT void exec_Sra(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = static_cast<uint32_t>(as_i32(xp_rs1[l]) >>
                                                       (xp_rs2[l] & 31));
      });
    }

FGPU_TURBO_HOT void exec_Slt(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] =
            as_i32(xp_rs1[l]) < as_i32(xp_rs2[l]) ? 1 : 0;
      });
    }

FGPU_TURBO_HOT void exec_Sltu(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] < xp_rs2[l] ? 1 : 0;
      });
    }

FGPU_TURBO_HOT void exec_Mul(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = xp_rs1[l] * xp_rs2[l];
      });
    }

FGPU_TURBO_HOT void exec_FaddS(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] =
            f2u(u2f(fp_rs1[l]) + u2f(fp_rs2[l]));
      });
    }

FGPU_TURBO_HOT void exec_FsubS(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] =
            f2u(u2f(fp_rs1[l]) - u2f(fp_rs2[l]));
      });
    }

FGPU_TURBO_HOT void exec_FmulS(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] =
            f2u(u2f(fp_rs1[l]) * u2f(fp_rs2[l]));
      });
    }

FGPU_TURBO_HOT void exec_FmaddS(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T; uint32_t* const fp_rs3 = fw + in.rs3 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] = f2u(u2f(fp_rs1[l]) * u2f(fp_rs2[l]) +
                                     u2f(fp_rs3[l]));
      });
    }

FGPU_TURBO_HOT void exec_FcvtSW(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] = f2u(static_cast<float>(as_i32(xp_rs1[l])));
      });
    }

FGPU_TURBO_HOT void exec_FcvtSWu(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] = f2u(static_cast<float>(xp_rs1[l]));
      });
    }

FGPU_TURBO_HOT void exec_FcvtWS(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = fcvt_w_s(u2f(fp_rs1[l]), false);
      });
    }

FGPU_TURBO_HOT void exec_FmvWX(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const xp_rs1 = xw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) { fp_rd[l] = xp_rs1[l]; });
    }

FGPU_TURBO_HOT void exec_FmvXW(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) { xp_rd[l] = fp_rs1[l]; });
    }

FGPU_TURBO_HOT void exec_FsgnjS(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] =
            (fp_rs1[l] & 0x7FFFFFFFu) | (fp_rs2[l] & 0x80000000u);
      });
    }

FGPU_TURBO_HOT void exec_FltS(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] =
            u2f(fp_rs1[l]) < u2f(fp_rs2[l]) ? 1 : 0;
      });
    }

// Coalesced warp word access: GPU kernels overwhelmingly issue unit-stride
// (or at least same-page) warp loads and stores, so when all 8 lanes of a
// full warp hit one 4 KiB page — and none straddles its end — one page-table
// walk serves the whole warp instead of eight. The address and
// same-page checks are branch-free lane loops the compiler vectorizes; the
// per-lane load32/store32 path remains the fallback (partial masks,
// cross-page scatters, straddles) and the semantic reference. Lane order is
// ascending in both store paths, so same-address conflicts resolve
// identically.
FGPU_TURBO_HOT void warp_load32(TurboCore& c, uint32_t w, const uint32_t* rs1, uint32_t imm,
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

FGPU_TURBO_HOT void warp_store32(TurboCore& c, uint32_t w, const uint32_t* rs1, uint32_t imm,
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

FGPU_TURBO_HOT void exec_Lw(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rd = xw + in.rd * T;
      warp_load32(c, w, xp_rs1, static_cast<uint32_t>(in.imm), xp_rd);
    }

FGPU_TURBO_HOT void exec_Sw(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      warp_store32(c, w, xp_rs1, static_cast<uint32_t>(in.imm), xp_rs2);
    }

FGPU_TURBO_HOT void exec_Flw(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const fp_rd = fw + in.rd * T;
      warp_load32(c, w, xp_rs1, static_cast<uint32_t>(in.imm), fp_rd);
    }

FGPU_TURBO_HOT void exec_Fsw(TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      warp_store32(c, w, xp_rs1, static_cast<uint32_t>(in.imm), fp_rs2);
    }

// Fused-superinstruction handlers (see the FastOp enum below): guest code
// materializes constants as `lui r, hi` / `lui; addi r, r, lo` /
// `...; fmv.w.x f, r` chains — up to three dispatches to broadcast one
// 32-bit literal. translate()'s peephole collapses each chain into a single
// TI carrying the folded constant in instr.imm; every architectural write
// of the original sequence is preserved (ConstXF still writes the x
// register — later code may read it).
FGPU_TURBO_HOT void exec_ConstX(TurboCore& c, uint32_t w, const TI& i) {
  const Instr in = i.instr;
  uint32_t* xw = c.xwarp(w);
  const uint32_t T = c.nthreads();
  uint32_t* const xp_rd = xw + in.rd * T;
  const uint32_t v = static_cast<uint32_t>(in.imm);
  c.lanes(w, [&](uint32_t l) { xp_rd[l] = v; });
}

FGPU_TURBO_HOT void exec_ConstXF(TurboCore& c, uint32_t w, const TI& i) {
  // instr.rs1 = x destination (the lui's rd), instr.rd = f destination.
  const Instr in = i.instr;
  uint32_t* xw = c.xwarp(w);
  uint32_t* fw = c.fwarp(w);
  const uint32_t T = c.nthreads();
  uint32_t* const xp = xw + in.rs1 * T;
  uint32_t* const fp = fw + in.rd * T;
  const uint32_t v = static_cast<uint32_t>(in.imm);
  c.lanes(w, [&](uint32_t l) {
    xp[l] = v;
    fp[l] = v;
  });
}

// Dispatch codes for the inline fast path; kFastNone falls back to the
// instruction's handler pointer.
enum : uint8_t {
  kFastNone = 0,
  kFastLui,
  kFastAuipc,
  kFastAddi,
  kFastAndi,
  kFastOri,
  kFastXori,
  kFastSlli,
  kFastSrli,
  kFastSrai,
  kFastSlti,
  kFastSltiu,
  kFastAdd,
  kFastSub,
  kFastAnd,
  kFastOr,
  kFastXor,
  kFastSll,
  kFastSrl,
  kFastSra,
  kFastSlt,
  kFastSltu,
  kFastMul,
  kFastFaddS,
  kFastFsubS,
  kFastFmulS,
  kFastFmaddS,
  kFastFcvtSW,
  kFastFcvtSWu,
  kFastFcvtWS,
  kFastFmvWX,
  kFastFmvXW,
  kFastFsgnjS,
  kFastFltS,
  kFastLw,
  kFastSw,
  kFastFlw,
  kFastFsw,
  // Fused superinstructions, produced only by translate()'s peephole (no
  // single guest op maps to these): constant materialization chains.
  kFastConstX,   // lui[+addi] collapsed: write imm to x[rd]
  kFastConstXF,  // lui[+addi]+fmv.w.x collapsed: write imm to x[rs1] and f[rd]
};

uint8_t fast_op_for(Op op) {
  switch (op) {
    case Op::kLui: return kFastLui;
    case Op::kAuipc: return kFastAuipc;
    case Op::kAddi: return kFastAddi;
    case Op::kAndi: return kFastAndi;
    case Op::kOri: return kFastOri;
    case Op::kXori: return kFastXori;
    case Op::kSlli: return kFastSlli;
    case Op::kSrli: return kFastSrli;
    case Op::kSrai: return kFastSrai;
    case Op::kSlti: return kFastSlti;
    case Op::kSltiu: return kFastSltiu;
    case Op::kAdd: return kFastAdd;
    case Op::kSub: return kFastSub;
    case Op::kAnd: return kFastAnd;
    case Op::kOr: return kFastOr;
    case Op::kXor: return kFastXor;
    case Op::kSll: return kFastSll;
    case Op::kSrl: return kFastSrl;
    case Op::kSra: return kFastSra;
    case Op::kSlt: return kFastSlt;
    case Op::kSltu: return kFastSltu;
    case Op::kMul: return kFastMul;
    case Op::kFaddS: return kFastFaddS;
    case Op::kFsubS: return kFastFsubS;
    case Op::kFmulS: return kFastFmulS;
    case Op::kFmaddS: return kFastFmaddS;
    case Op::kFcvtSW: return kFastFcvtSW;
    case Op::kFcvtSWu: return kFastFcvtSWu;
    case Op::kFcvtWS: return kFastFcvtWS;
    case Op::kFmvWX: return kFastFmvWX;
    case Op::kFmvXW: return kFastFmvXW;
    case Op::kFsgnjS: return kFastFsgnjS;
    case Op::kFltS: return kFastFltS;
    case Op::kLw: return kFastLw;
    case Op::kSw: return kFastSw;
    case Op::kFlw: return kFastFlw;
    case Op::kFsw: return kFastFsw;
    default: return kFastNone;
  }
}

// The threaded-code handler table: one captureless lambda per opcode,
// bound once at translation time. Register-write forms (including the
// unguarded rd writes and the FMA spellings) copy vortex/core.cpp exactly.
const std::array<Handler, arch::kNumOps>& handler_table() {
  static const std::array<Handler, arch::kNumOps> table = [] {
    std::array<Handler, arch::kNumOps> t{};
    auto set = [&t](Op op, Handler h) { t[static_cast<size_t>(op)] = h; };

    // ---------------- ALU ----------------
    set(Op::kLui, exec_Lui);
    set(Op::kAuipc, exec_Auipc);
    set(Op::kAddi, exec_Addi);
    set(Op::kSlti, exec_Slti);
    set(Op::kSltiu, exec_Sltiu);
    set(Op::kXori, exec_Xori);
    set(Op::kOri, exec_Ori);
    set(Op::kAndi, exec_Andi);
    set(Op::kSlli, exec_Slli);
    set(Op::kSrli, exec_Srli);
    set(Op::kSrai, exec_Srai);
    set(Op::kAdd, exec_Add);
    set(Op::kSub, exec_Sub);
    set(Op::kSll, exec_Sll);
    set(Op::kSlt, exec_Slt);
    set(Op::kSltu, exec_Sltu);
    set(Op::kXor, exec_Xor);
    set(Op::kSrl, exec_Srl);
    set(Op::kSra, exec_Sra);
    set(Op::kOr, exec_Or);
    set(Op::kAnd, exec_And);
    // ---------------- MUL/DIV ----------------
    set(Op::kMul, exec_Mul);
    set(Op::kMulh, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const int64_t p = static_cast<int64_t>(as_i32(xp_rs1[l])) *
                          static_cast<int64_t>(as_i32(xp_rs2[l]));
        xp_rd[l] = static_cast<uint32_t>(static_cast<uint64_t>(p) >> 32);
      });
    });
    set(Op::kMulhsu, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const int64_t p = static_cast<int64_t>(as_i32(xp_rs1[l])) *
                          static_cast<int64_t>(static_cast<uint64_t>(xp_rs2[l]));
        xp_rd[l] = static_cast<uint32_t>(static_cast<uint64_t>(p) >> 32);
      });
    });
    set(Op::kMulhu, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const uint64_t p = static_cast<uint64_t>(xp_rs1[l]) *
                           static_cast<uint64_t>(xp_rs2[l]);
        xp_rd[l] = static_cast<uint32_t>(p >> 32);
      });
    });
    set(Op::kDiv, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const int32_t a = as_i32(xp_rs1[l]), b = as_i32(xp_rs2[l]);
        int32_t r;
        if (b == 0) {
          r = -1;
        } else if (a == std::numeric_limits<int32_t>::min() && b == -1) {
          r = a;
        } else {
          r = a / b;
        }
        xp_rd[l] = static_cast<uint32_t>(r);
      });
    });
    set(Op::kDivu, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const uint32_t a = xp_rs1[l], b = xp_rs2[l];
        xp_rd[l] = b == 0 ? 0xFFFFFFFFu : a / b;
      });
    });
    set(Op::kRem, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const int32_t a = as_i32(xp_rs1[l]), b = as_i32(xp_rs2[l]);
        int32_t r;
        if (b == 0) {
          r = a;
        } else if (a == std::numeric_limits<int32_t>::min() && b == -1) {
          r = 0;
        } else {
          r = a % b;
        }
        xp_rd[l] = static_cast<uint32_t>(r);
      });
    });
    set(Op::kRemu, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const uint32_t a = xp_rs1[l], b = xp_rs2[l];
        xp_rd[l] = b == 0 ? a : a % b;
      });
    });
    // ---------------- CSR / system ----------------
    const Handler csr = [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        if (in.rd != 0) {
          xp_rd[l] = c.read_csr(static_cast<uint32_t>(in.imm), w, l);
        }
      });
    };
    set(Op::kCsrrw, csr);
    set(Op::kCsrrs, csr);
    set(Op::kCsrrc, csr);
    set(Op::kEcall, [](TurboCore& c, uint32_t w, const TI&) { c.do_ecall(w); });
    set(Op::kFence, [](TurboCore&, uint32_t, const TI&) {});
    // ---------------- FPU ----------------
    set(Op::kFaddS, exec_FaddS);
    set(Op::kFsubS, exec_FsubS);
    set(Op::kFmulS, exec_FmulS);
    set(Op::kFdivS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] =
            f2u(u2f(fp_rs1[l]) / u2f(fp_rs2[l]));
      });
    });
    set(Op::kFsqrtS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] = f2u(std::sqrt(u2f(fp_rs1[l])));
      });
    });
    set(Op::kFsgnjS, exec_FsgnjS);
    set(Op::kFsgnjnS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] =
            (fp_rs1[l] & 0x7FFFFFFFu) | (~fp_rs2[l] & 0x80000000u);
      });
    });
    set(Op::kFsgnjxS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] =
            fp_rs1[l] ^ (fp_rs2[l] & 0x80000000u);
      });
    });
    set(Op::kFminS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] =
            f2u(std::fmin(u2f(fp_rs1[l]), u2f(fp_rs2[l])));
      });
    });
    set(Op::kFmaxS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] =
            f2u(std::fmax(u2f(fp_rs1[l]), u2f(fp_rs2[l])));
      });
    });
    set(Op::kFcvtWS, exec_FcvtWS);
    set(Op::kFcvtWuS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] = fcvt_w_s(u2f(fp_rs1[l]), true);
      });
    });
    set(Op::kFcvtSW, exec_FcvtSW);
    set(Op::kFcvtSWu, exec_FcvtSWu);
    set(Op::kFmvXW, exec_FmvXW);
    set(Op::kFmvWX, exec_FmvWX);
    set(Op::kFclassS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const float f = u2f(fp_rs1[l]);
        uint32_t cls = 0;
        if (std::isnan(f)) {
          cls = 1u << 9;
        } else if (std::isinf(f)) {
          cls = f < 0 ? 1u << 0 : 1u << 7;
        } else if (f == 0.0f) {
          cls = std::signbit(f) ? 1u << 3 : 1u << 4;
        } else if (std::fpclassify(f) == FP_SUBNORMAL) {
          cls = f < 0 ? 1u << 2 : 1u << 5;
        } else {
          cls = f < 0 ? 1u << 1 : 1u << 6;
        }
        xp_rd[l] = cls;
      });
    });
    set(Op::kFeqS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] =
            u2f(fp_rs1[l]) == u2f(fp_rs2[l]) ? 1 : 0;
      });
    });
    set(Op::kFltS, exec_FltS);
    set(Op::kFleS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w); uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rd = xw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        xp_rd[l] =
            u2f(fp_rs1[l]) <= u2f(fp_rs2[l]) ? 1 : 0;
      });
    });
    set(Op::kFmaddS, exec_FmaddS);
    set(Op::kFmsubS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T; uint32_t* const fp_rs3 = fw + in.rs3 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] = f2u(u2f(fp_rs1[l]) * u2f(fp_rs2[l]) -
                                     u2f(fp_rs3[l]));
      });
    });
    set(Op::kFnmsubS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T; uint32_t* const fp_rs3 = fw + in.rs3 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] =
            f2u(-(u2f(fp_rs1[l]) * u2f(fp_rs2[l])) +
                u2f(fp_rs3[l]));
      });
    });
    set(Op::kFnmaddS, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* fw = c.fwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const fp_rd = fw + in.rd * T; uint32_t* const fp_rs1 = fw + in.rs1 * T; uint32_t* const fp_rs2 = fw + in.rs2 * T; uint32_t* const fp_rs3 = fw + in.rs3 * T;
      c.lanes(w, [&](uint32_t l) {
        fp_rd[l] =
            f2u(-(u2f(fp_rs1[l]) * u2f(fp_rs2[l])) -
                u2f(fp_rs3[l]));
      });
    });
    // ---------------- memory (functional; local/global routed per lane) --
    set(Op::kLb, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const uint32_t addr = xp_rs1[l] + static_cast<uint32_t>(in.imm);
        xp_rd[l] =
            static_cast<uint32_t>(static_cast<int8_t>(c.load8(addr)));
      });
    });
    set(Op::kLbu, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const uint32_t addr = xp_rs1[l] + static_cast<uint32_t>(in.imm);
        xp_rd[l] = c.load8(addr);
      });
    });
    set(Op::kLh, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const uint32_t addr = xp_rs1[l] + static_cast<uint32_t>(in.imm);
        xp_rd[l] =
            static_cast<uint32_t>(static_cast<int16_t>(c.load16(addr)));
      });
    });
    set(Op::kLhu, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const uint32_t addr = xp_rs1[l] + static_cast<uint32_t>(in.imm);
        xp_rd[l] = c.load16(addr);
      });
    });
    set(Op::kLw, exec_Lw);
    set(Op::kFlw, exec_Flw);
    set(Op::kSb, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        const uint32_t addr = xp_rs1[l] + static_cast<uint32_t>(in.imm);
        c.store8(addr, static_cast<uint8_t>(xp_rs2[l]));
      });
    });
    set(Op::kSh, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T;
      c.lanes(w, [&](uint32_t l) {
        const uint32_t addr = xp_rs1[l] + static_cast<uint32_t>(in.imm);
        c.store16(addr, static_cast<uint16_t>(xp_rs2[l]));
      });
    });
    set(Op::kSw, exec_Sw);
    set(Op::kFsw, exec_Fsw);
    set(Op::kLrW, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const uint32_t addr = xp_rs1[l];
        xp_rd[l] = c.load32(addr);
      });
    });
    set(Op::kScW, [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T; uint32_t* const xp_rd = xw + in.rd * T;
      // Single-context execution: SC always succeeds (as in core.cpp).
      c.lanes(w, [&](uint32_t l) {
        const uint32_t addr = xp_rs1[l];
        c.store32(addr, xp_rs2[l]);
        xp_rd[l] = 0;
      });
    });
    const Handler amo = [](TurboCore& c, uint32_t w, const TI& i) {
      const Instr in = i.instr; uint32_t* xw = c.xwarp(w);
      const uint32_t T = c.nthreads(); uint32_t* const xp_rs1 = xw + in.rs1 * T; uint32_t* const xp_rs2 = xw + in.rs2 * T; uint32_t* const xp_rd = xw + in.rd * T;
      c.lanes(w, [&](uint32_t l) {
        const uint32_t addr = xp_rs1[l];
        const uint32_t old = c.load32(addr);
        const uint32_t src = xp_rs2[l];
        uint32_t next = old;
        switch (in.op) {
          case Op::kAmoswapW: next = src; break;
          case Op::kAmoaddW: next = old + src; break;
          case Op::kAmoandW: next = old & src; break;
          case Op::kAmoorW: next = old | src; break;
          case Op::kAmoxorW: next = old ^ src; break;
          case Op::kAmominW:
            next = static_cast<uint32_t>(std::min(as_i32(old), as_i32(src)));
            break;
          case Op::kAmomaxW:
            next = static_cast<uint32_t>(std::max(as_i32(old), as_i32(src)));
            break;
          default: break;
        }
        c.store32(addr, next);
        if (in.rd != 0) xp_rd[l] = old;
      });
    };
    set(Op::kAmoswapW, amo);
    set(Op::kAmoaddW, amo);
    set(Op::kAmoandW, amo);
    set(Op::kAmoorW, amo);
    set(Op::kAmoxorW, amo);
    set(Op::kAmominW, amo);
    set(Op::kAmomaxW, amo);
    return t;
  }();
  return table;
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
      const bool prev_const_x = prev.fast == kFastLui || prev.fast == kFastConstX;
      if (prev_const_x) {
        const uint32_t prev_val = prev.fast == kFastLui
                                      ? static_cast<uint32_t>(prev.instr.imm) << 12
                                      : static_cast<uint32_t>(prev.instr.imm);
        if (decoded->op == Op::kAddi && decoded->rd == prev.instr.rd &&
            decoded->rs1 == prev.instr.rd) {
          prev.instr.op = Op::kAddi;
          prev.instr.imm = static_cast<int32_t>(prev_val + static_cast<uint32_t>(decoded->imm));
          prev.fast = kFastConstX;
          prev.fn = exec_ConstX;
          fused = true;
        } else if (decoded->op == Op::kFmvWX && decoded->rs1 == prev.instr.rd) {
          prev.instr.op = Op::kFmvWX;
          prev.instr.rs1 = prev.instr.rd;  // x destination (the chain's register)
          prev.instr.rd = decoded->rd;     // f destination
          prev.instr.imm = static_cast<int32_t>(prev_val);
          prev.fast = kFastConstXF;
          prev.fn = exec_ConstXF;
          fused = true;
        }
      }
    }
    if (!fused) {
      blk->body.push_back(TI{handler_table()[static_cast<size_t>(decoded->op)], *decoded, pc,
                             fast_op_for(decoded->op)});
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
  // handler stores may alias (TBAA), so per-block RMWs through them would
  // reload every block. instret_ stays per-block exact for CSR reads.
  uint64_t local_retired = 0;
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
    for (const TI& ti : blk->body) {
      switch (ti.fast) {
        case kFastLui: exec_Lui(*this, w, ti); break;
        case kFastAuipc: exec_Auipc(*this, w, ti); break;
        case kFastAddi: exec_Addi(*this, w, ti); break;
        case kFastAndi: exec_Andi(*this, w, ti); break;
        case kFastOri: exec_Ori(*this, w, ti); break;
        case kFastXori: exec_Xori(*this, w, ti); break;
        case kFastSlli: exec_Slli(*this, w, ti); break;
        case kFastSrli: exec_Srli(*this, w, ti); break;
        case kFastSrai: exec_Srai(*this, w, ti); break;
        case kFastSlti: exec_Slti(*this, w, ti); break;
        case kFastSltiu: exec_Sltiu(*this, w, ti); break;
        case kFastAdd: exec_Add(*this, w, ti); break;
        case kFastSub: exec_Sub(*this, w, ti); break;
        case kFastAnd: exec_And(*this, w, ti); break;
        case kFastOr: exec_Or(*this, w, ti); break;
        case kFastXor: exec_Xor(*this, w, ti); break;
        case kFastSll: exec_Sll(*this, w, ti); break;
        case kFastSrl: exec_Srl(*this, w, ti); break;
        case kFastSra: exec_Sra(*this, w, ti); break;
        case kFastSlt: exec_Slt(*this, w, ti); break;
        case kFastSltu: exec_Sltu(*this, w, ti); break;
        case kFastMul: exec_Mul(*this, w, ti); break;
        case kFastFaddS: exec_FaddS(*this, w, ti); break;
        case kFastFsubS: exec_FsubS(*this, w, ti); break;
        case kFastFmulS: exec_FmulS(*this, w, ti); break;
        case kFastFmaddS: exec_FmaddS(*this, w, ti); break;
        case kFastFcvtSW: exec_FcvtSW(*this, w, ti); break;
        case kFastFcvtSWu: exec_FcvtSWu(*this, w, ti); break;
        case kFastFcvtWS: exec_FcvtWS(*this, w, ti); break;
        case kFastFmvWX: exec_FmvWX(*this, w, ti); break;
        case kFastFmvXW: exec_FmvXW(*this, w, ti); break;
        case kFastFsgnjS: exec_FsgnjS(*this, w, ti); break;
        case kFastFltS: exec_FltS(*this, w, ti); break;
        case kFastLw: exec_Lw(*this, w, ti); break;
        case kFastSw: exec_Sw(*this, w, ti); break;
        case kFastFlw: exec_Flw(*this, w, ti); break;
        case kFastFsw: exec_Fsw(*this, w, ti); break;
        case kFastConstX: exec_ConstX(*this, w, ti); break;
        case kFastConstXF: exec_ConstXF(*this, w, ti); break;
        default: ti.fn(*this, w, ti); break;
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
    const uint64_t mask = warp.tmask;
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
            (xr(w, first_active_lane(mask), in.rs1) + static_cast<uint32_t>(in.imm)) & ~1u;
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
        const uint32_t lane = first_active_lane(mask);
        const uint32_t a = xr(w, lane, in.rs1), b = xr(w, lane, in.rs2);
        bool taken = false;
        switch (in.op) {
          case Op::kBeq: taken = a == b; break;
          case Op::kBne: taken = a != b; break;
          case Op::kBlt: taken = as_i32(a) < as_i32(b); break;
          case Op::kBge: taken = as_i32(a) >= as_i32(b); break;
          case Op::kBltu: taken = a < b; break;
          case Op::kBgeu: taken = a >= b; break;
          default: break;
        }
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
        const uint64_t value = xr(w, first_active_lane(mask), in.rs1) & full;
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
        const uint32_t lane = first_active_lane(mask);
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
        const uint32_t lane = first_active_lane(mask);
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
