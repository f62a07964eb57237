#include "codegen/codegen.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <unordered_map>

#include "codegen/abi.hpp"
#include "codegen/minstr.hpp"
#include "codegen/peephole.hpp"
#include "codegen/regalloc.hpp"
#include "common/bits.hpp"
#include "kir/passes.hpp"
#include "vasm/builder.hpp"

namespace fgpu::codegen {
namespace {

using arch::Op;
using kir::BinOp;
using kir::Expr;
using kir::ExprKind;
using kir::ExprPtr;
using kir::Scalar;
using kir::SpecialReg;
using kir::Stmt;
using kir::StmtKind;
using kir::UnOp;

// Physical registers with fixed roles (see regalloc.hpp for the reserved set).
constexpr int kSp = 2;        // per-lane stack pointer
constexpr int kArgBaseReg = 3;  // kernel-argument block base
constexpr int kA0 = 10, kA7 = 17;  // ECALL argument/function registers
constexpr int kScratch0 = 29, kScratch1 = 30, kScratch2 = 31;

// An evaluated expression: virtual register + whether codegen owns it (may
// bind it to a variable without copying).
struct Value {
  int vreg = -1;
  bool owned = false;
};

class Lowering {
 public:
  Lowering(const kir::Kernel& kernel, const Options& options, bool barrier_mode)
      : kernel_(kernel), options_(options), barrier_mode_(barrier_mode) {}

  Result<MFunction> run() {
    scan_used_specials(kernel_.body);
    emit_entry();
    emit_warp_prologue();
    if (barrier_mode_) {
      emit_group_dispatch();
    } else {
      emit_grid_stride_dispatch();
    }
    if (!error_.is_ok()) return error_;
    return std::move(fn_);
  }

 private:
  // ---- tiny emit helpers on the machine IR ----------------------------
  // Every emitted MInstr carries the current provenance cursor; the line
  // table this produces is the profiler's PC -> KIR source attribution.
  void push(MInstr m) {
    m.src = cur_src_;
    fn_.code.push_back(m);
  }
  void set_source(const std::string& text) {
    const auto [it, inserted] = source_ids_.try_emplace(text, static_cast<int>(fn_.sources.size()));
    if (inserted) fn_.sources.push_back(text);
    cur_src_ = it->second;
  }
  void op_r(Op op, int rd, int rs1, int rs2, int rs3 = -1) {
    MInstr m;
    m.op = op;
    m.rd = rd;
    m.rs1 = rs1;
    m.rs2 = rs2;
    m.rs3 = rs3;
    push(m);
  }
  void op_i(Op op, int rd, int rs1, int32_t imm) {
    MInstr m;
    m.op = op;
    m.rd = rd;
    m.rs1 = rs1;
    m.imm = imm;
    push(m);
  }
  void op_s(Op op, int rs1, int rs2, int32_t imm) {
    MInstr m;
    m.op = op;
    m.rs1 = rs1;
    m.rs2 = rs2;
    m.imm = imm;
    push(m);
  }
  void jump(int label) {
    MInstr m;
    m.op = Op::kJal;
    m.rd = 0;
    m.target = label;
    push(m);
  }
  // Conditional branch to `label`. B-type reach is only +-4 KiB and kernel
  // bodies routinely exceed it, so we emit the inverted branch over an
  // unconditional JAL (+-1 MiB reach), the standard far-branch expansion.
  void branch(Op op, int rs1, int rs2, int label) {
    Op inverted = op;
    switch (op) {
      case Op::kBeq: inverted = Op::kBne; break;
      case Op::kBne: inverted = Op::kBeq; break;
      case Op::kBlt: inverted = Op::kBge; break;
      case Op::kBge: inverted = Op::kBlt; break;
      case Op::kBltu: inverted = Op::kBgeu; break;
      case Op::kBgeu: inverted = Op::kBltu; break;
      default: break;
    }
    const int skip = fn_.make_label();
    MInstr m;
    m.op = inverted;
    m.rs1 = rs1;
    m.rs2 = rs2;
    m.target = skip;
    push(m);
    jump(label);
    fn_.label(skip);
  }
  void split(int rs1, int else_label) {
    MInstr m;
    m.op = Op::kSplit;
    m.rs1 = rs1;
    m.target = else_label;
    push(m);
  }
  void pred(int rs1, int exit_label) {
    MInstr m;
    m.op = Op::kPred;
    m.rs1 = rs1;
    m.target = exit_label;
    push(m);
  }
  void join(int merge_label) {
    MInstr m;
    m.op = Op::kJoin;
    m.target = merge_label;
    push(m);
  }
  void li(int rd, int32_t value) {
    MInstr m;
    m.is_li = true;
    m.rd = rd;
    m.imm = value;
    push(m);
  }
  void la(int rd, int label) {
    MInstr m;
    m.is_la = true;
    m.rd = rd;
    m.target = label;
    push(m);
  }
  void csr_read(int rd, uint32_t csr) { op_i(Op::kCsrrs, rd, 0, static_cast<int32_t>(csr)); }
  void mv_int(int rd, int rs) { op_i(Op::kAddi, rd, rs, 0); }
  void mv_float(int rd, int rs) { op_r(Op::kFsgnjS, rd, rs, rs); }
  int fresh() { return fn_.new_vreg(); }

  void fail(const std::string& message) {
    if (error_.is_ok()) {
      error_ = Status(ErrorKind::kCompileError, kernel_.name + ": " + message);
    }
  }

  // ---- prologue / dispatch --------------------------------------------

  // Entry code runs on warp 0 / lane 0 of every core. Uses only physical
  // scratch registers: the stack pointer is not set up yet, so nothing here
  // may be spillable.
  void emit_entry() {
    set_source("<entry: wspawn + lane activation>");
    warp_main_ = fn_.make_label();
    li(kArgBaseReg, static_cast<int32_t>(arch::kArgBase));
    if (barrier_mode_) {
      op_i(Op::kLw, kScratch0, kArgBaseReg, static_cast<int32_t>(abi::kNbw));
    } else {
      csr_read(kScratch0, arch::kCsrNumWarps);
    }
    la(kScratch1, warp_main_);
    op_r(Op::kWspawn, 0, kScratch0, kScratch1);
    fn_.label(warp_main_);
    // Spawned warps enter here with only lane 0 active and empty registers:
    // give lane 0 the argument-block base before the activation code uses it.
    li(kArgBaseReg, static_cast<int32_t>(arch::kArgBase));

    // Activate this warp's lanes. For barrier dispatch, warps beyond the
    // participating count retire immediately and partial warps mask off the
    // lanes past the work-group size.
    const int exit_label = fn_.make_label();
    if (barrier_mode_) {
      csr_read(kScratch0, arch::kCsrWarpId);
      op_i(Op::kLw, kScratch1, kArgBaseReg, static_cast<int32_t>(abi::kNbw));
      const int cont = fn_.make_label();
      branch(Op::kBlt, kScratch0, kScratch1, cont);
      op_r(Op::kTmc, 0, 0, 0);  // tmc zero: warp exit
      fn_.label(cont);
      // count = min(local_total - warp_id * NT, NT); tmask = ~0 >> (32 - count)
      op_i(Op::kLw, kScratch1, kArgBaseReg, static_cast<int32_t>(abi::kLocalTotal));
      csr_read(kScratch2, arch::kCsrNumThreads);
      op_r(Op::kMul, kScratch0, kScratch0, kScratch2);
      op_r(Op::kSub, kScratch1, kScratch1, kScratch0);  // remaining items
      const int clamped = fn_.make_label();
      branch(Op::kBge, kScratch2, kScratch1, clamped);
      mv_int(kScratch1, kScratch2);
      fn_.label(clamped);
      li(kScratch0, 32);
      op_r(Op::kSub, kScratch0, kScratch0, kScratch1);
      li(kScratch2, -1);
      op_r(Op::kSrl, kScratch2, kScratch2, kScratch0);
      op_r(Op::kTmc, 0, kScratch2, 0);
    } else {
      csr_read(kScratch0, arch::kCsrNumThreads);
      li(kScratch1, 32);
      op_r(Op::kSub, kScratch1, kScratch1, kScratch0);
      li(kScratch2, -1);
      op_r(Op::kSrl, kScratch2, kScratch2, kScratch1);
      op_r(Op::kTmc, 0, kScratch2, 0);
    }
    (void)exit_label;

    // Registers are per lane: everything computed before the TMC above only
    // exists in lane 0 of warp 0. Re-materialize the argument-block base so
    // every active lane of every warp has it.
    li(kArgBaseReg, static_cast<int32_t>(arch::kArgBase));

    // Per-lane stack pointer: sp = kStackTop - (hwtid + 1) * kStackSize.
    csr_read(kScratch0, arch::kCsrCoreId);
    csr_read(kScratch1, arch::kCsrNumWarps);
    op_r(Op::kMul, kScratch0, kScratch0, kScratch1);
    csr_read(kScratch1, arch::kCsrWarpId);
    op_r(Op::kAdd, kScratch0, kScratch0, kScratch1);
    csr_read(kScratch1, arch::kCsrNumThreads);
    op_r(Op::kMul, kScratch0, kScratch0, kScratch1);
    csr_read(kScratch1, arch::kCsrThreadId);
    op_r(Op::kAdd, kScratch0, kScratch0, kScratch1);  // hwtid
    op_i(Op::kAddi, kScratch0, kScratch0, 1);
    li(kScratch1, static_cast<int32_t>(arch::kStackSizePerThread));
    op_r(Op::kMul, kScratch0, kScratch0, kScratch1);
    li(kSp, static_cast<int32_t>(arch::kStackTop));
    op_r(Op::kSub, kSp, kSp, kScratch0);
  }

  // Loads kernel parameters and launch geometry into long-lived vregs.
  void emit_warp_prologue() {
    set_source("<prologue: params + geometry>");
    // Materialize __local array base addresses here, under the full lane
    // mask: values cached in registers must never be first computed inside
    // divergent control flow, or inactive lanes would read garbage later.
    for (size_t slot = 0; slot < kernel_.locals.size(); ++slot) {
      local_base_vreg(static_cast<int>(slot));
    }
    for (size_t i = 0; i < kernel_.params.size(); ++i) {
      const int bits = fresh();
      op_i(Op::kLw, bits, kArgBaseReg, static_cast<int32_t>(abi::arg_offset(static_cast<uint32_t>(i))));
      if (!kernel_.params[i].is_buffer && kernel_.params[i].elem == Scalar::kF32) {
        const int f = fresh();
        op_r(Op::kFmvWX, f, bits, -1);
        param_vreg_[static_cast<int>(i)] = f;
      } else {
        param_vreg_[static_cast<int>(i)] = bits;
      }
    }
    // Geometry specials used anywhere in the kernel (uniform, loop-invariant).
    for (int d = 0; d < 3; ++d) {
      if (uses_special(SpecialReg::kGlobalSize, d) || needs_decomposition()) {
        global_size_[d] = load_geometry(abi::kGlobal0 + 4 * static_cast<uint32_t>(d));
      }
      if (uses_special(SpecialReg::kLocalSize, d) || uses_special(SpecialReg::kLocalId, d) ||
          uses_special(SpecialReg::kGroupId, d) || barrier_mode_) {
        local_size_[d] = load_geometry(abi::kLocal0 + 4 * static_cast<uint32_t>(d));
      }
      if (uses_special(SpecialReg::kNumGroups, d) || barrier_mode_) {
        num_groups_[d] = load_geometry(abi::kNumGroups0 + 4 * static_cast<uint32_t>(d));
      }
    }
    if (options_.opt_level >= 2) emit_uniform_hoists();
  }

  // ---- uniform-value scalarization (-O2) -------------------------------
  // Pure expressions built only from constants, kernel parameters, and the
  // launch-geometry specials are identical for every work item and every
  // dispatch iteration (analyze_divergence classifies exactly these leaves
  // as uniform). Evaluating them once here — under the full lane mask,
  // before the dispatch loop — removes them from the per-item hot path;
  // eval() serves later occurrences from the cache.

  // True when every leaf of `e` is warp-uniform and dispatch-invariant.
  bool uniform_invariant(const ExprPtr& e) const {
    switch (e->kind) {
      case ExprKind::kConstInt:
      case ExprKind::kConstFloat:
      case ExprKind::kParam:
        return true;
      case ExprKind::kSpecial:
        return e->special == SpecialReg::kGlobalSize || e->special == SpecialReg::kLocalSize ||
               e->special == SpecialReg::kNumGroups;
      case ExprKind::kBinary:
      case ExprKind::kUnary:
      case ExprKind::kSelect:
      case ExprKind::kCast:
      case ExprKind::kCall:
        for (const auto& arg : e->args) {
          if (!uniform_invariant(arg)) return false;
        }
        return true;
      default:
        return false;  // vars, loads, per-item specials
    }
  }

  // Maximal uniform-invariant subexpressions with at least one operation
  // node: record the whole subtree (with an occurrence count), do not
  // descend into it.
  void collect_uniform_candidates(const ExprPtr& e,
                                  std::vector<std::pair<ExprPtr, int>>& out) const {
    const bool op_node = e->kind == ExprKind::kBinary || e->kind == ExprKind::kUnary ||
                         e->kind == ExprKind::kSelect || e->kind == ExprKind::kCast ||
                         e->kind == ExprKind::kCall;
    if (op_node && uniform_invariant(e)) {
      for (auto& seen : out) {
        if (kir::expr_equal(seen.first, e)) {
          ++seen.second;
          return;
        }
      }
      out.emplace_back(e, 1);
      return;
    }
    for (const auto& arg : e->args) collect_uniform_candidates(arg, out);
  }

  void collect_uniform_candidates_block(const std::vector<kir::StmtPtr>& block,
                                        std::vector<std::pair<ExprPtr, int>>& out) const {
    for (const auto& s : block) {
      for (const ExprPtr* e : {&s->a, &s->b, &s->c}) {
        if (*e) collect_uniform_candidates(*e, out);
      }
      for (const auto& arg : s->print_args) collect_uniform_candidates(arg, out);
      collect_uniform_candidates_block(s->body, out);
      collect_uniform_candidates_block(s->else_body, out);
    }
  }

  // A hoist pins a register for the whole dispatch loop; that only pays for
  // itself when the expression is genuinely expensive (mul/div/rem or a
  // builtin call) or is recomputed at several sites.
  static bool worth_hoisting(const ExprPtr& e) {
    if (e->kind == ExprKind::kBinary &&
        (e->bin == kir::BinOp::kMul || e->bin == kir::BinOp::kDiv ||
         e->bin == kir::BinOp::kRem)) {
      return true;
    }
    if (e->kind == ExprKind::kCall) return true;
    for (const auto& arg : e->args) {
      if (worth_hoisting(arg)) return true;
    }
    return false;
  }

  void emit_uniform_hoists() {
    std::vector<std::pair<ExprPtr, int>> counted;
    collect_uniform_candidates_block(kernel_.body, counted);
    std::vector<ExprPtr> candidates;
    for (const auto& [e, count] : counted) {
      if (count >= 2 || worth_hoisting(e)) candidates.push_back(e);
    }
    constexpr size_t kMaxHoists = 12;
    if (candidates.size() > kMaxHoists) candidates.resize(kMaxHoists);
    if (candidates.empty()) return;
    set_source("<prologue: uniform hoist>");
    // The candidates' geometry specials were loaded above (uses_special saw
    // them in the body); expose them so eval() can reach them already.
    for (int d = 0; d < 3; ++d) {
      if (global_size_[d] >= 0) special_vreg_[key(SpecialReg::kGlobalSize, d)] = global_size_[d];
      if (local_size_[d] >= 0) special_vreg_[key(SpecialReg::kLocalSize, d)] = local_size_[d];
      if (num_groups_[d] >= 0) special_vreg_[key(SpecialReg::kNumGroups, d)] = num_groups_[d];
    }
    for (const auto& e : candidates) {
      const Value v = eval(e);
      uniform_cache_.emplace_back(e, v.vreg);
    }
  }

  int load_geometry(uint32_t offset) {
    const int v = fresh();
    op_i(Op::kLw, v, kArgBaseReg, static_cast<int32_t>(offset));
    return v;
  }

  int compute_hwtid() {
    const int v = fresh();
    const int t = fresh();
    csr_read(v, arch::kCsrCoreId);
    csr_read(t, arch::kCsrNumWarps);
    op_r(Op::kMul, v, v, t);
    csr_read(t, arch::kCsrWarpId);
    op_r(Op::kAdd, v, v, t);
    csr_read(t, arch::kCsrNumThreads);
    op_r(Op::kMul, v, v, t);
    csr_read(t, arch::kCsrThreadId);
    op_r(Op::kAdd, v, v, t);
    return v;
  }

  // Grid-stride dispatch: every hardware thread walks the flattened NDRange
  // with stride C*W*T (PoCL-style work-item loop, "flat collapsing").
  // The blocked variant gives each hardware thread one contiguous chunk
  // instead — same results, very different memory coalescing (paper §IV-A
  // challenge 4; see bench/ablation_distribution).
  void emit_grid_stride_dispatch() {
    set_source("<dispatch: grid-stride loop>");
    const int total = fresh();
    op_i(Op::kLw, total, kArgBaseReg, static_cast<int32_t>(abi::kTotalItems));
    const int nthreads = fresh();
    const int t = fresh();
    csr_read(nthreads, arch::kCsrNumCores);
    csr_read(t, arch::kCsrNumWarps);
    op_r(Op::kMul, nthreads, nthreads, t);
    csr_read(t, arch::kCsrNumThreads);
    op_r(Op::kMul, nthreads, nthreads, t);

    const int item = compute_hwtid();
    int stride = nthreads;  // grid-stride default
    int limit = total;
    if (options_.distribution == WorkDistribution::kBlocked) {
      // chunk = ceil(total / nthreads); item = hwtid * chunk;
      // limit = min(item + chunk, total); stride = 1.
      const int chunk = fresh();
      op_r(Op::kAdd, chunk, total, nthreads);
      op_i(Op::kAddi, chunk, chunk, -1);
      op_r(Op::kDivu, chunk, chunk, nthreads);
      op_r(Op::kMul, item, item, chunk);
      const int end = fresh();
      op_r(Op::kAdd, end, item, chunk);
      const int over = fresh();
      op_r(Op::kSlt, over, total, end);
      // end = min(end, total) via branchless blend.
      const int blended = blend_int(normalize_bool(over), total, end);
      limit = blended;
      const int one = fresh();
      li(one, 1);
      stride = one;
    }

    const int loop_top = fn_.make_label();
    const int loop_exit = fn_.make_label();
    fn_.label(loop_top);
    const int alive = fresh();
    op_r(Op::kSlt, alive, item, limit);
    pred(alive, loop_exit);

    bind_grid_stride_specials(item);
    lower_block(kernel_.body);

    op_r(Op::kAdd, item, item, stride);
    jump(loop_top);
    fn_.label(loop_exit);
    op_r(Op::kTmc, 0, 0, 0);
  }

  // Work-group dispatch: groups round-robin over cores; local items map to
  // the core's lanes; BAR synchronizes the group's warps.
  void emit_group_dispatch() {
    set_source("<dispatch: work-group loop>");
    nbw_vreg_ = fresh();
    op_i(Op::kLw, nbw_vreg_, kArgBaseReg, static_cast<int32_t>(abi::kNbw));
    const int total_groups = fresh();
    op_i(Op::kLw, total_groups, kArgBaseReg, static_cast<int32_t>(abi::kTotalGroups));
    const int ncores = fresh();
    csr_read(ncores, arch::kCsrNumCores);

    // lid_linear = warp_id * NT + lane (per lane, fixed for the kernel).
    const int lidlin = fresh();
    const int t = fresh();
    csr_read(lidlin, arch::kCsrWarpId);
    csr_read(t, arch::kCsrNumThreads);
    op_r(Op::kMul, lidlin, lidlin, t);
    csr_read(t, arch::kCsrThreadId);
    op_r(Op::kAdd, lidlin, lidlin, t);

    const int group = fresh();
    csr_read(group, arch::kCsrCoreId);

    const int loop_top = fn_.make_label();
    const int loop_exit = fn_.make_label();
    fn_.label(loop_top);
    branch(Op::kBge, group, total_groups, loop_exit);

    bind_group_specials(group, lidlin);
    lower_block(kernel_.body);

    // End-of-group barrier: the next group reuses __local memory.
    emit_barrier();
    op_r(Op::kAdd, group, group, ncores);
    jump(loop_top);
    fn_.label(loop_exit);
    op_r(Op::kTmc, 0, 0, 0);
  }

  void emit_barrier() {
    const int id = fresh();
    li(id, 0);
    op_r(Op::kBar, 0, id, nbw_vreg_);
  }

  // ---- special-value binding -------------------------------------------

  void scan_used_specials(const std::vector<kir::StmtPtr>& block) {
    for (const auto& s : block) {
      for (const ExprPtr* e : {&s->a, &s->b, &s->c}) {
        if (*e) scan_expr(*e);
      }
      for (const auto& arg : s->print_args) scan_expr(arg);
      scan_used_specials(s->body);
      scan_used_specials(s->else_body);
    }
  }
  void scan_expr(const ExprPtr& e) {
    if (e->kind == ExprKind::kSpecial) {
      used_specials_[key(e->special, e->index)] = true;
    }
    for (const auto& arg : e->args) scan_expr(arg);
  }
  static int key(SpecialReg reg, int dim) { return static_cast<int>(reg) * 4 + dim; }
  bool uses_special(SpecialReg reg, int dim) const {
    auto it = used_specials_.find(key(reg, dim));
    return it != used_specials_.end() && it->second;
  }
  bool needs_decomposition() const {
    // Any use beyond get_global_id(0)/get_global_size requires deriving the
    // multi-dimensional indices from the flattened item number.
    for (int d = 0; d < 3; ++d) {
      if (uses_special(SpecialReg::kLocalId, d) || uses_special(SpecialReg::kGroupId, d) ||
          uses_special(SpecialReg::kNumGroups, d)) {
        return true;
      }
    }
    return uses_special(SpecialReg::kGlobalId, 1) || uses_special(SpecialReg::kGlobalId, 2);
  }

  void bind_grid_stride_specials(int item) {
    special_vreg_.clear();
    int gid[3] = {-1, -1, -1};
    if (needs_decomposition()) {
      gid[0] = fresh();
      op_r(Op::kRemu, gid[0], item, global_size_[0]);
      const int r1 = fresh();
      op_r(Op::kDivu, r1, item, global_size_[0]);
      gid[1] = fresh();
      op_r(Op::kRemu, gid[1], r1, global_size_[1]);
      gid[2] = fresh();
      op_r(Op::kDivu, gid[2], r1, global_size_[1]);
    } else {
      gid[0] = item;
      gid[1] = gid[2] = -1;
    }
    for (int d = 0; d < 3; ++d) {
      if (uses_special(SpecialReg::kGlobalId, d) && gid[d] >= 0) {
        special_vreg_[key(SpecialReg::kGlobalId, d)] = gid[d];
      }
      if (uses_special(SpecialReg::kGlobalSize, d)) {
        special_vreg_[key(SpecialReg::kGlobalSize, d)] = global_size_[d];
      }
      if (uses_special(SpecialReg::kLocalSize, d)) {
        special_vreg_[key(SpecialReg::kLocalSize, d)] = local_size_[d];
      }
      if (uses_special(SpecialReg::kNumGroups, d)) {
        special_vreg_[key(SpecialReg::kNumGroups, d)] = num_groups_[d];
      }
      if (uses_special(SpecialReg::kLocalId, d)) {
        const int v = fresh();
        op_r(Op::kRemu, v, gid[d], local_size_[d]);
        special_vreg_[key(SpecialReg::kLocalId, d)] = v;
      }
      if (uses_special(SpecialReg::kGroupId, d)) {
        const int v = fresh();
        op_r(Op::kDivu, v, gid[d], local_size_[d]);
        special_vreg_[key(SpecialReg::kGroupId, d)] = v;
      }
    }
  }

  void bind_group_specials(int group, int lidlin) {
    special_vreg_.clear();
    // Group indices.
    int grp[3];
    grp[0] = fresh();
    op_r(Op::kRemu, grp[0], group, num_groups_[0]);
    const int r1 = fresh();
    op_r(Op::kDivu, r1, group, num_groups_[0]);
    grp[1] = fresh();
    op_r(Op::kRemu, grp[1], r1, num_groups_[1]);
    grp[2] = fresh();
    op_r(Op::kDivu, grp[2], r1, num_groups_[1]);
    // Local indices from the linear lane id.
    int lid[3];
    lid[0] = fresh();
    op_r(Op::kRemu, lid[0], lidlin, local_size_[0]);
    const int r2 = fresh();
    op_r(Op::kDivu, r2, lidlin, local_size_[0]);
    lid[1] = fresh();
    op_r(Op::kRemu, lid[1], r2, local_size_[1]);
    lid[2] = fresh();
    op_r(Op::kDivu, lid[2], r2, local_size_[1]);

    for (int d = 0; d < 3; ++d) {
      special_vreg_[key(SpecialReg::kLocalId, d)] = lid[d];
      special_vreg_[key(SpecialReg::kGroupId, d)] = grp[d];
      if (local_size_[d] >= 0) special_vreg_[key(SpecialReg::kLocalSize, d)] = local_size_[d];
      if (num_groups_[d] >= 0) special_vreg_[key(SpecialReg::kNumGroups, d)] = num_groups_[d];
      if (global_size_[d] >= 0) special_vreg_[key(SpecialReg::kGlobalSize, d)] = global_size_[d];
      if (uses_special(SpecialReg::kGlobalId, d)) {
        const int v = fresh();
        op_r(Op::kMul, v, grp[d], local_size_[d]);
        op_r(Op::kAdd, v, v, lid[d]);
        special_vreg_[key(SpecialReg::kGlobalId, d)] = v;
      }
    }
  }

  // ---- expression lowering ----------------------------------------------

  // Normalizes an i32 value to 0/1.
  int normalize_bool(int reg) {
    const int v = fresh();
    op_r(Op::kSltu, v, 0, reg);
    return v;
  }

  // Branchless lane-wise select on integer registers:
  //   result = b ^ ((a ^ b) & -(cond != 0))
  int blend_int(int cond01, int a, int b) {
    const int mask = fresh();
    op_r(Op::kSub, mask, 0, cond01);
    const int diff = fresh();
    op_r(Op::kXor, diff, a, b);
    op_r(Op::kAnd, diff, diff, mask);
    const int out = fresh();
    op_r(Op::kXor, out, b, diff);
    return out;
  }

  Value eval(const ExprPtr& e) {
    // Uniform-hoist cache (-O2): non-leaf expressions evaluated in the
    // prologue are not re-evaluated per item. Not owned — assignment targets
    // must still copy.
    if (!uniform_cache_.empty() && e->kind != ExprKind::kConstInt &&
        e->kind != ExprKind::kConstFloat && e->kind != ExprKind::kVar) {
      for (const auto& [expr, vreg] : uniform_cache_) {
        if (kir::expr_equal(expr, e)) return {vreg, false};
      }
    }
    switch (e->kind) {
      case ExprKind::kConstInt: {
        const int v = fresh();
        li(v, e->ival);
        return {v, true};
      }
      case ExprKind::kConstFloat: {
        const int bits = fresh();
        li(bits, static_cast<int32_t>(f2u(e->fval)));
        const int f = fresh();
        op_r(Op::kFmvWX, f, bits, -1);
        return {f, true};
      }
      case ExprKind::kVar: {
        auto it = var_vreg_.find(e->var);
        if (it == var_vreg_.end()) {
          fail("use of unbound variable '" + e->var + "'");
          return {fresh(), true};
        }
        return {it->second, false};
      }
      case ExprKind::kParam:
        return {param_vreg_.at(e->index), false};
      case ExprKind::kSpecial: {
        auto it = special_vreg_.find(key(e->special, e->index));
        if (it == special_vreg_.end()) {
          fail("work-item special not bound (dimension beyond launch?)");
          return {fresh(), true};
        }
        return {it->second, false};
      }
      case ExprKind::kBinary:
        return eval_binary(e);
      case ExprKind::kUnary:
        return eval_unary(e);
      case ExprKind::kSelect: {
        const Value c = eval(e->a());
        const Value a = eval(e->b());
        const Value b = eval(e->c());
        const int c01 = normalize_bool(c.vreg);
        if (e->type == Scalar::kF32) {
          const int ai = fresh(), bi = fresh();
          op_r(Op::kFmvXW, ai, a.vreg, -1);
          op_r(Op::kFmvXW, bi, b.vreg, -1);
          const int blended = blend_int(c01, ai, bi);
          const int out = fresh();
          op_r(Op::kFmvWX, out, blended, -1);
          return {out, true};
        }
        return {blend_int(c01, a.vreg, b.vreg), true};
      }
      case ExprKind::kCast: {
        const Value a = eval(e->a());
        const int out = fresh();
        if (e->type == Scalar::kF32) {
          op_r(Op::kFcvtSW, out, a.vreg, -1);
        } else {
          op_r(Op::kFcvtWS, out, a.vreg, -1);
        }
        return {out, true};
      }
      case ExprKind::kCall: {
        if (e->call != kir::Builtin::kSqrt) {
          fail("unexpanded builtin reached codegen");
          return {fresh(), true};
        }
        const Value a = eval(e->args[0]);
        const int out = fresh();
        op_r(Op::kFsqrtS, out, a.vreg, -1);
        return {out, true};
      }
      case ExprKind::kLoad: {
        const int addr = eval_address(e->index, e->is_local, e->a());
        const int out = fresh();
        op_i(e->type == Scalar::kF32 ? Op::kFlw : Op::kLw, out, addr, 0);
        return {out, true};
      }
    }
    fail("unreachable expression kind");
    return {fresh(), true};
  }

  // Computes &buffer[index] into a vreg.
  int eval_address(int buffer, bool is_local, const ExprPtr& index) {
    const Value idx = eval(index);
    const int scaled = fresh();
    op_i(Op::kSlli, scaled, idx.vreg, 2);
    const int base = is_local ? local_base_vreg(buffer) : param_vreg_.at(buffer);
    const int addr = fresh();
    op_r(Op::kAdd, addr, base, scaled);
    return addr;
  }

  int local_base_vreg(int slot) {
    auto it = local_base_.find(slot);
    if (it != local_base_.end()) return it->second;
    uint32_t offset = 0;
    for (int i = 0; i < slot; ++i) {
      offset += kernel_.locals[static_cast<size_t>(i)].size * 4;
    }
    const int v = fresh();
    li(v, static_cast<int32_t>(arch::kLocalBase + offset));
    local_base_[slot] = v;
    return v;
  }

  Value eval_binary(const ExprPtr& e) {
    const bool flt = e->a()->type == Scalar::kF32;
    // Logical short-circuit is not observable without side effects; both
    // operands are pure here (loads in conditions evaluate eagerly in SIMT).
    const Value a = eval(e->a());
    const Value b = eval(e->b());
    const int out = fresh();
    if (flt) {
      switch (e->bin) {
        case BinOp::kAdd: op_r(Op::kFaddS, out, a.vreg, b.vreg); return {out, true};
        case BinOp::kSub: op_r(Op::kFsubS, out, a.vreg, b.vreg); return {out, true};
        case BinOp::kMul: op_r(Op::kFmulS, out, a.vreg, b.vreg); return {out, true};
        case BinOp::kDiv: op_r(Op::kFdivS, out, a.vreg, b.vreg); return {out, true};
        case BinOp::kMin: op_r(Op::kFminS, out, a.vreg, b.vreg); return {out, true};
        case BinOp::kMax: op_r(Op::kFmaxS, out, a.vreg, b.vreg); return {out, true};
        case BinOp::kLt: op_r(Op::kFltS, out, a.vreg, b.vreg); return {out, true};
        case BinOp::kLe: op_r(Op::kFleS, out, a.vreg, b.vreg); return {out, true};
        case BinOp::kGt: op_r(Op::kFltS, out, b.vreg, a.vreg); return {out, true};
        case BinOp::kGe: op_r(Op::kFleS, out, b.vreg, a.vreg); return {out, true};
        case BinOp::kEq: op_r(Op::kFeqS, out, a.vreg, b.vreg); return {out, true};
        case BinOp::kNe: {
          op_r(Op::kFeqS, out, a.vreg, b.vreg);
          const int inv = fresh();
          op_i(Op::kXori, inv, out, 1);
          return {inv, true};
        }
        default:
          fail("invalid float binary op");
          return {out, true};
      }
    }
    switch (e->bin) {
      case BinOp::kAdd: op_r(Op::kAdd, out, a.vreg, b.vreg); return {out, true};
      case BinOp::kSub: op_r(Op::kSub, out, a.vreg, b.vreg); return {out, true};
      case BinOp::kMul: op_r(Op::kMul, out, a.vreg, b.vreg); return {out, true};
      case BinOp::kDiv: op_r(Op::kDiv, out, a.vreg, b.vreg); return {out, true};
      case BinOp::kRem: op_r(Op::kRem, out, a.vreg, b.vreg); return {out, true};
      case BinOp::kAnd: op_r(Op::kAnd, out, a.vreg, b.vreg); return {out, true};
      case BinOp::kOr: op_r(Op::kOr, out, a.vreg, b.vreg); return {out, true};
      case BinOp::kXor: op_r(Op::kXor, out, a.vreg, b.vreg); return {out, true};
      case BinOp::kShl: op_r(Op::kSll, out, a.vreg, b.vreg); return {out, true};
      case BinOp::kShr: op_r(Op::kSra, out, a.vreg, b.vreg); return {out, true};
      case BinOp::kLt: op_r(Op::kSlt, out, a.vreg, b.vreg); return {out, true};
      case BinOp::kGt: op_r(Op::kSlt, out, b.vreg, a.vreg); return {out, true};
      case BinOp::kLe: {
        op_r(Op::kSlt, out, b.vreg, a.vreg);
        const int inv = fresh();
        op_i(Op::kXori, inv, out, 1);
        return {inv, true};
      }
      case BinOp::kGe: {
        op_r(Op::kSlt, out, a.vreg, b.vreg);
        const int inv = fresh();
        op_i(Op::kXori, inv, out, 1);
        return {inv, true};
      }
      case BinOp::kEq: {
        op_r(Op::kSub, out, a.vreg, b.vreg);
        const int z = fresh();
        op_i(Op::kSltiu, z, out, 1);
        return {z, true};
      }
      case BinOp::kNe: {
        op_r(Op::kSub, out, a.vreg, b.vreg);
        const int z = fresh();
        op_r(Op::kSltu, z, 0, out);
        return {z, true};
      }
      case BinOp::kLAnd: {
        const int na = normalize_bool(a.vreg);
        const int nb = normalize_bool(b.vreg);
        op_r(Op::kAnd, out, na, nb);
        return {out, true};
      }
      case BinOp::kLOr: {
        op_r(Op::kOr, out, a.vreg, b.vreg);
        return {normalize_bool(out), true};
      }
      case BinOp::kMin: {
        const int c = fresh();
        op_r(Op::kSlt, c, a.vreg, b.vreg);
        return {blend_int(c, a.vreg, b.vreg), true};
      }
      case BinOp::kMax: {
        const int c = fresh();
        op_r(Op::kSlt, c, b.vreg, a.vreg);
        return {blend_int(c, a.vreg, b.vreg), true};
      }
    }
    fail("unreachable binary op");
    return {out, true};
  }

  Value eval_unary(const ExprPtr& e) {
    const Value a = eval(e->a());
    const int out = fresh();
    switch (e->un) {
      case UnOp::kNeg:
        if (e->type == Scalar::kF32) {
          op_r(Op::kFsgnjnS, out, a.vreg, a.vreg);
        } else {
          op_r(Op::kSub, out, 0, a.vreg);
        }
        return {out, true};
      case UnOp::kNot:
        op_i(Op::kSltiu, out, a.vreg, 1);
        return {out, true};
      case UnOp::kAbs:
        if (e->type == Scalar::kF32) {
          op_r(Op::kFsgnjxS, out, a.vreg, a.vreg);
          return {out, true};
        } else {
          const int m = fresh();
          op_i(Op::kSrai, m, a.vreg, 31);
          const int x = fresh();
          op_r(Op::kXor, x, a.vreg, m);
          op_r(Op::kSub, out, x, m);
          return {out, true};
        }
      case UnOp::kBitcastI2F:
        op_r(Op::kFmvWX, out, a.vreg, -1);
        return {out, true};
      case UnOp::kBitcastF2I:
        op_r(Op::kFmvXW, out, a.vreg, -1);
        return {out, true};
    }
    fail("unreachable unary op");
    return {out, true};
  }

  // ---- statement lowering -------------------------------------------------

  void lower_block(const std::vector<kir::StmtPtr>& block) {
    // Each statement becomes the provenance of the code it lowers to; the
    // cursor is restored on exit so a loop's trailing step/branch code is
    // attributed to the loop statement, not to its last body statement.
    const int saved = cur_src_;
    for (const auto& s : block) {
      set_source(stmt_label(*s));
      lower_stmt(*s);
      cur_src_ = saved;
    }
  }

  // Short one-line rendering of a statement for the source map. Shared with
  // the optimization-remark layer (kir::stmt_summary) so a remark's `site`
  // string-matches the SourceMap entry of the code the statement lowered to.
  std::string stmt_label(const Stmt& s) const { return kir::stmt_summary(kernel_, s); }

  void bind_var(const std::string& name, const Value& value, Scalar type) {
    if (value.owned) {
      var_vreg_[name] = value.vreg;
      var_type_[name] = type;
      return;
    }
    // Copy shared vregs (params/specials/other vars) so later mutation of
    // the variable cannot clobber them.
    const int copy = fresh();
    if (type == Scalar::kF32) {
      mv_float(copy, value.vreg);
    } else {
      mv_int(copy, value.vreg);
    }
    var_vreg_[name] = copy;
    var_type_[name] = type;
  }

  void lower_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kLet: {
        const Value v = eval(s.a);
        bind_var(s.var, v, s.a->type);
        return;
      }
      case StmtKind::kAssign: {
        const Value v = eval(s.a);
        auto it = var_vreg_.find(s.var);
        if (it == var_vreg_.end()) {
          fail("assignment to unbound variable '" + s.var + "'");
          return;
        }
        if (s.a->type == Scalar::kF32) {
          mv_float(it->second, v.vreg);
        } else {
          mv_int(it->second, v.vreg);
        }
        return;
      }
      case StmtKind::kStore: {
        const Value value = eval(s.b);
        const int addr = eval_address(s.buffer, s.is_local, s.a);
        op_s(s.b->type == Scalar::kF32 ? Op::kFsw : Op::kSw, addr, value.vreg, 0);
        return;
      }
      case StmtKind::kIf:
        lower_if(s);
        return;
      case StmtKind::kFor:
        lower_for(s);
        return;
      case StmtKind::kWhile:
        lower_while(s);
        return;
      case StmtKind::kBarrier:
        if (!barrier_mode_) {
          fail("barrier outside work-group dispatch");
          return;
        }
        emit_barrier();
        return;
      case StmtKind::kAtomic:
        lower_atomic(s);
        return;
      case StmtKind::kPrint:
        lower_print(s);
        return;
    }
  }

  void lower_if(const Stmt& s) {
    const Value cond = eval(s.a);
    const bool uniform = options_.uniform_branch_opt && !s.divergent;
    if (uniform) {
      const int else_label = fn_.make_label();
      const int merge = fn_.make_label();
      branch(Op::kBeq, cond.vreg, 0, else_label);
      lower_block(s.body);
      jump(merge);
      fn_.label(else_label);
      lower_block(s.else_body);
      fn_.label(merge);
      return;
    }
    // Divergent: SPLIT/JOIN protocol (see arch/isa.hpp).
    const int else_label = fn_.make_label();
    const int merge = fn_.make_label();
    split(cond.vreg, else_label);
    lower_block(s.body);
    join(merge);
    fn_.label(else_label);
    lower_block(s.else_body);
    join(merge);
    fn_.label(merge);
  }

  void lower_for(const Stmt& s) {
    const Value begin = eval(s.a);
    // The induction variable is mutable: bind a fresh copy.
    bind_var(s.var, Value{begin.vreg, begin.owned}, Scalar::kI32);
    const int iv = var_vreg_.at(s.var);

    const bool uniform = options_.uniform_branch_opt && !s.divergent;
    const int loop_top = fn_.make_label();
    const int loop_exit = fn_.make_label();
    if (uniform) {
      fn_.label(loop_top);
      const Value end = eval(s.b);
      branch(Op::kBge, iv, end.vreg, loop_exit);
      lower_block(s.body);
      const Value step = eval(s.c);
      op_r(Op::kAdd, iv, iv, step.vreg);
      jump(loop_top);
      fn_.label(loop_exit);
      return;
    }
    // Divergent trip counts: PRED loop with thread-mask save/restore.
    const int saved = fresh();
    csr_read(saved, arch::kCsrTmask);
    fn_.label(loop_top);
    const Value end = eval(s.b);
    const int alive = fresh();
    op_r(Op::kSlt, alive, iv, end.vreg);
    pred(alive, loop_exit);
    lower_block(s.body);
    const Value step = eval(s.c);
    op_r(Op::kAdd, iv, iv, step.vreg);
    jump(loop_top);
    fn_.label(loop_exit);
    op_r(Op::kTmc, 0, saved, 0);
  }

  void lower_while(const Stmt& s) {
    const bool uniform = options_.uniform_branch_opt && !s.divergent;
    const int loop_top = fn_.make_label();
    const int loop_exit = fn_.make_label();
    if (uniform) {
      fn_.label(loop_top);
      const Value cond = eval(s.a);
      branch(Op::kBeq, cond.vreg, 0, loop_exit);
      lower_block(s.body);
      jump(loop_top);
      fn_.label(loop_exit);
      return;
    }
    const int saved = fresh();
    csr_read(saved, arch::kCsrTmask);
    fn_.label(loop_top);
    const Value cond = eval(s.a);
    const int alive = normalize_bool(cond.vreg);
    pred(alive, loop_exit);
    lower_block(s.body);
    jump(loop_top);
    fn_.label(loop_exit);
    op_r(Op::kTmc, 0, saved, 0);
  }

  void lower_atomic(const Stmt& s) {
    Op op = Op::kAmoaddW;
    switch (s.atomic) {
      case kir::AtomicOp::kAdd: op = Op::kAmoaddW; break;
      case kir::AtomicOp::kMin: op = Op::kAmominW; break;
      case kir::AtomicOp::kMax: op = Op::kAmomaxW; break;
      case kir::AtomicOp::kAnd: op = Op::kAmoandW; break;
      case kir::AtomicOp::kOr: op = Op::kAmoorW; break;
      case kir::AtomicOp::kXor: op = Op::kAmoxorW; break;
      case kir::AtomicOp::kExchange: op = Op::kAmoswapW; break;
      case kir::AtomicOp::kCmpxchg:
        fail("atomic_cmpxchg is not supported by the soft-GPU backend");
        return;
    }
    const Value value = eval(s.b);
    const int addr = eval_address(s.buffer, s.is_local, s.a);
    const int rd = s.result_var.empty() ? 0 : fresh();
    op_r(op, rd, addr, value.vreg);
    if (!s.result_var.empty()) {
      var_vreg_[s.result_var] = rd;
      var_type_[s.result_var] = Scalar::kI32;
    }
  }

  void lower_print(const Stmt& s) {
    size_t arg_index = 0;
    const std::string& fmt = s.text;
    auto ecall = [&](uint32_t function) {
      li(kA7, static_cast<int32_t>(function));
      push(MInstr{.op = Op::kEcall});
    };
    for (size_t p = 0; p < fmt.size(); ++p) {
      if (fmt[p] == '%' && p + 1 < fmt.size() && fmt[p + 1] != '%') {
        const char spec = fmt[++p];
        if (arg_index >= s.print_args.size()) continue;
        const Value v = eval(s.print_args[arg_index++]);
        if (spec == 'f') {
          op_r(Op::kFmvXW, kA0, v.vreg, -1);
          ecall(arch::kEcallPrintFlt);
        } else {
          mv_int(kA0, v.vreg);
          ecall(arch::kEcallPrintInt);
        }
        continue;
      }
      char ch = fmt[p];
      if (ch == '%' && p + 1 < fmt.size()) ch = fmt[++p];  // literal %%
      li(kA0, ch);
      ecall(arch::kEcallPutChar);
    }
  }

 public:
  const Status& error() const { return error_; }

 private:
  const kir::Kernel& kernel_;
  Options options_;
  bool barrier_mode_;
  MFunction fn_;
  Status error_;

  int warp_main_ = -1;
  int nbw_vreg_ = -1;
  int cur_src_ = -1;  // provenance cursor for push()
  std::unordered_map<std::string, int> source_ids_;

  std::unordered_map<int, int> param_vreg_;
  std::unordered_map<int, int> local_base_;
  std::unordered_map<std::string, int> var_vreg_;
  std::unordered_map<std::string, Scalar> var_type_;
  std::unordered_map<int, int> special_vreg_;
  std::unordered_map<int, bool> used_specials_;
  // (expr, vreg) pairs hoisted to the prologue at -O2; consulted by eval().
  std::vector<std::pair<ExprPtr, int>> uniform_cache_;
  int global_size_[3] = {-1, -1, -1};
  int local_size_[3] = {-1, -1, -1};
  int num_groups_[3] = {-1, -1, -1};
};

// ---------------------------------------------------------------------------
// Emission: machine IR + allocation -> encoded program
// ---------------------------------------------------------------------------

Result<vasm::Program> emit_program(const MFunction& fn, const Allocation& alloc,
                                   CompiledKernel& meta) {
  vasm::AsmBuilder builder;
  std::vector<vasm::AsmBuilder::Label> labels;
  labels.reserve(static_cast<size_t>(fn.num_labels));
  for (int i = 0; i < fn.num_labels; ++i) labels.push_back(builder.make_label());

  if (alloc.num_spill_slots * 4 >= 2048) {
    return Result<vasm::Program>(ErrorKind::kCompileError,
                                 "spill frame exceeds 2 KiB (too much register pressure)");
  }

  // Word-level line table: every word emitted for MInstr m (including li/la
  // expansions, far-branch pairs, and spill fills/spills around it) inherits
  // m's provenance. AsmBuilder slots are exactly one word each, so
  // instruction_count() doubles as the word index.
  std::vector<int32_t> word_src;
  const auto map_words_to = [&](int32_t src) {
    word_src.resize(builder.instruction_count(), src);
  };

  for (size_t idx = 0; idx < fn.code.size(); ++idx) {
    const MInstr& m = fn.code[idx];
    if (m.is_label()) {
      builder.bind(labels[static_cast<size_t>(m.bind_label)]);
      continue;
    }
    // Resolve registers; spilled sources load into scratch registers first.
    const int pos = static_cast<int>(idx);
    int next_int_scratch = kScratch0;
    int next_float_scratch = kScratch0;  // f29..f31
    struct Spill {
      int phys;
      int slot;
      bool flt;
    };
    std::optional<Spill> rd_spill;
    auto spill_access = [&](int slot, bool flt, bool is_def) -> int {
      const int scratch = flt ? next_float_scratch++ : next_int_scratch++;
      assert(scratch <= kScratch2 && "ran out of spill scratch registers");
      if (is_def) {
        rd_spill = Spill{scratch, slot, flt};
      } else {
        builder.emit_i(flt ? Op::kFlw : Op::kLw, static_cast<unsigned>(scratch), kSp, slot * 4);
      }
      return scratch;
    };
    auto resolve = [&](int reg, bool flt, bool is_def) -> int {
      if (reg < 0) return 0;
      if (!is_virtual(reg)) return phys_index(reg);
      const VregHome& h = alloc.home(reg);
      assert(h.kind != VregHome::Kind::kNone && "vreg accessed but never allocated");
      if (h.kind == VregHome::Kind::kRegister) return phys_index(h.phys);
      if (h.kind == VregHome::Kind::kSplit && pos < h.split_pos) {
        // Register phase. The (single) def also stores to the slot so the
        // post-split accesses see the value.
        const int phys = phys_index(h.phys);
        if (is_def) rd_spill = Spill{phys, h.slot, flt};
        return phys;
      }
      return spill_access(h.slot, flt, is_def);  // spilled whole, or split's slot phase
    };

    if (m.is_li) {
      const int rd = resolve(m.rd, false, true);
      builder.li(static_cast<unsigned>(rd), m.imm);
      if (rd_spill) builder.emit_s(Op::kSw, kSp, static_cast<unsigned>(rd_spill->phys), rd_spill->slot * 4);
      map_words_to(m.src);
      continue;
    }
    if (m.is_la) {
      const int rd = resolve(m.rd, false, true);
      builder.la(static_cast<unsigned>(rd), labels[static_cast<size_t>(m.target)]);
      if (rd_spill) builder.emit_s(Op::kSw, kSp, static_cast<unsigned>(rd_spill->phys), rd_spill->slot * 4);
      map_words_to(m.src);
      continue;
    }

    const Op op = m.op;
    const int rs1 = resolve(m.rs1, slot_rs1_float(op), false);
    const int rs2 = resolve(m.rs2, slot_rs2_float(op), false);
    const int rs3 = resolve(m.rs3, slot_rs3_float(op), false);
    const int rd = resolve(m.rd, slot_rd_float(op), true);

    const auto& info = arch::op_info(op);
    if (info.fu == arch::FuClass::kSimt) ++meta.simt_instructions;
    if (info.fu == arch::FuClass::kLsu) ++meta.mem_instructions;

    if (m.target >= 0) {
      const auto label = labels[static_cast<size_t>(m.target)];
      switch (op) {
        case Op::kJal:
          builder.emit_jal(static_cast<unsigned>(rd), label);
          break;
        case Op::kSplit:
          builder.emit_split(static_cast<unsigned>(rs1), label);
          break;
        case Op::kPred:
          builder.emit_pred(static_cast<unsigned>(rs1), label);
          break;
        case Op::kJoin:
          builder.emit_join(label);
          break;
        default:  // conditional branches
          builder.emit_branch(op, static_cast<unsigned>(rs1), static_cast<unsigned>(rs2), label);
          break;
      }
    } else {
      arch::Instr instr;
      instr.op = op;
      instr.rd = static_cast<uint8_t>(rd);
      instr.rs1 = static_cast<uint8_t>(rs1);
      instr.rs2 = static_cast<uint8_t>(rs2);
      instr.rs3 = static_cast<uint8_t>(rs3);
      instr.imm = m.imm;
      builder.emit(instr);
    }
    if (rd_spill) {
      builder.emit_s(rd_spill->flt ? Op::kFsw : Op::kSw, kSp,
                     static_cast<unsigned>(rd_spill->phys), rd_spill->slot * 4);
    }
    map_words_to(m.src);
  }
  builder.mark_symbol(".end");
  // Fetch runs ahead of issue; pad so the prefetcher beyond the final
  // instruction still sees valid (warp-retiring) encodings.
  for (int i = 0; i < 4; ++i) builder.tmc(0);
  meta.source_map.sources = fn.sources;
  meta.source_map.sources.push_back("<epilogue: fetch padding>");
  map_words_to(static_cast<int32_t>(meta.source_map.sources.size()) - 1);
  meta.source_map.word_source = std::move(word_src);
  return builder.finalize(arch::kCodeBase);
}

}  // namespace

Result<CompiledKernel> compile_kernel(const kir::Kernel& kernel, const Options& options) {
  if (auto st = kir::verify(kernel); !st.is_ok()) return st;

  const int opt = std::clamp(options.opt_level, 0, 2);
  const bool collect = options.collect_remarks;

  struct Variant {
    MFunction fn;
    Allocation alloc;
    bool barrier_mode = false;
    // Static count of stack operations the allocation will emit (stores at
    // spilled/split defs, reloads at slot-served uses). Per-lane stacks
    // never coalesce, so this dominates the runtime cost of a variant.
    int stack_refs = 0;
    CodegenReport report;  // populated only when options.collect_remarks
  };

  // Machine-IR side of the telemetry snapshots (the KIR side is
  // kir::kernel_size). Label markers are bookkeeping, not instructions.
  const auto snap_m = [](const MFunction& fn) {
    IrSnapshot s;
    int n = 0;
    for (const auto& m : fn.code) n += m.is_label() ? 0 : 1;
    s.minstrs = n;
    s.vregs = fn.next_vreg - kFirstVirtual;
    return s;
  };

  // One full pipeline configuration. `kir_level` picks the KIR passes,
  // `lower_level` gates uniform hoisting in the lowerer, `peep_level` the
  // machine-IR cleanups. Clones so pass rewrites never leak into the input;
  // level 0 is the straight-lowering oracle (builtin expansion only).
  auto build = [&](int kir_level, int lower_level, int peep_level) -> Result<Variant> {
    Variant v;
    RemarkSink local_sink;
    RemarkSink* sink = collect ? &local_sink : nullptr;
    v.report.collected = collect;

    kir::Kernel lowered = kir::clone_kernel(kernel);

    // Stage wrappers: snapshot IR size, count the remarks the body emits,
    // and time it. With collection off only the body runs — the disabled
    // pipeline is instruction-for-instruction the pre-observability one.
    const auto kir_stage = [&](const char* name, auto&& body) {
      if (!collect) {
        body();
        return;
      }
      PassTelemetry t;
      t.pass = name;
      t.before.kir_nodes = kir::kernel_size(lowered);
      const size_t r0 = local_sink.remarks.size();
      const auto t0 = std::chrono::steady_clock::now();
      body();
      t.wall_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
              .count();
      t.after.kir_nodes = kir::kernel_size(lowered);
      t.remarks = static_cast<int>(local_sink.remarks.size() - r0);
      v.report.passes.push_back(std::move(t));
    };
    const auto m_stage = [&](const char* name, auto&& body) {
      if (!collect) {
        body();
        return;
      }
      PassTelemetry t;
      t.pass = name;
      t.before = snap_m(v.fn);
      const size_t r0 = local_sink.remarks.size();
      const auto t0 = std::chrono::steady_clock::now();
      body();
      t.wall_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
              .count();
      t.after = snap_m(v.fn);
      t.remarks = static_cast<int>(local_sink.remarks.size() - r0);
      v.report.passes.push_back(std::move(t));
    };

    kir_stage("expand-builtins", [&] { kir::expand_builtins(lowered); });
    if (kir_level >= 1) kir_stage("const-fold", [&] { kir::const_fold(lowered); });
    if (kir_level >= 2) {
      if (!options.ablate.kir_licm) kir_stage("licm", [&] { kir::licm(lowered, sink); });
      if (!options.ablate.kir_strength_reduce) {
        kir_stage("strength-reduce", [&] { kir::strength_reduce(lowered, sink); });
      }
      // fold what LICM/strength reduction exposed
      kir_stage("const-fold-2", [&] { kir::const_fold(lowered); });
      if (!options.ablate.kir_dce) {
        kir_stage("dce", [&] { kir::dead_code_elim(lowered, sink); });
      }
    }
    v.barrier_mode = options.force_group_dispatch || lowered.has_barrier();
    kir::analyze_divergence(lowered, /*group_id_uniform=*/v.barrier_mode);

    Options effective = options;
    effective.opt_level = lower_level;
    Lowering lowering(lowered, effective, v.barrier_mode);
    // Lowering bridges the two IR domains: `before` is KIR nodes, `after`
    // machine instructions — handled by hand because the body can fail.
    PassTelemetry lower_t;
    std::chrono::steady_clock::time_point lower_t0;
    if (collect) {
      lower_t.pass = "lower";
      lower_t.before.kir_nodes = kir::kernel_size(lowered);
      lower_t0 = std::chrono::steady_clock::now();
    }
    auto fn = lowering.run();
    if (!fn.is_ok()) return fn.status();
    v.fn = fn.take();
    if (collect) {
      lower_t.wall_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - lower_t0)
              .count();
      lower_t.after = snap_m(v.fn);
      v.report.passes.push_back(std::move(lower_t));
    }

    if (peep_level >= 1 && !options.ablate.peephole) {
      m_stage("peephole", [&] {
        const PeepholeStats ps = peephole(v.fn, peep_level, sink);
        if (sink != nullptr) {
          // Site-level notes cover the high-signal rewrites (LVN, branch
          // fusion/collapse); the per-instruction cleanups are reported as
          // whole-function aggregates to keep the stream readable.
          if (ps.folded > 0) {
            sink->add("peephole", "applied", "peep.fold", "<function>",
                      "constants folded into immediates and I-type forms", ps.folded);
          }
          if (ps.propagated > 0) {
            sink->add("peephole", "applied", "peep.copy-prop", "<function>",
                      "register copies propagated", ps.propagated);
          }
          if (ps.removed > 0) {
            sink->add("peephole", "applied", "peep.dce", "<function>",
                      "dead machine instructions deleted", ps.removed);
          }
        }
      });
    }
    m_stage("regalloc", [&] { v.alloc = allocate_registers(v.fn, {}, sink); });

    for (size_t i = 0; i < v.fn.code.size(); ++i) {
      const MInstr& m = v.fn.code[i];
      if (m.is_label()) continue;
      const int pos = static_cast<int>(i);
      auto count = [&](int r, bool is_def) {
        if (r < kFirstVirtual) return;
        const VregHome& h = v.alloc.home(r);
        if (h.kind == VregHome::Kind::kSlot ||
            (h.kind == VregHome::Kind::kSplit && (is_def || pos >= h.split_pos))) {
          ++v.stack_refs;
        }
      };
      count(m.rd, /*is_def=*/true);
      count(m.rs1, false);
      count(m.rs2, false);
      count(m.rs3, false);
    }
    if (collect) {
      // The regalloc stage owns the pressure figures; the stack-traffic
      // census above is part of its output (the ladder keys on it).
      PassTelemetry& ra = v.report.passes.back();
      ra.after.max_pressure = v.alloc.max_pressure;
      ra.after.stack_refs = v.stack_refs;
      v.report.remarks = std::move(local_sink.remarks);
    }
    return v;
  };

  std::vector<Remark> ladder_steps;
  auto chosen = build(opt, opt, opt);
  if (!chosen.is_ok()) return chosen.status();
  if (opt >= 2 && chosen->stack_refs > 0 && !options.ablate.pressure_ladder) {
    // Pressure feedback: LICM, value numbering, and uniform hoisting all
    // lengthen live ranges, and on pressure-bound kernels the resulting
    // spill traffic costs far more than the saved arithmetic (per-lane
    // stack accesses never coalesce). When the aggressive pipeline touches
    // the stack, walk a ladder of progressively less hoist-happy
    // configurations and keep the first one that spills strictly less:
    // (1,1,2) drops LICM + uniform hoisting, (1,1,1) additionally drops
    // the cross-block machine cleanups whose compaction feeds the value
    // numberer longer windows.
    const int ladder[][3] = {{1, 1, 2}, {1, 1, 1}};
    for (const auto& cfg : ladder) {
      if (chosen->stack_refs == 0) break;
      const int before_refs = chosen->stack_refs;
      auto lower = build(cfg[0], cfg[1], cfg[2]);
      if (!lower.is_ok()) return lower.status();
      const bool adopted = lower->stack_refs < chosen->stack_refs;
      const int after_refs = lower->stack_refs;
      if (adopted) chosen = std::move(lower);
      if (collect) {
        char detail[96];
        std::snprintf(detail, sizeof(detail),
                      "re-lowered at kir=%d lower=%d peephole=%d: stack_refs %d -> %d%s",
                      cfg[0], cfg[1], cfg[2], before_refs, after_refs,
                      adopted ? "" : "; kept previous variant");
        Remark r;
        r.pass = "pressure-ladder";
        r.action = adopted ? "applied" : "missed";
        r.name = "ladder.relower";
        r.site = "<pipeline>";
        r.detail = detail;
        r.value = before_refs - after_refs;
        ladder_steps.push_back(std::move(r));
      }
    }
  }

  Variant v = chosen.take();
  CompiledKernel result;
  result.barrier_dispatch = v.barrier_mode;
  result.spill_slots = v.alloc.num_spill_slots;
  result.opt_level = opt;
  result.report = std::move(v.report);
  for (auto& r : ladder_steps) result.report.remarks.push_back(std::move(r));
  // Final stage bridges back out of the MInstr domain: `after.minstrs` is
  // the encoded word count (li/la expansions, spill traffic, far branches,
  // fetch padding), which must equal CompiledKernel::instruction_count.
  PassTelemetry emit_t;
  std::chrono::steady_clock::time_point emit_t0;
  if (collect) {
    emit_t.pass = "emit";
    emit_t.before = snap_m(v.fn);
    emit_t.before.max_pressure = v.alloc.max_pressure;
    emit_t.before.stack_refs = v.stack_refs;
    emit_t0 = std::chrono::steady_clock::now();
  }
  auto program = emit_program(v.fn, v.alloc, result);
  if (!program.is_ok()) return program.status();
  result.program = program.take();
  result.instruction_count = result.program.words.size();
  if (collect) {
    emit_t.wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - emit_t0)
            .count();
    emit_t.after.minstrs = static_cast<int>(result.program.words.size());
    result.report.passes.push_back(std::move(emit_t));
  }
  return result;
}

}  // namespace fgpu::codegen
