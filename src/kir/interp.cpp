#include "kir/interp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <unordered_map>

#include "arch/semantics.hpp"
#include "common/bits.hpp"

namespace fgpu::kir {
namespace {

namespace sem = arch::sem;

// Wraps a scalar function in a lambda of its own type, so every map1/map2
// instantiation inlines its function instead of calling through a pointer
// shared by all functions of one signature.
template <auto Fn>
constexpr auto lift = [](auto... v) { return Fn(v...); };

float powi_f32(float base, int32_t n) {
  const bool invert = n < 0;
  uint32_t m = invert ? 0u - static_cast<uint32_t>(n) : static_cast<uint32_t>(n);
  float result = 1.0f;
  while (m > 0) {
    if (m & 1) result *= base;
    base *= base;
    m >>= 1;
  }
  return invert ? 1.0f / result : result;
}

constexpr uint32_t kNone = ~0u;

// An ascending list of active lanes. `idx == nullptr` is the dense set
// 0..n-1, which only the full group uses; its loops carry no indirection so
// the compiler can vectorise them.
struct Lanes {
  const uint32_t* idx = nullptr;
  uint32_t n = 0;

  uint32_t at(uint32_t k) const { return idx == nullptr ? k : idx[k]; }
};

template <typename F>
inline void each(Lanes l, F&& f) {
  if (l.idx == nullptr) {
    for (uint32_t i = 0; i < l.n; ++i) f(i);
  } else {
    for (uint32_t k = 0; k < l.n; ++k) f(l.idx[k]);
  }
}

template <typename F>
inline void map1(Lanes l, uint32_t* out, const uint32_t* x, F&& f) {
  each(l, [&](uint32_t i) { out[i] = f(x[i]); });
}

template <typename F>
inline void map2(Lanes l, uint32_t* out, const uint32_t* x, const uint32_t* y, F&& f) {
  each(l, [&](uint32_t i) { out[i] = f(x[i], y[i]); });
}

template <typename F>
inline void map2i(Lanes l, uint32_t* out, const uint32_t* x, const uint32_t* y, F&& f) {
  each(l, [&](uint32_t i) {
    out[i] = static_cast<uint32_t>(f(static_cast<int32_t>(x[i]), static_cast<int32_t>(y[i])));
  });
}

template <typename F>
inline void map2f(Lanes l, uint32_t* out, const uint32_t* x, const uint32_t* y, F&& f) {
  each(l, [&](uint32_t i) { out[i] = f(u2f(x[i]), u2f(y[i])); });
}

// Position in `l` of the first lane whose element index is outside
// [0, size), or l.n when every lane is in bounds.
uint32_t in_bounds_prefix(Lanes l, const uint32_t* index, size_t size) {
  uint32_t worst = 0;
  each(l, [&](uint32_t i) { worst = std::max(worst, index[i]); });
  if (worst < size) return l.n;
  uint32_t k = 0;
  while (index[l.at(k)] < size) ++k;
  return k;
}

// Plan operators: ExprKind with the type and operator resolved, so the
// evaluator switches once per node visit instead of once per lane.
enum class Op : uint8_t {
  kConst,        // value fixed for the run: result filled when the plan is built
  kVar,          // result is the variable's slot, read in place
  kLocalId,      // result is the local-id vector, read in place
  kGlobalId,
  kGroupId,
  kBufferParam,  // scalar read of a buffer param: fails when evaluated
  kLAnd, kLOr, kSelect,  // lazy: evaluate an operand on a subset of lanes
  kLoad,
  // Integer binary.
  kAdd, kSub, kMul, kDiv, kRem, kAnd, kOr, kXor, kShl, kShr, kMin, kMax,
  kLt, kLe, kGt, kGe, kEq, kNe,
  // Float binary.
  kFAdd, kFSub, kFMul, kFDiv, kFMin, kFMax, kFLt, kFLe, kFGt, kFGe, kFEq, kFNe,
  kFInvalid,  // integer-only operator on floats: fails after its operands
  // Unary, casts and math built-ins.
  kNeg, kFNeg, kNot, kAbs, kFAbs, kBitcast, kI2F, kF2I,
  kSqrt, kRsqrt, kExp, kLog, kFloor, kPowi,
};

Op int_op(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return Op::kAdd;
    case BinOp::kSub: return Op::kSub;
    case BinOp::kMul: return Op::kMul;
    case BinOp::kDiv: return Op::kDiv;
    case BinOp::kRem: return Op::kRem;
    case BinOp::kAnd: return Op::kAnd;
    case BinOp::kOr: return Op::kOr;
    case BinOp::kXor: return Op::kXor;
    case BinOp::kShl: return Op::kShl;
    case BinOp::kShr: return Op::kShr;
    case BinOp::kMin: return Op::kMin;
    case BinOp::kMax: return Op::kMax;
    case BinOp::kLt: return Op::kLt;
    case BinOp::kLe: return Op::kLe;
    case BinOp::kGt: return Op::kGt;
    case BinOp::kGe: return Op::kGe;
    case BinOp::kEq: return Op::kEq;
    case BinOp::kNe: return Op::kNe;
    case BinOp::kLAnd: return Op::kLAnd;
    case BinOp::kLOr: return Op::kLOr;
  }
  return Op::kFInvalid;
}

Op float_op(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return Op::kFAdd;
    case BinOp::kSub: return Op::kFSub;
    case BinOp::kMul: return Op::kFMul;
    case BinOp::kDiv: return Op::kFDiv;
    case BinOp::kMin: return Op::kFMin;
    case BinOp::kMax: return Op::kFMax;
    case BinOp::kLt: return Op::kFLt;
    case BinOp::kLe: return Op::kFLe;
    case BinOp::kGt: return Op::kFGt;
    case BinOp::kGe: return Op::kFGe;
    case BinOp::kEq: return Op::kFEq;
    case BinOp::kNe: return Op::kFNe;
    default: return Op::kFInvalid;
  }
}

Op call_op(Builtin call) {
  switch (call) {
    case Builtin::kSqrt: return Op::kSqrt;
    case Builtin::kRsqrt: return Op::kRsqrt;
    case Builtin::kExp: return Op::kExp;
    case Builtin::kLog: return Op::kLog;
    case Builtin::kFloor: return Op::kFloor;
    case Builtin::kPowi: return Op::kPowi;
  }
  return Op::kSqrt;
}

struct PExpr {
  Op op = Op::kConst;
  uint8_t dim = 0;                            // work-item functions
  uint32_t a = kNone, b = kNone, c = kNone;   // operand nodes
  uint32_t out = 0;   // result offset: fixed region for kConst, else scratch
  uint32_t aux = 0;   // kConst: value | kVar: slot | kLoad: target |
                      // kLAnd/kLOr/kSelect: scratch offset of the lane list(s)
  uint32_t site = 0;  // kLoad: site index
  const Expr* src = nullptr;
};

struct Range {
  uint32_t begin = 0, end = 0;
};

struct PStmt {
  StmtKind kind = StmtKind::kBarrier;
  const Stmt* src = nullptr;
  uint32_t a = kNone, b = kNone, c = kNone;  // operand roots, as in Stmt
  uint32_t var = kNone;     // kLet/kAssign/kFor target, kAtomic result slot
  uint32_t target = kNone;  // kStore/kAtomic
  uint32_t site = kNone;    // kStore/kAtomic
  bool sequential = false;  // kStore whose operands may read the stored buffer
  uint32_t lanes = 0;       // kIf/kFor/kWhile: fixed offset of the lane list(s)
  Range body, else_body;    // into Plan::lists; kPrint: body holds the arguments
};

// A buffer a load or store names, resolved against the run's arguments.
struct Target {
  std::vector<uint32_t>* data = nullptr;  // null: every access fails with `error`
  std::string error;
  std::string oob_prefix;  // "out-of-bounds access: <name>"
};

// The kernel compiled for one run: variables resolved to dense slots,
// stores' alias checks decided, every load and store site numbered, and
// every node given a buffer of `items` words. Constants (one buffer per
// value, filled once) and the lane lists of control statements, which live
// across their bodies, take the fixed region. A statement consumes its
// expressions' results before the next statement runs, so expression
// buffers come from a scratch region that every statement reuses.
struct Plan {
  std::vector<PExpr> exprs;
  std::vector<PStmt> stmts;
  std::vector<uint32_t> lists;  // statement blocks and print arguments
  Range body;
  std::vector<Target> targets;
  uint32_t var_slots = 0;
  uint32_t fixed_words = 0;
  uint32_t scratch_words = 0;
};

class PlanBuilder {
 public:
  PlanBuilder(const Kernel& kernel, const std::vector<KernelArg>& args, const NDRange& ndrange,
              std::vector<std::vector<uint32_t>>& locals, std::vector<SiteCount>& sites, Plan& plan)
      : kernel_(kernel), args_(args), ndrange_(ndrange), locals_(locals), sites_(sites),
        plan_(plan), items_(ndrange.local_items()) {}

  Status build() {
    plan_.body = block(kernel_.body);
    plan_.var_slots = static_cast<uint32_t>(slots_.size());
    return error_;
  }

 private:
  uint32_t fixed(uint32_t buffers) {
    const uint32_t offset = plan_.fixed_words;
    plan_.fixed_words += buffers * items_;
    return offset;
  }
  uint32_t scratch(uint32_t buffers) {
    const uint32_t offset = scratch_top_;
    scratch_top_ += buffers * items_;
    plan_.scratch_words = std::max(plan_.scratch_words, scratch_top_);
    return offset;
  }

  // One fixed buffer per distinct constant value.
  uint32_t constant(uint32_t value) {
    auto it = constants_.find(value);
    if (it == constants_.end()) it = constants_.emplace(value, fixed(1)).first;
    return it->second;
  }

  uint32_t slot(const std::string& name) {
    return slots_.try_emplace(name, static_cast<uint32_t>(slots_.size())).first->second;
  }

  uint32_t site(const void* node, bool is_store) {
    auto [it, inserted] = site_index_.try_emplace(node, static_cast<uint32_t>(sites_.size()));
    if (inserted) sites_.push_back(SiteCount{node, is_store, 0});
    return it->second;
  }

  uint32_t target(int index, bool is_local) {
    auto [it, inserted] =
        target_index_.try_emplace({index, is_local}, static_cast<uint32_t>(plan_.targets.size()));
    if (!inserted) return it->second;
    Target t;
    if (is_local) {
      if (index < 0 || static_cast<size_t>(index) >= locals_.size()) {
        t.error = "bad local array slot " + std::to_string(index);
      } else {
        t.data = &locals_[static_cast<size_t>(index)];
        t.oob_prefix = "out-of-bounds __local access: " + kernel_.locals[index].name;
      }
    } else if (index < 0 || static_cast<size_t>(index) >= args_.size()) {
      t.error = "bad buffer param " + std::to_string(index);
    } else if (const KernelArg& arg = args_[static_cast<size_t>(index)];
               !arg.is_buffer || arg.data == nullptr) {
      t.error = "param " + std::to_string(index) + " is not a buffer";
    } else {
      t.data = arg.data;
      t.oob_prefix = "out-of-bounds access: " + kernel_.params[index].name;
    }
    plan_.targets.push_back(std::move(t));
    return it->second;
  }

  void reject(const std::string& message) {
    if (error_.is_ok()) error_ = Status(ErrorKind::kInvalidArgument, kernel_.name + ": " + message);
  }

  uint32_t leaf(Op op, const Expr* src, uint32_t value = 0) {
    PExpr p;
    p.op = op;
    p.src = src;
    p.aux = value;
    p.out = op == Op::kConst ? constant(value) : scratch(1);
    plan_.exprs.push_back(p);
    return static_cast<uint32_t>(plan_.exprs.size() - 1);
  }

  uint32_t expr(const ExprPtr& e) {
    PExpr p;
    p.src = e.get();
    switch (e->kind) {
      case ExprKind::kConstInt:
        return leaf(Op::kConst, e.get(), static_cast<uint32_t>(e->ival));
      case ExprKind::kConstFloat:
        return leaf(Op::kConst, e.get(), f2u(e->fval));
      case ExprKind::kVar:
        p.op = Op::kVar;
        p.aux = slot(e->var);
        break;
      case ExprKind::kParam: {
        if (e->index < 0 || static_cast<size_t>(e->index) >= args_.size()) {
          reject("param index " + std::to_string(e->index) + " out of range (" +
                 std::to_string(args_.size()) + " params)");
          return leaf(Op::kConst, e.get());
        }
        const KernelArg& arg = args_[static_cast<size_t>(e->index)];
        return arg.is_buffer ? leaf(Op::kBufferParam, e.get())
                             : leaf(Op::kConst, e.get(), arg.scalar_bits);
      }
      case ExprKind::kSpecial: {
        if (e->index < 0 || e->index > 2) {
          reject("work-item dimension " + std::to_string(e->index) + " out of range");
          return leaf(Op::kConst, e.get());
        }
        const int d = e->index;
        switch (e->special) {
          case SpecialReg::kGlobalId: p.op = Op::kGlobalId; break;
          case SpecialReg::kLocalId: p.op = Op::kLocalId; break;
          case SpecialReg::kGroupId: p.op = Op::kGroupId; break;
          case SpecialReg::kGlobalSize: return leaf(Op::kConst, e.get(), ndrange_.global[d]);
          case SpecialReg::kLocalSize: return leaf(Op::kConst, e.get(), ndrange_.local[d]);
          case SpecialReg::kNumGroups: return leaf(Op::kConst, e.get(), ndrange_.num_groups(d));
        }
        p.dim = static_cast<uint8_t>(d);
        break;
      }
      case ExprKind::kBinary:
        p.op = e->a()->type == Scalar::kF32 && e->bin != BinOp::kLAnd && e->bin != BinOp::kLOr
                   ? float_op(e->bin)
                   : int_op(e->bin);
        p.a = expr(e->a());
        p.b = expr(e->b());
        if (p.op == Op::kLAnd || p.op == Op::kLOr) p.aux = scratch(1);
        break;
      case ExprKind::kUnary:
        switch (e->un) {
          case UnOp::kNeg: p.op = e->type == Scalar::kF32 ? Op::kFNeg : Op::kNeg; break;
          case UnOp::kNot: p.op = Op::kNot; break;
          case UnOp::kAbs: p.op = e->type == Scalar::kF32 ? Op::kFAbs : Op::kAbs; break;
          case UnOp::kBitcastI2F:
          case UnOp::kBitcastF2I: p.op = Op::kBitcast; break;
        }
        p.a = expr(e->a());
        break;
      case ExprKind::kSelect:
        p.op = Op::kSelect;
        p.a = expr(e->a());
        p.b = expr(e->b());
        p.c = expr(e->c());
        p.aux = scratch(2);
        break;
      case ExprKind::kCast:
        p.op = e->type == Scalar::kF32 ? Op::kI2F : Op::kF2I;
        p.a = expr(e->a());
        break;
      case ExprKind::kLoad:
        p.op = Op::kLoad;
        p.a = expr(e->a());
        p.aux = target(e->index, e->is_local);
        p.site = site(e.get(), false);
        break;
      case ExprKind::kCall:
        p.op = call_op(e->call);
        p.a = expr(e->args[0]);
        if (e->call == Builtin::kPowi) p.b = expr(e->args[1]);
        break;
    }
    if (p.op != Op::kVar && p.op != Op::kLocalId) p.out = scratch(1);
    plan_.exprs.push_back(p);
    return static_cast<uint32_t>(plan_.exprs.size() - 1);
  }

  // True when a load under `node` may read the storage of `dst` (including
  // two buffer params bound to the same host vector); an unresolved buffer
  // on either side counts as a possible alias.
  bool may_read(uint32_t node, const Target& dst) const {
    if (node == kNone) return false;
    const PExpr& p = plan_.exprs[node];
    if (p.op == Op::kLoad) {
      const Target& src = plan_.targets[p.aux];
      if (dst.data == nullptr || src.data == nullptr || src.data == dst.data) return true;
    }
    return may_read(p.a, dst) || may_read(p.b, dst) || may_read(p.c, dst);
  }

  // Appends `ids` to Plan::lists. Callers build every id first, since
  // building a nested statement appends its own lists.
  Range list(const std::vector<uint32_t>& ids) {
    const auto begin = static_cast<uint32_t>(plan_.lists.size());
    plan_.lists.insert(plan_.lists.end(), ids.begin(), ids.end());
    return Range{begin, static_cast<uint32_t>(plan_.lists.size())};
  }

  Range block(const std::vector<StmtPtr>& stmts) {
    std::vector<uint32_t> ids;
    for (const auto& s : stmts) ids.push_back(stmt(*s));
    return list(ids);
  }

  uint32_t stmt(const Stmt& s) {
    scratch_top_ = 0;
    PStmt p;
    p.kind = s.kind;
    p.src = &s;
    switch (s.kind) {
      case StmtKind::kLet:
      case StmtKind::kAssign:
        p.var = slot(s.var);
        p.a = expr(s.a);
        break;
      case StmtKind::kStore:
        p.a = expr(s.a);
        p.b = expr(s.b);
        p.target = target(s.buffer, s.is_local);
        p.site = site(&s, true);
        p.sequential = may_read(p.a, plan_.targets[p.target]) ||
                       may_read(p.b, plan_.targets[p.target]);
        break;
      case StmtKind::kIf:
        p.a = expr(s.a);
        p.lanes = fixed(2);
        p.body = block(s.body);
        p.else_body = block(s.else_body);
        break;
      case StmtKind::kFor:
        p.var = slot(s.var);
        p.a = expr(s.a);
        p.b = expr(s.b);
        p.c = expr(s.c);
        p.lanes = fixed(1);
        p.body = block(s.body);
        break;
      case StmtKind::kWhile:
        p.a = expr(s.a);
        p.lanes = fixed(1);
        p.body = block(s.body);
        break;
      case StmtKind::kBarrier:
        break;
      case StmtKind::kAtomic:
        if (!s.result_var.empty()) p.var = slot(s.result_var);
        p.a = expr(s.a);
        p.b = expr(s.b);
        if (s.atomic == AtomicOp::kCmpxchg) p.c = expr(s.c);
        p.target = target(s.buffer, s.is_local);
        p.site = site(&s, true);
        break;
      case StmtKind::kPrint: {
        std::vector<uint32_t> args;
        for (const auto& arg : s.print_args) args.push_back(expr(arg));
        p.body = list(args);
        break;
      }
    }
    plan_.stmts.push_back(p);
    return static_cast<uint32_t>(plan_.stmts.size() - 1);
  }

  const Kernel& kernel_;
  const std::vector<KernelArg>& args_;
  const NDRange& ndrange_;
  std::vector<std::vector<uint32_t>>& locals_;
  std::vector<SiteCount>& sites_;
  Plan& plan_;
  const uint32_t items_;
  std::unordered_map<std::string, uint32_t> slots_;
  std::unordered_map<uint32_t, uint32_t> constants_;  // value -> fixed offset
  uint32_t scratch_top_ = 0;
  std::unordered_map<const void*, uint32_t> site_index_;
  std::map<std::pair<int, bool>, uint32_t> target_index_;
  Status error_;
};

// Executes the plan one work-group at a time in SIMT lockstep. Every node
// visit takes the ascending list of its active lanes and costs O(active
// lanes): sub-lists for if/select/&&/||/loops are split from the parent's
// list, and `eval` returns a pointer to the node's result (variables and
// local ids are read in place), so nothing is copied or masked per lane.
// Observable behaviour is that of a per-item walk:
//   * the op count advances by the active-lane count at every node visit,
//     including lanes skipped by && / || short-circuit and by select;
//   * each load/store site's count advances by the lanes that accessed it;
//   * atomics, printf, and stores whose operands may read the stored buffer
//     run item-sequentially (single-lane lists) to preserve item-order
//     read-modify-write semantics.
// A failing eval/exec returns nullptr/false with the error in `error_`.
class GroupExec {
 public:
  GroupExec(const Plan& plan, const Kernel& kernel, const NDRange& ndrange,
            const InterpOptions& options, std::vector<std::vector<uint32_t>>& locals,
            std::vector<SiteCount>& sites)
      : plan_(plan), kernel_(kernel), ndrange_(ndrange), options_(options), locals_(locals),
        sites_(sites), items_(ndrange.local_items()), fixed_(plan.fixed_words),
        scratch_(plan.scratch_words), vars_(static_cast<size_t>(plan.var_slots) * items_),
        defined_(plan.var_slots, 0) {
    for (const PExpr& p : plan.exprs) {
      if (p.op == Op::kConst) std::fill_n(&fixed_[p.out], items_, p.aux);
    }
    for (int d = 0; d < 3; ++d) lid_[d].resize(items_);
    for (uint32_t i = 0; i < items_; ++i) {
      lid_[0][i] = i % ndrange.local[0];
      lid_[1][i] = (i / ndrange.local[0]) % ndrange.local[1];
      lid_[2][i] = i / (ndrange.local[0] * ndrange.local[1]);
    }
  }

  Status run_group(uint32_t gx, uint32_t gy, uint32_t gz) {
    group_[0] = gx;
    group_[1] = gy;
    group_[2] = gz;
    std::fill(defined_.begin(), defined_.end(), 0);
    for (auto& array : locals_) std::fill(array.begin(), array.end(), 0u);
    return run_block(plan_.body, Lanes{nullptr, items_}) ? Status::ok() : error_;
  }

  uint64_t ops() const { return ops_; }

 private:
  const uint32_t* eval(uint32_t node, Lanes l);
  const uint32_t* eval_load(const PExpr& e, Lanes l, uint32_t* out);
  bool exec(const PStmt& s, Lanes l);
  bool exec_store(const PStmt& s, Lanes l);
  bool exec_atomic(const PStmt& s, Lanes l);
  bool exec_print(const PStmt& s, Lanes l);
  bool run_block(Range block, Lanes l) {
    for (uint32_t k = block.begin; k < block.end; ++k) {
      if (!exec(plan_.stmts[plan_.lists[k]], l)) return false;
    }
    return true;
  }

  // A lane list of n entries at `list`; the full group becomes dense.
  Lanes lanes(const uint32_t* list, uint32_t n) const {
    return Lanes{n == items_ ? nullptr : list, n};
  }
  uint32_t* fixed(uint32_t offset) { return fixed_.data() + offset; }
  uint32_t* scratch(uint32_t offset) { return scratch_.data() + offset; }

  // The variable's per-lane storage; a variable first defined in this
  // group starts zero-filled.
  uint32_t* define(uint32_t slot) {
    uint32_t* v = var(slot);
    if (!defined_[slot]) {
      std::fill_n(v, items_, 0u);
      defined_[slot] = 1;
    }
    return v;
  }
  uint32_t* var(uint32_t slot) { return vars_.data() + static_cast<size_t>(slot) * items_; }

  // Records the error; the result converts to the failure value of both
  // eval (nullptr) and exec (false).
  struct Failure {
    operator const uint32_t*() const { return nullptr; }
    operator bool() const { return false; }
  };
  Failure fail(const std::string& message) {
    error_ = Status(ErrorKind::kRuntimeError, kernel_.name + ": " + message);
    return {};
  }
  Failure fail_oob(const Target& t, uint32_t elem) {
    return fail(t.oob_prefix + "[" + std::to_string(elem) + "] size " +
                std::to_string(t.data->size()));
  }
  bool count_statement() {
    if (++statements_executed_ <= options_.max_statements) return true;
    return fail("statement budget exceeded (runaway kernel?)");
  }

  const Plan& plan_;
  const Kernel& kernel_;
  const NDRange& ndrange_;
  const InterpOptions& options_;
  std::vector<std::vector<uint32_t>>& locals_;
  std::vector<SiteCount>& sites_;
  const uint32_t items_;
  std::vector<uint32_t> fixed_;    // constants, control statements' lane lists
  std::vector<uint32_t> scratch_;  // expression results and lane lists
  std::vector<uint32_t> vars_;     // variable slots
  std::vector<uint8_t> defined_;  // per variable slot, reset per group
  std::vector<uint32_t> lid_[3];
  uint32_t group_[3] = {0, 0, 0};
  uint64_t statements_executed_ = 0;
  uint64_t ops_ = 0;
  Status error_;
};

const uint32_t* GroupExec::eval(uint32_t node, Lanes l) {
  const PExpr& e = plan_.exprs[node];
  ops_ += l.n;
  if (e.op == Op::kConst) return fixed(e.out);
  uint32_t* out = scratch(e.out);
  switch (e.op) {
    case Op::kVar:
      if (!defined_[e.aux]) return fail("use of undefined variable '" + e.src->var + "'");
      return var(e.aux);
    case Op::kLocalId:
      return lid_[e.dim].data();
    case Op::kGlobalId: {
      const uint32_t base = group_[e.dim] * ndrange_.local[e.dim];
      const uint32_t* lid = lid_[e.dim].data();
      each(l, [&](uint32_t i) { out[i] = base + lid[i]; });
      return out;
    }
    case Op::kGroupId: {
      const uint32_t g = group_[e.dim];
      each(l, [&](uint32_t i) { out[i] = g; });
      return out;
    }
    case Op::kBufferParam:
      return fail("scalar read of buffer param");
    case Op::kLAnd:
    case Op::kLOr: {
      // C short-circuit: the second operand evaluates only for lanes the
      // first did not decide.
      const uint32_t* x = eval(e.a, l);
      if (x == nullptr) return nullptr;
      const bool is_and = e.op == Op::kLAnd;
      uint32_t* rest = scratch(e.aux);
      uint32_t n = 0;
      each(l, [&](uint32_t i) {
        if (is_and ? x[i] == 0 : x[i] != 0) {
          out[i] = is_and ? 0u : 1u;
        } else {
          rest[n++] = i;
        }
      });
      if (n > 0) {
        const Lanes rl = lanes(rest, n);
        const uint32_t* y = eval(e.b, rl);
        if (y == nullptr) return nullptr;
        map1(rl, out, y, [](uint32_t v) { return v != 0 ? 1u : 0u; });
      }
      return out;
    }
    case Op::kSelect: {
      // Each lane evaluates only its taken arm. Callers read only the lanes
      // they passed, so when every lane takes one arm its result is ours.
      const uint32_t* cond = eval(e.a, l);
      if (cond == nullptr) return nullptr;
      uint32_t* taken = scratch(e.aux);
      uint32_t* other = taken + items_;
      uint32_t nb = 0, nc = 0;
      each(l, [&](uint32_t i) {
        if (cond[i] != 0) {
          taken[nb++] = i;
        } else {
          other[nc++] = i;
        }
      });
      const uint32_t* vb = nullptr;
      if (nb > 0 && (vb = eval(e.b, lanes(taken, nb))) == nullptr) return nullptr;
      if (nc == 0) return vb;
      const uint32_t* vc = eval(e.c, lanes(other, nc));
      if (vc == nullptr || nb == 0) return vc;
      map1(lanes(taken, nb), out, vb, [](uint32_t v) { return v; });
      map1(lanes(other, nc), out, vc, [](uint32_t v) { return v; });
      return out;
    }
    case Op::kLoad:
      return eval_load(e, l, out);
    default:
      break;
  }

  // The remaining operators are lane-wise functions of their operands.
  const uint32_t* x = eval(e.a, l);
  if (x == nullptr) return nullptr;
  const uint32_t* y = nullptr;
  if (e.b != kNone && (y = eval(e.b, l)) == nullptr) return nullptr;
  switch (e.op) {
    case Op::kAdd: map2(l, out, x, y, lift<sem::add>); break;
    case Op::kSub: map2(l, out, x, y, lift<sem::sub>); break;
    case Op::kMul: map2(l, out, x, y, lift<sem::mul>); break;
    case Op::kDiv: map2(l, out, x, y, lift<sem::div>); break;
    case Op::kRem: map2(l, out, x, y, lift<sem::rem>); break;
    case Op::kAnd: map2(l, out, x, y, lift<sem::and_>); break;
    case Op::kOr: map2(l, out, x, y, lift<sem::or_>); break;
    case Op::kXor: map2(l, out, x, y, lift<sem::xor_>); break;
    case Op::kShl: map2(l, out, x, y, lift<sem::sll>); break;
    case Op::kShr: map2(l, out, x, y, lift<sem::sra>); break;
    case Op::kMin: map2(l, out, x, y, lift<sem::min>); break;
    case Op::kMax: map2(l, out, x, y, lift<sem::max>); break;
    case Op::kLt: map2(l, out, x, y, lift<sem::slt>); break;
    case Op::kLe: map2i(l, out, x, y, [](int32_t a, int32_t b) { return a <= b; }); break;
    case Op::kGt: map2(l, out, x, y, [](uint32_t a, uint32_t b) { return sem::slt(b, a); }); break;
    case Op::kGe: map2i(l, out, x, y, [](int32_t a, int32_t b) { return a >= b; }); break;
    case Op::kEq: map2i(l, out, x, y, [](int32_t a, int32_t b) { return a == b; }); break;
    case Op::kNe: map2i(l, out, x, y, [](int32_t a, int32_t b) { return a != b; }); break;
    case Op::kFAdd: map2(l, out, x, y, lift<sem::fadd>); break;
    case Op::kFSub: map2(l, out, x, y, lift<sem::fsub>); break;
    case Op::kFMul: map2(l, out, x, y, lift<sem::fmul>); break;
    case Op::kFDiv: map2(l, out, x, y, lift<sem::fdiv>); break;
    case Op::kFMin: map2(l, out, x, y, lift<sem::fmin>); break;
    case Op::kFMax: map2(l, out, x, y, lift<sem::fmax>); break;
    case Op::kFLt: map2(l, out, x, y, lift<sem::flt>); break;
    case Op::kFLe: map2(l, out, x, y, lift<sem::fle>); break;
    case Op::kFGt: map2(l, out, x, y, [](uint32_t a, uint32_t b) { return sem::flt(b, a); }); break;
    case Op::kFGe: map2(l, out, x, y, [](uint32_t a, uint32_t b) { return sem::fle(b, a); }); break;
    case Op::kFEq: map2(l, out, x, y, lift<sem::feq>); break;
    case Op::kFNe: map2f(l, out, x, y, [](float a, float b) -> uint32_t { return a != b; }); break;
    case Op::kFInvalid:
      return fail("invalid float binary op");
    case Op::kNeg: map1(l, out, x, [](uint32_t a) { return sem::sub(0, a); }); break;
    case Op::kFNeg: map1(l, out, x, [](uint32_t a) { return sem::fsgnjn(a, a); }); break;
    case Op::kNot: map1(l, out, x, [](uint32_t a) { return a == 0 ? 1u : 0u; }); break;
    case Op::kAbs:
      map1(l, out, x, [](uint32_t a) { return static_cast<int32_t>(a) < 0 ? 0u - a : a; });
      break;
    case Op::kFAbs: map1(l, out, x, [](uint32_t a) { return sem::fsgnjx(a, a); }); break;
    case Op::kBitcast: map1(l, out, x, [](uint32_t a) { return a; }); break;
    case Op::kI2F: map1(l, out, x, lift<sem::fcvt_s_w>); break;
    case Op::kF2I: map1(l, out, x, lift<sem::fcvt_w_s>); break;
    case Op::kSqrt: map1(l, out, x, lift<sem::fsqrt>); break;
    case Op::kRsqrt:
      map1(l, out, x, [](uint32_t a) { return f2u(1.0f / std::sqrt(u2f(a))); });
      break;
    case Op::kExp: map1(l, out, x, [](uint32_t a) { return f2u(std::exp(u2f(a))); }); break;
    case Op::kLog: map1(l, out, x, [](uint32_t a) { return f2u(std::log(u2f(a))); }); break;
    case Op::kFloor: map1(l, out, x, [](uint32_t a) { return f2u(std::floor(u2f(a))); }); break;
    case Op::kPowi:
      map2(l, out, x, y, [](uint32_t a, uint32_t b) {
        return f2u(powi_f32(u2f(a), static_cast<int32_t>(b)));
      });
      break;
    default:
      return fail("unreachable expression kind");
  }
  return out;
}

const uint32_t* GroupExec::eval_load(const PExpr& e, Lanes l, uint32_t* out) {
  const uint32_t* index = eval(e.a, l);
  if (index == nullptr) return nullptr;
  const Target& t = plan_.targets[e.aux];
  if (t.data == nullptr) return fail(t.error);
  const uint32_t k = in_bounds_prefix(l, index, t.data->size());
  const Lanes ok{l.idx, k};
  const uint32_t* src = t.data->data();
  each(ok, [&](uint32_t i) { out[i] = src[index[i]]; });
  if (options_.on_load_addr) {
    each(ok, [&](uint32_t i) {
      options_.on_load_addr(e.src, e.src->index, e.src->is_local, index[i]);
    });
  }
  sites_[e.site].count += k;
  if (k < l.n) return fail_oob(t, index[l.at(k)]);
  return out;
}

bool GroupExec::exec_store(const PStmt& s, Lanes l) {
  const Target& t = plan_.targets[s.target];
  auto store = [&](Lanes sl) -> bool {
    const uint32_t* index = eval(s.a, sl);
    if (index == nullptr) return false;
    const uint32_t* value = eval(s.b, sl);
    if (value == nullptr) return false;
    if (t.data == nullptr) return fail(t.error);
    const uint32_t k = in_bounds_prefix(sl, index, t.data->size());
    uint32_t* dst = t.data->data();
    each(Lanes{sl.idx, k}, [&](uint32_t i) { dst[index[i]] = value[i]; });
    sites_[s.site].count += k;
    if (k < sl.n) return fail_oob(t, index[sl.at(k)]);
    return true;
  };
  if (!s.sequential) return store(l);
  // The operands may read the stored buffer: later items must observe
  // earlier items' writes, as in item-major execution.
  for (uint32_t k = 0; k < l.n; ++k) {
    const uint32_t i = l.at(k);
    if (!store(Lanes{&i, 1})) return false;
  }
  return true;
}

// Item-sequential so each item's read-modify-write observes every earlier
// item's update (tests assert ticket ordering).
bool GroupExec::exec_atomic(const PStmt& s, Lanes l) {
  const Target& t = plan_.targets[s.target];
  uint32_t* result = s.var == kNone ? nullptr : define(s.var);
  for (uint32_t k = 0; k < l.n; ++k) {
    const uint32_t i = l.at(k);
    const Lanes one{&i, 1};
    const uint32_t* index = eval(s.a, one);
    if (index == nullptr) return false;
    const uint32_t* value = eval(s.b, one);
    if (value == nullptr) return false;
    if (t.data == nullptr) return fail(t.error);
    const uint32_t elem = index[i];
    if (elem >= t.data->size()) return fail_oob(t, elem);
    ++sites_[s.site].count;
    const uint32_t old = (*t.data)[elem];
    const uint32_t operand = value[i];
    uint32_t next = old;
    switch (s.src->atomic) {
      case AtomicOp::kAdd: next = old + operand; break;
      case AtomicOp::kMin:
        next = static_cast<uint32_t>(
            std::min(static_cast<int32_t>(old), static_cast<int32_t>(operand)));
        break;
      case AtomicOp::kMax:
        next = static_cast<uint32_t>(
            std::max(static_cast<int32_t>(old), static_cast<int32_t>(operand)));
        break;
      case AtomicOp::kAnd: next = old & operand; break;
      case AtomicOp::kOr: next = old | operand; break;
      case AtomicOp::kXor: next = old ^ operand; break;
      case AtomicOp::kExchange: next = operand; break;
      case AtomicOp::kCmpxchg: {
        const uint32_t* expected = eval(s.c, one);
        if (expected == nullptr) return false;
        next = old == expected[i] ? operand : old;
        break;
      }
    }
    (*t.data)[elem] = next;
    if (result != nullptr) result[i] = old;
  }
  return true;
}

bool GroupExec::exec_print(const PStmt& s, Lanes l) {
  const std::string& fmt = s.src->text;
  for (uint32_t k = 0; k < l.n; ++k) {
    const uint32_t i = l.at(k);
    const Lanes one{&i, 1};
    std::string rendered;
    uint32_t arg = s.body.begin;
    for (size_t p = 0; p < fmt.size(); ++p) {
      if (fmt[p] != '%' || p + 1 == fmt.size()) {
        rendered += fmt[p];
        continue;
      }
      const char spec = fmt[++p];
      if (spec == '%') {
        rendered += '%';
        continue;
      }
      uint32_t value = 0;
      if (arg < s.body.end) {
        const uint32_t* v = eval(plan_.lists[arg++], one);
        if (v == nullptr) return false;
        value = v[i];
      }
      char buf[48];
      switch (spec) {
        case 'd': std::snprintf(buf, sizeof(buf), "%d", static_cast<int32_t>(value)); break;
        case 'u': std::snprintf(buf, sizeof(buf), "%u", value); break;
        case 'x': std::snprintf(buf, sizeof(buf), "%x", value); break;
        case 'f': std::snprintf(buf, sizeof(buf), "%f", u2f(value)); break;
        default: std::snprintf(buf, sizeof(buf), "%%%c", spec); break;
      }
      rendered += buf;
    }
    if (!rendered.empty() && rendered.back() == '\n') rendered.pop_back();
    if (options_.print_sink) options_.print_sink(rendered);
  }
  return true;
}

bool GroupExec::exec(const PStmt& s, Lanes l) {
  if (!count_statement()) return false;
  switch (s.kind) {
    case StmtKind::kLet:
    case StmtKind::kAssign: {
      // Define the slot before evaluating so a self-referencing initializer
      // reads the zero-filled slot instead of failing as undefined.
      uint32_t* slot = define(s.var);
      const uint32_t* value = eval(s.a, l);
      if (value == nullptr) return false;
      map1(l, slot, value, [](uint32_t v) { return v; });
      return true;
    }
    case StmtKind::kStore:
      return exec_store(s, l);
    case StmtKind::kIf: {
      const uint32_t* cond = eval(s.a, l);
      if (cond == nullptr) return false;
      uint32_t* then_lanes = fixed(s.lanes);
      uint32_t* else_lanes = then_lanes + items_;
      uint32_t n_then = 0, n_else = 0;
      each(l, [&](uint32_t i) {
        if (cond[i] != 0) {
          then_lanes[n_then++] = i;
        } else {
          else_lanes[n_else++] = i;
        }
      });
      if (n_then > 0 && !run_block(s.body, lanes(then_lanes, n_then))) return false;
      return n_else == 0 || run_block(s.else_body, lanes(else_lanes, n_else));
    }
    case StmtKind::kFor: {
      uint32_t* var = define(s.var);
      const uint32_t* init = eval(s.a, l);
      if (init == nullptr) return false;
      map1(l, var, init, [](uint32_t v) { return v; });
      uint32_t* loop = fixed(s.lanes);
      while (true) {
        // Loop iterations count against the statement budget even when the
        // body is empty, so runaway loops always trip the guard.
        if (!count_statement()) return false;
        // The bound re-evaluates for every item active at loop entry each
        // iteration, matching per-item execution.
        const uint32_t* bound = eval(s.b, l);
        if (bound == nullptr) return false;
        uint32_t n = 0;
        each(l, [&](uint32_t i) {
          if (static_cast<int32_t>(var[i]) < static_cast<int32_t>(bound[i])) loop[n++] = i;
        });
        if (n == 0) return true;
        const Lanes ll = lanes(loop, n);
        if (!run_block(s.body, ll)) return false;
        const uint32_t* step = eval(s.c, ll);
        if (step == nullptr) return false;
        each(ll, [&](uint32_t i) { var[i] += step[i]; });
      }
    }
    case StmtKind::kWhile: {
      uint32_t* loop = fixed(s.lanes);
      while (true) {
        if (!count_statement()) return false;
        const uint32_t* cond = eval(s.a, l);
        if (cond == nullptr) return false;
        uint32_t n = 0;
        each(l, [&](uint32_t i) {
          if (cond[i] != 0) loop[n++] = i;
        });
        if (n == 0) return true;
        if (!run_block(s.body, lanes(loop, n))) return false;
      }
    }
    case StmtKind::kBarrier:
      // OpenCL requires barriers to be reached by every item of the group;
      // lockstep execution leaves nothing to synchronize.
      if (l.n != items_) return fail("barrier reached under divergent control flow (OpenCL UB)");
      return true;
    case StmtKind::kAtomic:
      return exec_atomic(s, l);
    case StmtKind::kPrint:
      return exec_print(s, l);
  }
  return fail("unreachable statement kind");
}

}  // namespace

KernelArg KernelArg::scalar_f32(float v) { return KernelArg{false, f2u(v), nullptr}; }

Status Interpreter::run(const Kernel& kernel, const std::vector<KernelArg>& args,
                        const NDRange& ndrange) {
  site_counts_.clear();
  if (args.size() != kernel.params.size()) {
    return Status(ErrorKind::kInvalidArgument,
                  kernel.name + ": expected " + std::to_string(kernel.params.size()) +
                      " args, got " + std::to_string(args.size()));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].is_buffer != kernel.params[i].is_buffer) {
      return Status(ErrorKind::kInvalidArgument,
                    kernel.name + ": arg " + std::to_string(i) + " buffer/scalar mismatch");
    }
  }
  for (int d = 0; d < 3; ++d) {
    if (ndrange.local[d] == 0 || ndrange.global[d] % ndrange.local[d] != 0) {
      return Status(ErrorKind::kInvalidArgument,
                    kernel.name + ": global size not divisible by local size in dim " +
                        std::to_string(d));
    }
  }

  std::vector<std::vector<uint32_t>> locals;
  for (const auto& array : kernel.locals) locals.emplace_back(array.size, 0u);
  Plan plan;
  if (auto st = PlanBuilder(kernel, args, ndrange, locals, site_counts_, plan).build();
      !st.is_ok()) {
    return st;
  }

  GroupExec exec(plan, kernel, ndrange, options_, locals, site_counts_);
  Status st = Status::ok();
  for (uint32_t gz = 0; gz < ndrange.num_groups(2) && st.is_ok(); ++gz) {
    for (uint32_t gy = 0; gy < ndrange.num_groups(1) && st.is_ok(); ++gy) {
      for (uint32_t gx = 0; gx < ndrange.num_groups(0) && st.is_ok(); ++gx) {
        st = exec.run_group(gx, gy, gz);
      }
    }
  }
  if (options_.op_count != nullptr) *options_.op_count += exec.ops();
  return st;
}

}  // namespace fgpu::kir
