#include "kir/passes.hpp"

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "arch/semantics.hpp"
#include "common/bits.hpp"
#include "kir/build.hpp"

namespace fgpu::kir {

namespace sem = arch::sem;

namespace {

StmtPtr clone_stmt(const StmtPtr& s) {
  auto copy = std::make_shared<Stmt>(*s);
  for (auto& child : copy->body) child = clone_stmt(child);
  for (auto& child : copy->else_body) child = clone_stmt(child);
  return copy;
}

}  // namespace

Kernel clone_kernel(const Kernel& kernel) {
  Kernel copy = kernel;
  for (auto& s : copy.body) s = clone_stmt(s);
  return copy;
}

// ---------------------------------------------------------------------------
// verify
// ---------------------------------------------------------------------------

namespace {

class Verifier {
 public:
  explicit Verifier(const Kernel& kernel) : kernel_(kernel) {}

  Status run() {
    std::unordered_set<std::string> scope;
    return check_block(kernel_.body, scope);
  }

 private:
  Status err(const std::string& message) {
    return Status(ErrorKind::kCompileError, kernel_.name + ": " + message);
  }

  Status check_expr(const ExprPtr& e, const std::unordered_set<std::string>& scope) {
    if (!e) return err("null expression");
    switch (e->kind) {
      case ExprKind::kVar:
        if (!scope.contains(e->var)) return err("use of undefined variable '" + e->var + "'");
        break;
      case ExprKind::kParam:
        if (e->index < 0 || static_cast<size_t>(e->index) >= kernel_.params.size()) {
          return err("param index out of range");
        }
        if (kernel_.params[static_cast<size_t>(e->index)].is_buffer) {
          return err("scalar use of buffer param '" +
                     kernel_.params[static_cast<size_t>(e->index)].name + "'");
        }
        break;
      case ExprKind::kLoad: {
        if (e->is_local) {
          if (e->index < 0 || static_cast<size_t>(e->index) >= kernel_.locals.size()) {
            return err("local array slot out of range");
          }
        } else {
          if (e->index < 0 || static_cast<size_t>(e->index) >= kernel_.params.size() ||
              !kernel_.params[static_cast<size_t>(e->index)].is_buffer) {
            return err("load from non-buffer param");
          }
        }
        if (e->a()->type != Scalar::kI32) return err("non-integer buffer index");
        break;
      }
      case ExprKind::kSpecial:
        if (e->index < 0 || e->index > 2) return err("work-item dimension out of range");
        break;
      default:
        break;
    }
    for (const auto& arg : e->args) {
      if (auto st = check_expr(arg, scope); !st.is_ok()) return st;
    }
    return Status::ok();
  }

  Status check_block(const std::vector<StmtPtr>& block, std::unordered_set<std::string>& scope) {
    // Variables introduced here go out of scope at block end (we copy the
    // scope to keep sibling blocks independent).
    std::unordered_set<std::string> local = scope;
    for (const auto& s : block) {
      switch (s->kind) {
        case StmtKind::kLet:
          if (auto st = check_expr(s->a, local); !st.is_ok()) return st;
          if (local.contains(s->var)) return err("redefinition of '" + s->var + "'");
          local.insert(s->var);
          break;
        case StmtKind::kAssign:
          if (!local.contains(s->var)) return err("assignment to undefined '" + s->var + "'");
          if (loop_vars_.contains(s->var)) {
            return err("assignment to loop variable '" + s->var + "'");
          }
          if (auto st = check_expr(s->a, local); !st.is_ok()) return st;
          break;
        case StmtKind::kStore:
          if (auto st = check_expr(s->a, local); !st.is_ok()) return st;
          if (auto st = check_expr(s->b, local); !st.is_ok()) return st;
          if (auto st = check_target(*s); !st.is_ok()) return st;
          break;
        case StmtKind::kIf: {
          if (auto st = check_expr(s->a, local); !st.is_ok()) return st;
          if (auto st = check_block(s->body, local); !st.is_ok()) return st;
          if (auto st = check_block(s->else_body, local); !st.is_ok()) return st;
          break;
        }
        case StmtKind::kFor: {
          if (auto st = check_expr(s->a, local); !st.is_ok()) return st;
          if (auto st = check_expr(s->b, local); !st.is_ok()) return st;
          if (auto st = check_expr(s->c, local); !st.is_ok()) return st;
          if (local.contains(s->var)) return err("loop variable shadows '" + s->var + "'");
          local.insert(s->var);
          loop_vars_.insert(s->var);
          if (auto st = check_block(s->body, local); !st.is_ok()) return st;
          loop_vars_.erase(s->var);
          local.erase(s->var);
          break;
        }
        case StmtKind::kWhile:
          if (auto st = check_expr(s->a, local); !st.is_ok()) return st;
          if (auto st = check_block(s->body, local); !st.is_ok()) return st;
          break;
        case StmtKind::kBarrier:
          break;
        case StmtKind::kAtomic:
          if (auto st = check_expr(s->a, local); !st.is_ok()) return st;
          if (auto st = check_expr(s->b, local); !st.is_ok()) return st;
          if (s->atomic == AtomicOp::kCmpxchg) {
            if (!s->c) return err("cmpxchg needs a compare operand");
            if (auto st = check_expr(s->c, local); !st.is_ok()) return st;
          }
          if (auto st = check_target(*s); !st.is_ok()) return st;
          if (!s->result_var.empty()) {
            if (local.contains(s->result_var)) {
              return err("redefinition of '" + s->result_var + "'");
            }
            local.insert(s->result_var);
          }
          break;
        case StmtKind::kPrint:
          for (const auto& arg : s->print_args) {
            if (auto st = check_expr(arg, local); !st.is_ok()) return st;
          }
          break;
      }
    }
    scope = std::move(local);
    // Names defined in this block intentionally leak to subsequent siblings
    // only when the caller passed `scope` by reference at the same level;
    // nested blocks received a copy above.
    return Status::ok();
  }

  Status check_target(const Stmt& s) {
    if (s.is_local) {
      if (s.buffer < 0 || static_cast<size_t>(s.buffer) >= kernel_.locals.size()) {
        return err("store to invalid local array");
      }
    } else {
      if (s.buffer < 0 || static_cast<size_t>(s.buffer) >= kernel_.params.size() ||
          !kernel_.params[static_cast<size_t>(s.buffer)].is_buffer) {
        return err("store to non-buffer param");
      }
    }
    return Status::ok();
  }

  const Kernel& kernel_;
  std::unordered_set<std::string> loop_vars_;
};

}  // namespace

Status verify(const Kernel& kernel) { return Verifier(kernel).run(); }

Status verify(const Module& module) {
  std::unordered_set<std::string> names;
  for (const auto& kernel : module.kernels) {
    if (!names.insert(kernel.name).second) {
      return Status(ErrorKind::kCompileError, "duplicate kernel name '" + kernel.name + "'");
    }
    if (auto st = verify(kernel); !st.is_ok()) return st;
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// const_fold
// ---------------------------------------------------------------------------

namespace {

bool is_const(const ExprPtr& e) {
  return e->kind == ExprKind::kConstInt || e->kind == ExprKind::kConstFloat;
}

// Folds with the semantics every executor runs (arch/semantics.hpp), so a
// folded kernel computes what the unfolded one would: integer arithmetic
// wraps mod 2^32, division follows the no-trap rules, float->int
// conversion saturates.
ExprPtr fold_expr(const ExprPtr& e, int& count) {
  const ExprPtr node = rebuild_args(e, [&](const ExprPtr& arg) { return fold_expr(arg, count); });
  const auto wrap = [](uint32_t v) { return make_ci32(static_cast<int32_t>(v)); };
  const auto wrap_f = [](uint32_t v) { return make_cf32(u2f(v)); };

  if (node->kind == ExprKind::kBinary && is_const(node->a()) && is_const(node->b())) {
    const ExprPtr &a = node->a(), &b = node->b();
    ++count;
    if (a->type == Scalar::kF32) {
      const uint32_t x = f2u(a->fval), y = f2u(b->fval);
      switch (node->bin) {
        case BinOp::kAdd: return wrap_f(sem::fadd(x, y));
        case BinOp::kSub: return wrap_f(sem::fsub(x, y));
        case BinOp::kMul: return wrap_f(sem::fmul(x, y));
        case BinOp::kDiv: return wrap_f(sem::fdiv(x, y));
        case BinOp::kMin: return wrap_f(sem::fmin(x, y));
        case BinOp::kMax: return wrap_f(sem::fmax(x, y));
        case BinOp::kLt: return wrap(sem::flt(x, y));
        case BinOp::kLe: return wrap(sem::fle(x, y));
        case BinOp::kGt: return wrap(sem::flt(y, x));
        case BinOp::kGe: return wrap(sem::fle(y, x));
        case BinOp::kEq: return wrap(sem::feq(x, y));
        case BinOp::kNe: return make_ci32(a->fval != b->fval);
        default: --count; break;
      }
    } else {
      const int32_t x = a->ival, y = b->ival;
      const uint32_t ux = static_cast<uint32_t>(x), uy = static_cast<uint32_t>(y);
      switch (node->bin) {
        case BinOp::kAdd: return wrap(sem::add(ux, uy));
        case BinOp::kSub: return wrap(sem::sub(ux, uy));
        case BinOp::kMul: return wrap(sem::mul(ux, uy));
        case BinOp::kAnd: return wrap(sem::and_(ux, uy));
        case BinOp::kOr: return wrap(sem::or_(ux, uy));
        case BinOp::kXor: return wrap(sem::xor_(ux, uy));
        case BinOp::kShl: return wrap(sem::sll(ux, uy));
        case BinOp::kShr: return wrap(sem::sra(ux, uy));
        case BinOp::kMin: return wrap(sem::min(ux, uy));
        case BinOp::kMax: return wrap(sem::max(ux, uy));
        case BinOp::kLt: return wrap(sem::slt(ux, uy));
        case BinOp::kLe: return make_ci32(x <= y);
        case BinOp::kGt: return wrap(sem::slt(uy, ux));
        case BinOp::kGe: return make_ci32(x >= y);
        case BinOp::kEq: return make_ci32(x == y);
        case BinOp::kNe: return make_ci32(x != y);
        case BinOp::kLAnd: return make_ci32(x != 0 && y != 0);
        case BinOp::kLOr: return make_ci32(x != 0 || y != 0);
        // A constant zero divisor is left unfolded; it runs with the same
        // no-trap result.
        case BinOp::kDiv:
          if (y != 0) return wrap(sem::div(ux, uy));
          --count;
          break;
        case BinOp::kRem:
          if (y != 0) return wrap(sem::rem(ux, uy));
          --count;
          break;
      }
    }
  }
  // Algebraic identities on integer adds/muls (x+0, x*1, x*0).
  if (node->kind == ExprKind::kBinary && node->type == Scalar::kI32) {
    const ExprPtr &a = node->a(), &b = node->b();
    auto const_val = [](const ExprPtr& x) -> std::optional<int32_t> {
      if (x->kind == ExprKind::kConstInt) return x->ival;
      return std::nullopt;
    };
    const auto ca = const_val(a), cb = const_val(b);
    if (node->bin == BinOp::kAdd) {
      if (ca == 0) { ++count; return b; }
      if (cb == 0) { ++count; return a; }
    } else if (node->bin == BinOp::kMul) {
      if (ca == 1) { ++count; return b; }
      if (cb == 1) { ++count; return a; }
      if (ca == 0 || cb == 0) { ++count; return make_ci32(0); }
    } else if (node->bin == BinOp::kSub && cb == 0) {
      ++count;
      return a;
    }
  }
  if (node->kind == ExprKind::kCast && is_const(node->a())) {
    ++count;
    if (node->type == Scalar::kF32) {
      return wrap_f(sem::fcvt_s_w(static_cast<uint32_t>(node->a()->ival)));
    }
    return wrap(sem::fcvt_w_s(f2u(node->a()->fval)));
  }
  if (node->kind == ExprKind::kUnary && is_const(node->a())) {
    const ExprPtr& a = node->a();
    const uint32_t ua = static_cast<uint32_t>(a->ival);
    switch (node->un) {
      case UnOp::kNeg:
        ++count;
        return a->type == Scalar::kF32 ? wrap_f(sem::fsgnjn(f2u(a->fval), f2u(a->fval)))
                                       : wrap(sem::sub(0, ua));
      case UnOp::kNot: ++count; return make_ci32(a->ival == 0);
      case UnOp::kAbs:
        ++count;
        return a->type == Scalar::kF32 ? wrap_f(sem::fsgnjx(f2u(a->fval), f2u(a->fval)))
                                       : wrap(a->ival < 0 ? 0u - ua : ua);
      default:
        break;
    }
  }
  return node;
}

void fold_block(std::vector<StmtPtr>& block, int& count) {
  for (auto& s : block) {
    if (s->a) s->a = fold_expr(s->a, count);
    if (s->b) s->b = fold_expr(s->b, count);
    if (s->c) s->c = fold_expr(s->c, count);
    for (auto& arg : s->print_args) arg = fold_expr(arg, count);
    fold_block(s->body, count);
    fold_block(s->else_body, count);
  }
}

}  // namespace

int const_fold(Kernel& kernel) {
  int count = 0;
  fold_block(kernel.body, count);
  return count;
}

// ---------------------------------------------------------------------------
// cse_variable_reuse (paper O1)
// ---------------------------------------------------------------------------

namespace {

// Rewrites occurrences of `pattern` inside `e` with a variable reference.
ExprPtr replace_expr(const ExprPtr& e, const ExprPtr& pattern, const ExprPtr& replacement,
                     int& replaced) {
  if (expr_equal(e, pattern)) {
    ++replaced;
    return replacement;
  }
  return rebuild_args(e, [&](const ExprPtr& arg) {
    return replace_expr(arg, pattern, replacement, replaced);
  });
}

// Collects every non-trivial subexpression of `e` into `out`.
void collect_subexprs(const ExprPtr& e, std::vector<ExprPtr>& out) {
  if (e->kind == ExprKind::kBinary || e->kind == ExprKind::kUnary ||
      e->kind == ExprKind::kSelect || e->kind == ExprKind::kCast || e->kind == ExprKind::kCall ||
      e->kind == ExprKind::kLoad) {
    out.push_back(e);
  }
  for (const auto& arg : e->args) collect_subexprs(arg, out);
}

// Which buffers does this expression load from (recursive)?
void loaded_buffers(const ExprPtr& e, std::vector<std::pair<int, bool>>& out) {
  if (e->kind == ExprKind::kLoad) out.push_back({e->index, e->is_local});
  for (const auto& arg : e->args) loaded_buffers(arg, out);
}

struct Occurrence {
  size_t stmt_index;
};

int cse_block(std::vector<StmtPtr>& block, Kernel& kernel, int& name_counter) {
  int introduced = 0;
  // Recurse into nested blocks first.
  for (auto& s : block) {
    introduced += cse_block(s->body, kernel, name_counter);
    introduced += cse_block(s->else_body, kernel, name_counter);
  }

  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 8) {
    changed = false;
    // Gather candidate subexpressions with occurrence statement indices.
    std::vector<std::pair<ExprPtr, std::vector<size_t>>> candidates;
    for (size_t i = 0; i < block.size(); ++i) {
      const Stmt& s = *block[i];
      std::vector<ExprPtr> subs;
      // Only straight-line statements participate; control-flow conditions
      // are cheap and hoisting across their bodies complicates scoping.
      if (s.kind == StmtKind::kLet || s.kind == StmtKind::kAssign ||
          s.kind == StmtKind::kStore) {
        if (s.a) collect_subexprs(s.a, subs);
        if (s.b) collect_subexprs(s.b, subs);
      }
      for (const auto& sub : subs) {
        if (expr_size(sub) < 2) continue;  // too small to be worth a variable
        bool found = false;
        for (auto& [expr, occs] : candidates) {
          if (expr_equal(expr, sub)) {
            occs.push_back(i);
            found = true;
            break;
          }
        }
        if (!found) candidates.push_back({sub, {i}});
      }
    }

    // Pick the largest repeated candidate that is safe to hoist.
    std::sort(candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
      return expr_size(a.first) > expr_size(b.first);
    });
    for (const auto& [expr, occs] : candidates) {
      if (occs.size() < 2) continue;
      const size_t first = occs.front();
      const size_t last = occs.back();
      // Loads may only be reused if no store/atomic to a loaded buffer
      // happens between the first and last occurrence (inclusive window,
      // conservative for same-statement store+use).
      std::vector<std::pair<int, bool>> bufs;
      loaded_buffers(expr, bufs);
      bool safe = true;
      if (!bufs.empty()) {
        for (size_t i = first; i <= last && safe; ++i) {
          const Stmt& s = *block[i];
          const bool writes = s.kind == StmtKind::kStore || s.kind == StmtKind::kAtomic;
          const bool control = !s.body.empty() || !s.else_body.empty();
          if (control) safe = false;  // writes inside nested blocks: be safe
          if (!writes) continue;
          for (const auto& [buf, local] : bufs) {
            if (s.buffer == buf && s.is_local == local && i < last) {
              // A write to a loaded buffer strictly before the last read
              // would make the reused value stale. A write *at* the last
              // occurrence is fine: a store evaluates its operands before
              // writing (this is exactly the paper's oldw_value hoist).
              safe = false;
            }
          }
        }
      }
      if (!safe) continue;

      // Hoist: insert a let before the first occurrence and rewrite.
      const std::string name = "reuse" + std::to_string(name_counter++);
      auto let = std::make_shared<Stmt>();
      let->kind = StmtKind::kLet;
      let->var = name;
      let->a = expr;
      const ExprPtr var = make_var(name, expr->type);
      int replaced = 0;
      for (size_t i = first; i < block.size(); ++i) {
        Stmt& s = *block[i];
        if (s.kind != StmtKind::kLet && s.kind != StmtKind::kAssign &&
            s.kind != StmtKind::kStore) {
          continue;
        }
        if (s.a) s.a = replace_expr(s.a, expr, var, replaced);
        if (s.b) s.b = replace_expr(s.b, expr, var, replaced);
      }
      block.insert(block.begin() + static_cast<std::ptrdiff_t>(first), let);
      ++introduced;
      changed = true;
      break;  // candidate indices are stale; rescan
    }
  }
  return introduced;
}

}  // namespace

int cse_variable_reuse(Kernel& kernel) {
  int name_counter = 0;
  return cse_block(kernel.body, kernel, name_counter);
}

// ---------------------------------------------------------------------------
// mark_pipelined_loads (paper O2)
// ---------------------------------------------------------------------------

namespace {

ExprPtr mark_loads(const ExprPtr& e, int& count) {
  const ExprPtr node = rebuild_args(e, [&](const ExprPtr& arg) { return mark_loads(arg, count); });
  if (node->kind != ExprKind::kLoad || node->is_local || node->pipelined) return node;
  auto marked = std::make_shared<Expr>(*node);
  marked->pipelined = true;
  ++count;
  return marked;
}

void mark_block(std::vector<StmtPtr>& block, int& count) {
  for (auto& s : block) {
    if (s->a) s->a = mark_loads(s->a, count);
    if (s->b) s->b = mark_loads(s->b, count);
    if (s->c) s->c = mark_loads(s->c, count);
    mark_block(s->body, count);
    mark_block(s->else_body, count);
  }
}

}  // namespace

int mark_pipelined_loads(Kernel& kernel) {
  int count = 0;
  mark_block(kernel.body, count);
  return count;
}

namespace {

void mark_let_block(std::vector<StmtPtr>& block, int& count) {
  for (auto& s : block) {
    if (s->kind == StmtKind::kLet && s->a) s->a = mark_loads(s->a, count);
    mark_let_block(s->body, count);
    mark_let_block(s->else_body, count);
  }
}

}  // namespace

int mark_pipelined_loads_in_lets(Kernel& kernel) {
  int count = 0;
  mark_let_block(kernel.body, count);
  return count;
}

// ---------------------------------------------------------------------------
// expand_builtins
// ---------------------------------------------------------------------------

namespace {

// exp(x) via 2^k * poly(r): range reduction against ln 2, 5th-order
// polynomial, exponent reassembled with integer bit manipulation. Matches
// how soft-GPU math libraries implement expf without hardware support.
ExprPtr expand_exp(const ExprPtr& x_expr) {
  const Val x{x_expr};
  const Val t = x * 1.4426950408889634f;  // x * log2(e)
  const Val k = to_i32(t + vselect(t >= 0.0f, Val(0.5f), Val(-0.5f)));  // round
  const Val r = x - to_f32(k) * 0.69314718055994531f;
  const Val p = 1.0f +
                r * (1.0f + r * (0.5f + r * (0.166666667f + r * (0.041666667f + r * 0.008333333f))));
  const Val scale = bitcast_f32((k + 127) << 23);
  const Val inf = bitcast_f32(Val(0x7F800000));
  const Val body = p * scale;
  return vselect(x > 88.0f, inf, vselect(x < -87.0f, Val(0.0f), body)).expr();
}

// log(x) via exponent extraction + atanh-form polynomial.
ExprPtr expand_log(const ExprPtr& x_expr) {
  const Val x{x_expr};
  const Val bits = bitcast_i32(x);
  const Val e = ((bits >> 23) & 255) - 127;
  const Val m = bitcast_f32((bits & 0x007FFFFF) | 0x3F800000);
  const Val adjust = m > 1.41421356f;
  const Val m2 = vselect(adjust, m * 0.5f, m);
  const Val e2 = to_f32(e + vselect(adjust, Val(1), Val(0)));
  const Val f = m2 - 1.0f;
  const Val s = f / (2.0f + f);
  const Val z = s * s;
  const Val poly = s * (2.0f + z * (0.666666667f + z * (0.4f + z * 0.285714286f)));
  return (poly + e2 * 0.69314718055994531f).expr();
}

ExprPtr expand_floor(const ExprPtr& x_expr) {
  const Val x{x_expr};
  const Val t = to_f32(to_i32(x));  // truncate toward zero
  return (t - vselect(t > x, Val(1.0f), Val(0.0f))).expr();
}

ExprPtr expand_rsqrt(const ExprPtr& x_expr) {
  return (Val(1.0f) / vsqrt(Val{x_expr})).expr();
}

ExprPtr expand_powi(const ExprPtr& base, const ExprPtr& exponent) {
  // Constant exponents unroll to multiplies; anything else is a misuse.
  assert(exponent->kind == ExprKind::kConstInt && "powi requires a constant exponent");
  int n = exponent->ival;
  assert(n >= 0 && n <= 16);
  if (n == 0) return make_cf32(1.0f);
  ExprPtr result = base;
  for (int i = 1; i < n; ++i) result = make_bin(BinOp::kMul, result, base);
  return result;
}

// Copy-on-write, except that every load is copied: the tree walk visits a
// shared subtree once per occurrence, so each occurrence of a load comes
// out as its own node (see expand_builtins in passes.hpp).
ExprPtr expand_expr(const ExprPtr& e, int& count) {
  ExprPtr node = rebuild_args(e, [&](const ExprPtr& arg) { return expand_expr(arg, count); });
  if (node->kind == ExprKind::kLoad && node == e) return std::make_shared<Expr>(*e);
  if (node->kind != ExprKind::kCall) return node;
  switch (node->call) {
    case Builtin::kExp: ++count; return expand_exp(node->args[0]);
    case Builtin::kLog: ++count; return expand_log(node->args[0]);
    case Builtin::kFloor: ++count; return expand_floor(node->args[0]);
    case Builtin::kRsqrt: ++count; return expand_rsqrt(node->args[0]);
    case Builtin::kPowi: ++count; return expand_powi(node->args[0], node->args[1]);
    case Builtin::kSqrt: break;  // native on both targets
  }
  return node;
}

void expand_block(std::vector<StmtPtr>& block, int& count) {
  for (auto& s : block) {
    if (s->a) s->a = expand_expr(s->a, count);
    if (s->b) s->b = expand_expr(s->b, count);
    if (s->c) s->c = expand_expr(s->c, count);
    for (auto& arg : s->print_args) arg = expand_expr(arg, count);
    expand_block(s->body, count);
    expand_block(s->else_body, count);
  }
}

}  // namespace

int expand_builtins(Kernel& kernel) {
  int count = 0;
  expand_block(kernel.body, count);
  return count;
}

int expand_builtins(Module& module) {
  int count = 0;
  for (auto& kernel : module.kernels) count += expand_builtins(kernel);
  return count;
}

// ---------------------------------------------------------------------------
// analyze_divergence
// ---------------------------------------------------------------------------

namespace {

class DivergenceAnalysis {
 public:
  explicit DivergenceAnalysis(bool group_id_uniform) : group_id_uniform_(group_id_uniform) {}

  void run(Kernel& kernel) {
    // Fixpoint over variable divergence (loops feed assignments back).
    bool changed = true;
    int rounds = 0;
    while (changed && rounds++ < 16) {
      changed = false;
      mark_block(kernel.body, /*ctrl_divergent=*/false, changed);
    }
  }

 private:
  bool expr_divergent(const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::kConstInt:
      case ExprKind::kConstFloat:
      case ExprKind::kParam:
        return false;
      case ExprKind::kVar: {
        auto it = divergent_vars_.find(e->var);
        return it != divergent_vars_.end() && it->second;
      }
      case ExprKind::kSpecial:
        switch (e->special) {
          case SpecialReg::kGlobalId:
          case SpecialReg::kLocalId:
            return true;
          case SpecialReg::kGroupId:
            return !group_id_uniform_;
          default:
            return false;
        }
      case ExprKind::kLoad:
        // A load with a uniform index yields a uniform value.
        return expr_divergent(e->a());
      default:
        for (const auto& arg : e->args) {
          if (expr_divergent(arg)) return true;
        }
        return false;
    }
  }

  void set_var(const std::string& name, bool divergent, bool& changed) {
    bool& slot = divergent_vars_[name];
    if (divergent && !slot) {
      slot = true;
      changed = true;
    }
  }

  void mark_block(std::vector<StmtPtr>& block, bool ctrl_divergent, bool& changed) {
    for (auto& s : block) {
      switch (s->kind) {
        case StmtKind::kLet:
        case StmtKind::kAssign:
          set_var(s->var, ctrl_divergent || expr_divergent(s->a), changed);
          s->divergent = ctrl_divergent || expr_divergent(s->a);
          break;
        case StmtKind::kStore:
          s->divergent = ctrl_divergent || expr_divergent(s->a) || expr_divergent(s->b);
          break;
        case StmtKind::kIf: {
          const bool cond_div = expr_divergent(s->a);
          s->divergent = cond_div;
          mark_block(s->body, ctrl_divergent || cond_div, changed);
          mark_block(s->else_body, ctrl_divergent || cond_div, changed);
          break;
        }
        case StmtKind::kFor: {
          const bool bounds_div =
              expr_divergent(s->a) || expr_divergent(s->b) || expr_divergent(s->c);
          s->divergent = bounds_div;
          set_var(s->var, bounds_div || ctrl_divergent, changed);
          mark_block(s->body, ctrl_divergent || bounds_div, changed);
          break;
        }
        case StmtKind::kWhile: {
          const bool cond_div = expr_divergent(s->a);
          s->divergent = cond_div;
          mark_block(s->body, ctrl_divergent || cond_div, changed);
          break;
        }
        case StmtKind::kAtomic:
          s->divergent = true;
          if (!s->result_var.empty()) set_var(s->result_var, true, changed);
          break;
        case StmtKind::kBarrier:
        case StmtKind::kPrint:
          s->divergent = ctrl_divergent;
          break;
      }
    }
  }

  bool group_id_uniform_;
  std::unordered_map<std::string, bool> divergent_vars_;
};

}  // namespace

void analyze_divergence(Kernel& kernel, bool group_id_uniform) {
  DivergenceAnalysis(group_id_uniform).run(kernel);
}

}  // namespace fgpu::kir
