// The -O2 KIR passes of the soft-GPU optimization pipeline: dead-code
// elimination, loop-invariant code motion, and strength reduction. These
// mirror what the paper's PoCL+LLVM flow gets from LLVM's middle end and
// attack the same cycle sinks: redundant per-iteration arithmetic inside
// kernel loops and avoidable multiplies/divides in id/address math.
//
// Every rewrite here must be bit-exact against the reference interpreter:
// shifts are mod-32, multiplies wrap mod 2^32, and div/rem keep RISC-V
// no-trap semantics (x/0 == -1, x%0 == x), so pure expressions can be
// hoisted or dropped freely while divide strength reduction needs the
// non-negativity proof below.
#include <algorithm>
#include <optional>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "codegen/remarks.hpp"
#include "kir/build.hpp"
#include "kir/passes.hpp"

namespace fgpu::kir {

// ---------------------------------------------------------------------------
// provenance + size helpers
// ---------------------------------------------------------------------------

namespace {

int stmt_size(const StmtPtr& s) {
  int n = 1;
  for (const ExprPtr* e : {&s->a, &s->b, &s->c}) {
    if (*e) n += expr_size(*e);
  }
  for (const auto& arg : s->print_args) n += expr_size(arg);
  for (const auto& child : s->body) n += stmt_size(child);
  for (const auto& child : s->else_body) n += stmt_size(child);
  return n;
}

}  // namespace

std::string stmt_summary(const Kernel& kernel, const Stmt& s) {
  constexpr size_t kMaxLabel = 80;
  const auto buf_name = [&](int buffer, bool is_local) -> std::string_view {
    const size_t count = is_local ? kernel.locals.size() : kernel.params.size();
    const auto i = static_cast<size_t>(buffer);
    if (buffer < 0 || i >= count) return is_local ? "<local>" : "<buffer>";
    return is_local ? kernel.locals[i].name : kernel.params[i].name;
  };
  std::string text;
  // Appends text and expressions in order. Expressions stop rendering once
  // the label is past the cap: only its first kMaxLabel - 3 bytes survive
  // the truncation below, and those are exact.
  const auto put = [&](const auto&... parts) {
    const auto one = [&](const auto& part) {
      if constexpr (std::is_same_v<std::decay_t<decltype(part)>, ExprPtr>) {
        append_expr(text, part, kMaxLabel);
      } else {
        text += part;
      }
    };
    (one(parts), ...);
  };
  switch (s.kind) {
    case StmtKind::kLet: put("let ", s.var, " = ", s.a); break;
    case StmtKind::kAssign: put(s.var, " = ", s.a); break;
    case StmtKind::kStore: put(buf_name(s.buffer, s.is_local), "[", s.a, "] = ", s.b); break;
    case StmtKind::kIf: put("if (", s.a, ")"); break;
    case StmtKind::kFor:
      put("for (", s.var, " = ", s.a, "; ", s.var, " < ", s.b, "; ", s.var, " += ", s.c, ")");
      break;
    case StmtKind::kWhile: put("while (", s.a, ")"); break;
    case StmtKind::kBarrier: put("barrier()"); break;
    case StmtKind::kAtomic:
      if (!s.result_var.empty()) put(s.result_var, " = ");
      put("atomic(&", buf_name(s.buffer, s.is_local), "[", s.a, "], ", s.b, ")");
      break;
    case StmtKind::kPrint: put("printf(\"", s.text, "\", ...)"); break;
  }
  if (text.size() > kMaxLabel) {
    text.resize(kMaxLabel - 3);
    text += "...";
  }
  return text;
}

int kernel_size(const Kernel& kernel) {
  int n = 0;
  for (const auto& s : kernel.body) n += stmt_size(s);
  return n;
}

// ---------------------------------------------------------------------------
// dead_code_elim
// ---------------------------------------------------------------------------

namespace {

void collect_var_reads(const ExprPtr& e, std::unordered_set<std::string>& reads) {
  if (e->kind == ExprKind::kVar) reads.insert(e->var);
  for (const auto& arg : e->args) collect_var_reads(arg, reads);
}

void collect_block_reads(const std::vector<StmtPtr>& block,
                         std::unordered_set<std::string>& reads) {
  for (const auto& s : block) {
    for (const ExprPtr* e : {&s->a, &s->b, &s->c}) {
      if (*e) collect_var_reads(*e, reads);
    }
    for (const auto& arg : s->print_args) collect_var_reads(arg, reads);
    collect_block_reads(s->body, reads);
    collect_block_reads(s->else_body, reads);
  }
}

// One sweep with a fixed read set. Reads inside statements removed this
// sweep still count as live; the fixpoint driver below catches the chain.
int dce_block(const Kernel& kernel, std::vector<StmtPtr>& block,
              const std::unordered_set<std::string>& reads, codegen::RemarkSink* sink) {
  int removed = 0;
  for (auto& s : block) {
    removed += dce_block(kernel, s->body, reads, sink);
    removed += dce_block(kernel, s->else_body, reads, sink);
  }
  const auto dead = [&](const StmtPtr& s) -> bool {
    switch (s->kind) {
      case StmtKind::kLet:
      case StmtKind::kAssign:
        // Loads are side-effect free but kept anyway: dropping them would
        // still be sound, this just keeps the pass trivially conservative.
        return !reads.contains(s->var) && expr_is_pure(s->a);
      case StmtKind::kIf:
        return s->body.empty() && s->else_body.empty() && expr_is_pure(s->a);
      case StmtKind::kFor:
        // Only a positive constant step proves termination of the empty
        // loop (a negative or runtime step could spin forever, and an
        // infinite loop is an observable behavior).
        return s->body.empty() && expr_is_pure(s->a) && expr_is_pure(s->b) &&
               expr_is_pure(s->c) && s->c->kind == ExprKind::kConstInt && s->c->ival > 0;
      default:
        return false;
    }
  };
  if (sink != nullptr) {
    for (const auto& s : block) {
      if (!dead(s)) continue;
      sink->add("dce", "applied", "dce.remove", stmt_summary(kernel, *s),
                "statement has no observable effect", stmt_size(s));
    }
  }
  const auto before = block.size();
  std::erase_if(block, dead);
  removed += static_cast<int>(before - block.size());
  return removed;
}

}  // namespace

int dead_code_elim(Kernel& kernel, codegen::RemarkSink* sink) {
  int total = 0;
  for (int round = 0; round < 8; ++round) {
    std::unordered_set<std::string> reads;
    collect_block_reads(kernel.body, reads);
    const int removed = dce_block(kernel, kernel.body, reads, sink);
    total += removed;
    if (removed == 0) break;
  }
  return total;
}

// ---------------------------------------------------------------------------
// strength_reduce
// ---------------------------------------------------------------------------

namespace {

bool is_pow2(int32_t v) { return v > 0 && (v & (v - 1)) == 0; }

int32_t log2_exact(int32_t v) {
  int32_t k = 0;
  while ((int64_t{1} << k) < v) ++k;
  return k;
}

// Conservative proof that an i32 expression is non-negative. Additions and
// multiplications of non-negative terms are deliberately excluded: they can
// wrap past INT32_MAX. kAbs is excluded too (abs(INT_MIN) == INT_MIN).
bool nonneg(const ExprPtr& e) {
  if (e->type != Scalar::kI32) return false;
  switch (e->kind) {
    case ExprKind::kConstInt:
      return e->ival >= 0;
    case ExprKind::kSpecial:
      return true;  // work-item ids/sizes are non-negative by construction
    case ExprKind::kUnary:
      return e->un == UnOp::kNot;  // produces 0/1
    case ExprKind::kSelect:
      return nonneg(e->b()) && nonneg(e->c());
    case ExprKind::kBinary:
      switch (e->bin) {
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe:
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLAnd:
        case BinOp::kLOr:
          return true;  // comparisons/logicals produce 0/1
        case BinOp::kAnd:
          // Masking with a non-negative operand clears the sign bit.
          return nonneg(e->a()) || nonneg(e->b());
        case BinOp::kShr:
          return nonneg(e->a());  // arithmetic shift keeps the (zero) sign
        case BinOp::kRem:
          // RISC-V rem takes the dividend's sign; rem-by-zero yields the
          // dividend, so a non-negative dividend suffices.
          return nonneg(e->a());
        case BinOp::kDiv:
          // Divide-by-zero yields -1, so the divisor must be a provably
          // positive constant.
          return nonneg(e->a()) && e->b()->kind == ExprKind::kConstInt && e->b()->ival > 0;
        case BinOp::kMin:
        case BinOp::kMax:
          return nonneg(e->a()) && nonneg(e->b());
        default:
          return false;  // add/sub/mul/shl/or/xor can produce negatives
      }
    default:
      return false;
  }
}

// Remark plumbing for the rewriter: sink may be null (no remarks); `site`
// is the enclosing statement's summary, computed once per statement.
struct SrCtx {
  int count = 0;
  codegen::RemarkSink* sink = nullptr;
  const std::string* site = nullptr;

  void note(const char* action, const char* name, const char* detail, int64_t value) {
    if (sink != nullptr) sink->add("strength-reduce", action, name, *site, detail, value);
  }
};

ExprPtr reduce_expr(const ExprPtr& e, SrCtx& ctx) {
  const ExprPtr node = rebuild_args(e, [&](const ExprPtr& arg) { return reduce_expr(arg, ctx); });
  if (node->kind != ExprKind::kBinary || node->type != Scalar::kI32) return node;
  const auto cint = [](const ExprPtr& x) -> std::optional<int32_t> {
    if (x->kind == ExprKind::kConstInt) return x->ival;
    return std::nullopt;
  };
  switch (node->bin) {
    case BinOp::kMul:
      // Two's-complement multiply by 2^k is exactly a left shift (mod 2^32).
      if (const auto c = cint(node->b()); c && is_pow2(*c) && *c > 1) {
        ++ctx.count;
        ctx.note("applied", "sr.mul-to-shl", "multiply by power of two rewritten to shift", *c);
        return make_bin(BinOp::kShl, node->a(), make_ci32(log2_exact(*c)));
      }
      if (const auto c = cint(node->a()); c && is_pow2(*c) && *c > 1) {
        ++ctx.count;
        ctx.note("applied", "sr.mul-to-shl", "multiply by power of two rewritten to shift", *c);
        return make_bin(BinOp::kShl, node->b(), make_ci32(log2_exact(*c)));
      }
      break;
    case BinOp::kDiv:
      if (const auto c = cint(node->b())) {
        if (*c == 1) {
          ++ctx.count;
          ctx.note("applied", "sr.div-by-one", "division by one removed", 1);
          return node->a();
        }
        // Truncating signed division only equals the arithmetic shift for
        // non-negative dividends.
        if (is_pow2(*c) && nonneg(node->a())) {
          ++ctx.count;
          ctx.note("applied", "sr.div-to-shr", "division by power of two rewritten to shift",
                   *c);
          return make_bin(BinOp::kShr, node->a(), make_ci32(log2_exact(*c)));
        }
        if (is_pow2(*c)) {
          ctx.note("missed", "sr.div-not-nonneg",
                   "dividend not provably non-negative; signed division kept", *c);
        }
      }
      break;
    case BinOp::kRem:
      if (const auto c = cint(node->b())) {
        if (is_pow2(*c) && nonneg(node->a())) {
          ++ctx.count;
          ctx.note("applied", "sr.rem-to-and", "remainder by power of two rewritten to mask",
                   *c);
          if (*c == 1) return make_ci32(0);
          return make_bin(BinOp::kAnd, node->a(), make_ci32(*c - 1));
        }
        if (is_pow2(*c)) {
          ctx.note("missed", "sr.rem-not-nonneg",
                   "dividend not provably non-negative; signed remainder kept", *c);
        }
      }
      break;
    default:
      break;
  }
  return node;
}

void reduce_block(const Kernel& kernel, std::vector<StmtPtr>& block, SrCtx& ctx) {
  std::string site;
  for (auto& s : block) {
    if (ctx.sink != nullptr) site = stmt_summary(kernel, *s);
    ctx.site = &site;
    if (s->a) s->a = reduce_expr(s->a, ctx);
    if (s->b) s->b = reduce_expr(s->b, ctx);
    if (s->c) s->c = reduce_expr(s->c, ctx);
    for (auto& arg : s->print_args) arg = reduce_expr(arg, ctx);
    reduce_block(kernel, s->body, ctx);
    reduce_block(kernel, s->else_body, ctx);
  }
}

}  // namespace

int strength_reduce(Kernel& kernel, codegen::RemarkSink* sink) {
  SrCtx ctx;
  ctx.sink = sink;
  reduce_block(kernel, kernel.body, ctx);
  return ctx.count;
}

// ---------------------------------------------------------------------------
// licm
// ---------------------------------------------------------------------------

namespace {

void collect_defined_vars(const std::vector<StmtPtr>& block,
                          std::unordered_set<std::string>& defs) {
  for (const auto& s : block) {
    if (s->kind == StmtKind::kLet || s->kind == StmtKind::kAssign || s->kind == StmtKind::kFor) {
      defs.insert(s->var);
    }
    if (!s->result_var.empty()) defs.insert(s->result_var);
    collect_defined_vars(s->body, defs);
    collect_defined_vars(s->else_body, defs);
  }
}

void collect_all_names(const std::vector<StmtPtr>& block, std::unordered_set<std::string>& names) {
  collect_defined_vars(block, names);
}

bool expr_uses_vars(const ExprPtr& e, const std::unordered_set<std::string>& vars) {
  if (e->kind == ExprKind::kVar && vars.contains(e->var)) return true;
  for (const auto& arg : e->args) {
    if (expr_uses_vars(arg, vars)) return true;
  }
  return false;
}

bool hoistable_kind(const ExprPtr& e) {
  switch (e->kind) {
    case ExprKind::kBinary:
    case ExprKind::kUnary:
    case ExprKind::kSelect:
    case ExprKind::kCast:
    case ExprKind::kCall:  // only sqrt survives expand_builtins; it is pure
      return true;
    default:
      return false;
  }
}

// Top-down collection of maximal pure loop-invariant subexpressions:
// qualifying nodes are recorded without descending, so candidates never
// overlap within one tree.
void collect_invariant_subexprs(const ExprPtr& e, const std::unordered_set<std::string>& loop_defs,
                                std::vector<ExprPtr>& out) {
  if (hoistable_kind(e) && expr_is_pure(e) && !expr_uses_vars(e, loop_defs)) {
    for (const auto& seen : out) {
      if (expr_equal(seen, e)) return;
    }
    out.push_back(e);
    return;
  }
  for (const auto& arg : e->args) collect_invariant_subexprs(arg, loop_defs, out);
}

void collect_from_block(const std::vector<StmtPtr>& block,
                        const std::unordered_set<std::string>& loop_defs,
                        std::vector<ExprPtr>& out) {
  for (const auto& s : block) {
    for (const ExprPtr* e : {&s->a, &s->b, &s->c}) {
      if (*e) collect_invariant_subexprs(*e, loop_defs, out);
    }
    for (const auto& arg : s->print_args) collect_invariant_subexprs(arg, loop_defs, out);
    collect_from_block(s->body, loop_defs, out);
    collect_from_block(s->else_body, loop_defs, out);
  }
}

ExprPtr rewrite_expr(const ExprPtr& e, const ExprPtr& pattern, const ExprPtr& replacement) {
  if (expr_equal(e, pattern)) return replacement;
  return rebuild_args(
      e, [&](const ExprPtr& arg) { return rewrite_expr(arg, pattern, replacement); });
}

void rewrite_block(std::vector<StmtPtr>& block, const ExprPtr& pattern,
                   const ExprPtr& replacement) {
  for (auto& s : block) {
    if (s->a) s->a = rewrite_expr(s->a, pattern, replacement);
    if (s->b) s->b = rewrite_expr(s->b, pattern, replacement);
    if (s->c) s->c = rewrite_expr(s->c, pattern, replacement);
    for (auto& arg : s->print_args) arg = rewrite_expr(arg, pattern, replacement);
    rewrite_block(s->body, pattern, replacement);
    rewrite_block(s->else_body, pattern, replacement);
  }
}

struct LicmContext {
  std::unordered_set<std::string> names;  // every name defined in the kernel
  int counter = 0;
  int hoisted = 0;
  const Kernel* kernel = nullptr;
  codegen::RemarkSink* sink = nullptr;

  std::string fresh_name() {
    std::string name;
    do {
      name = "licm" + std::to_string(counter++);
    } while (names.contains(name));
    names.insert(name);
    return name;
  }
};

// Cap per loop: hoisted values live across the whole loop, so each one costs
// a long live range. Four covers the benchmarks' address products without
// meaningfully raising register pressure.
constexpr size_t kMaxHoistsPerLoop = 4;

// Remarks only: pure hoistable-shaped expressions that stay in the loop
// because they read loop-carried variables — the "why was this not hoisted"
// answer, named with the blocking dependence. Top-down like the candidate
// collector; a flagged node's subtrees are not re-flagged. Size >= 3 keeps
// trivia like `i + 1` out of the stream.
void note_loop_dependent(const ExprPtr& e, const std::unordered_set<std::string>& loop_defs,
                         LicmContext& ctx, const std::string& site) {
  if (hoistable_kind(e) && expr_is_pure(e) && expr_uses_vars(e, loop_defs) &&
      expr_size(e) >= 3) {
    std::string deps;
    std::unordered_set<std::string> reads;
    collect_var_reads(e, reads);
    std::vector<std::string> blocking;
    for (const auto& var : reads) {
      if (loop_defs.contains(var)) blocking.push_back(var);
    }
    std::sort(blocking.begin(), blocking.end());
    for (const auto& var : blocking) {
      if (!deps.empty()) deps += ", ";
      deps += var;
    }
    ctx.sink->add("licm", "missed", "licm.loop-dependent", site,
                  "depends on loop-carried " + deps, expr_size(e));
    return;
  }
  for (const auto& arg : e->args) note_loop_dependent(arg, loop_defs, ctx, site);
}

void note_loop_dependent_block(const std::vector<StmtPtr>& block,
                               const std::unordered_set<std::string>& loop_defs,
                               LicmContext& ctx) {
  for (const auto& s : block) {
    const std::string site = stmt_summary(*ctx.kernel, *s);
    for (const ExprPtr* e : {&s->a, &s->b, &s->c}) {
      if (*e) note_loop_dependent(*e, loop_defs, ctx, site);
    }
    for (const auto& arg : s->print_args) note_loop_dependent(arg, loop_defs, ctx, site);
    note_loop_dependent_block(s->body, loop_defs, ctx);
    note_loop_dependent_block(s->else_body, loop_defs, ctx);
  }
}

void licm_block(std::vector<StmtPtr>& block, LicmContext& ctx) {
  for (size_t i = 0; i < block.size(); ++i) {
    StmtPtr s = block[i];
    // Innermost loops first: an inner hoist creates a `licm%d` definition in
    // the outer loop's body, which the outer invariance check then sees.
    licm_block(s->body, ctx);
    licm_block(s->else_body, ctx);
    if (s->kind != StmtKind::kFor && s->kind != StmtKind::kWhile) continue;

    std::unordered_set<std::string> loop_defs;
    if (s->kind == StmtKind::kFor) loop_defs.insert(s->var);
    collect_defined_vars(s->body, loop_defs);

    // Per-iteration expressions: the while condition and the for-loop's
    // end/step are re-evaluated every trip; the begin expression runs once,
    // so hoisting it would not save anything.
    std::vector<ExprPtr> candidates;
    if (s->kind == StmtKind::kWhile) collect_invariant_subexprs(s->a, loop_defs, candidates);
    if (s->kind == StmtKind::kFor) {
      collect_invariant_subexprs(s->b, loop_defs, candidates);
      collect_invariant_subexprs(s->c, loop_defs, candidates);
    }
    collect_from_block(s->body, loop_defs, candidates);

    // Biggest savings first; std::stable_sort keeps the first-occurrence
    // order on ties so the output is deterministic.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const ExprPtr& a, const ExprPtr& b) {
                       return expr_size(a) > expr_size(b);
                     });
    std::string loop_site;
    if (ctx.sink != nullptr) {
      loop_site = stmt_summary(*ctx.kernel, *s);
      for (size_t c = kMaxHoistsPerLoop; c < candidates.size(); ++c) {
        ctx.sink->add("licm", "blocked", "licm.hoist-budget", loop_site,
                      "per-loop hoist budget (" + std::to_string(kMaxHoistsPerLoop) +
                          ") exhausted: " + expr_to_string(candidates[c]),
                      expr_size(candidates[c]));
      }
      note_loop_dependent_block(s->body, loop_defs, ctx);
    }
    if (candidates.size() > kMaxHoistsPerLoop) candidates.resize(kMaxHoistsPerLoop);

    for (const auto& expr : candidates) {
      const std::string name = ctx.fresh_name();
      auto let = std::make_shared<Stmt>();
      let->kind = StmtKind::kLet;
      let->var = name;
      let->a = expr;
      const ExprPtr var = make_var(name, expr->type);
      if (s->kind == StmtKind::kWhile) s->a = rewrite_expr(s->a, expr, var);
      if (s->kind == StmtKind::kFor) {
        s->b = rewrite_expr(s->b, expr, var);
        s->c = rewrite_expr(s->c, expr, var);
      }
      rewrite_block(s->body, expr, var);
      block.insert(block.begin() + static_cast<std::ptrdiff_t>(i), let);
      ++i;  // keep pointing at the loop statement
      ++ctx.hoisted;
      if (ctx.sink != nullptr) {
        ctx.sink->add("licm", "applied", "licm.hoist", loop_site,
                      "hoisted " + expr_to_string(expr) + " to " + name, expr_size(expr));
      }
    }
  }
}

}  // namespace

int licm(Kernel& kernel, codegen::RemarkSink* sink) {
  LicmContext ctx;
  ctx.kernel = &kernel;
  ctx.sink = sink;
  collect_all_names(kernel.body, ctx.names);
  licm_block(kernel.body, ctx);
  return ctx.hoisted;
}

}  // namespace fgpu::kir
