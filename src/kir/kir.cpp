#include "kir/kir.hpp"

#include <charconv>
#include <cstdio>
#include <functional>
#include <sstream>

namespace fgpu::kir {
namespace {

const char* bin_symbol(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kRem: return "%";
    case BinOp::kAnd: return "&";
    case BinOp::kOr: return "|";
    case BinOp::kXor: return "^";
    case BinOp::kShl: return "<<";
    case BinOp::kShr: return ">>";
    case BinOp::kMin: return "min";
    case BinOp::kMax: return "max";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLAnd: return "&&";
    case BinOp::kLOr: return "||";
  }
  return "?";
}

const char* special_name(SpecialReg r) {
  switch (r) {
    case SpecialReg::kGlobalId: return "get_global_id";
    case SpecialReg::kLocalId: return "get_local_id";
    case SpecialReg::kGroupId: return "get_group_id";
    case SpecialReg::kGlobalSize: return "get_global_size";
    case SpecialReg::kLocalSize: return "get_local_size";
    case SpecialReg::kNumGroups: return "get_num_groups";
  }
  return "?";
}

const char* builtin_name(Builtin b) {
  switch (b) {
    case Builtin::kSqrt: return "sqrt";
    case Builtin::kRsqrt: return "rsqrt";
    case Builtin::kExp: return "exp";
    case Builtin::kLog: return "log";
    case Builtin::kFloor: return "floor";
    case Builtin::kPowi: return "powi";
  }
  return "?";
}

void hash_combine(size_t& seed, size_t v) {
  seed ^= v + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2);
}

}  // namespace

bool expr_equal(const ExprPtr& a, const ExprPtr& b) {
  if (a.get() == b.get()) return true;
  if (!a || !b) return false;
  if (a->kind != b->kind || a->type != b->type) return false;
  switch (a->kind) {
    case ExprKind::kConstInt:
      if (a->ival != b->ival) return false;
      break;
    case ExprKind::kConstFloat:
      if (a->fval != b->fval) return false;
      break;
    case ExprKind::kVar:
      if (a->var != b->var) return false;
      break;
    case ExprKind::kParam:
      if (a->index != b->index) return false;
      break;
    case ExprKind::kBinary:
      if (a->bin != b->bin) return false;
      break;
    case ExprKind::kUnary:
      if (a->un != b->un) return false;
      break;
    case ExprKind::kLoad:
      if (a->index != b->index || a->is_local != b->is_local || a->pipelined != b->pipelined) {
        return false;
      }
      break;
    case ExprKind::kSpecial:
      if (a->special != b->special || a->index != b->index) return false;
      break;
    case ExprKind::kCall:
      if (a->call != b->call) return false;
      break;
    case ExprKind::kSelect:
    case ExprKind::kCast:
      break;
  }
  if (a->args.size() != b->args.size()) return false;
  for (size_t i = 0; i < a->args.size(); ++i) {
    if (!expr_equal(a->args[i], b->args[i])) return false;
  }
  return true;
}

size_t expr_hash(const ExprPtr& e) {
  if (!e) return 0;
  size_t h = static_cast<size_t>(e->kind) * 131 + static_cast<size_t>(e->type);
  switch (e->kind) {
    case ExprKind::kConstInt: hash_combine(h, std::hash<int32_t>()(e->ival)); break;
    case ExprKind::kConstFloat: hash_combine(h, std::hash<float>()(e->fval)); break;
    case ExprKind::kVar: hash_combine(h, std::hash<std::string>()(e->var)); break;
    case ExprKind::kParam: hash_combine(h, static_cast<size_t>(e->index)); break;
    case ExprKind::kBinary: hash_combine(h, static_cast<size_t>(e->bin)); break;
    case ExprKind::kUnary: hash_combine(h, static_cast<size_t>(e->un)); break;
    case ExprKind::kLoad:
      hash_combine(h, static_cast<size_t>(e->index) * 2 + (e->is_local ? 1 : 0));
      break;
    case ExprKind::kSpecial:
      hash_combine(h, static_cast<size_t>(e->special) * 4 + static_cast<size_t>(e->index));
      break;
    case ExprKind::kCall: hash_combine(h, static_cast<size_t>(e->call)); break;
    default: break;
  }
  for (const auto& arg : e->args) hash_combine(h, expr_hash(arg));
  return h;
}

size_t expr_size(const ExprPtr& e) {
  if (!e) return 0;
  size_t n = 1;
  for (const auto& arg : e->args) n += expr_size(arg);
  return n;
}

bool expr_is_pure(const ExprPtr& e) {
  if (!e) return true;
  if (e->kind == ExprKind::kLoad) return false;
  for (const auto& arg : e->args) {
    if (!expr_is_pure(arg)) return false;
  }
  return true;
}

bool expr_contains_load(const ExprPtr& e) { return !expr_is_pure(e); }

bool expr_reads_buffer(const ExprPtr& e, int buffer, bool is_local) {
  if (!e) return false;
  if (e->kind == ExprKind::kLoad && e->index == buffer && e->is_local == is_local) return true;
  for (const auto& arg : e->args) {
    if (expr_reads_buffer(arg, buffer, is_local)) return true;
  }
  return false;
}

// Every node appends to the one buffer; nothing builds a temporary string.
void append_expr(std::string& out, const ExprPtr& e, size_t stop_after) {
  if (out.size() > stop_after) return;
  if (!e) {
    out += "<null>";
    return;
  }
  const auto num = [&](int32_t v) {
    char buf[16];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  };
  const auto sub = [&](const ExprPtr& x) { append_expr(out, x, stop_after); };
  const auto wrap = [&](const char* open, const ExprPtr& x, const char* close) {
    out += open;
    sub(x);
    out += close;
  };
  const auto call = [&](const char* name) {
    out += name;
    out += '(';
    for (size_t i = 0; i < e->args.size(); ++i) {
      if (i) out += ", ";
      sub(e->args[i]);
    }
    out += ')';
  };
  switch (e->kind) {
    case ExprKind::kConstInt: num(e->ival); break;
    case ExprKind::kConstFloat: {
      // std::ostream's default float form: %g at precision 6.
      char buf[32];
      const int n = std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(e->fval));
      out.append(buf, static_cast<size_t>(n));
      out += 'f';
      break;
    }
    case ExprKind::kVar: out += e->var; break;
    case ExprKind::kParam:
      out += "param";
      num(e->index);
      break;
    case ExprKind::kBinary:
      if (e->bin == BinOp::kMin || e->bin == BinOp::kMax) {
        call(bin_symbol(e->bin));
      } else {
        out += '(';
        sub(e->a());
        out += ' ';
        out += bin_symbol(e->bin);
        wrap(" ", e->b(), ")");
      }
      break;
    case ExprKind::kUnary:
      switch (e->un) {
        case UnOp::kNeg: wrap("(-", e->a(), ")"); break;
        case UnOp::kNot: wrap("(!", e->a(), ")"); break;
        case UnOp::kAbs: wrap("fabs(", e->a(), ")"); break;
        case UnOp::kBitcastI2F: wrap("as_float(", e->a(), ")"); break;
        case UnOp::kBitcastF2I: wrap("as_int(", e->a(), ")"); break;
      }
      break;
    case ExprKind::kSelect:
      wrap("(", e->a(), " ? ");
      sub(e->b());
      wrap(" : ", e->c(), ")");
      break;
    case ExprKind::kCast:
      out += '(';
      out += to_string(e->type);
      wrap(")(", e->a(), ")");
      break;
    case ExprKind::kLoad:
      if (e->pipelined) {
        out += "__pipelined_load(buf";
        num(e->index);
        wrap(" + ", e->a(), ")");
      } else {
        out += e->is_local ? "local" : "buf";
        num(e->index);
        wrap("[", e->a(), "]");
      }
      break;
    case ExprKind::kSpecial:
      out += special_name(e->special);
      out += '(';
      num(e->index);
      out += ')';
      break;
    case ExprKind::kCall: call(builtin_name(e->call)); break;
  }
}

std::string expr_to_string(const ExprPtr& e) {
  std::string out;
  append_expr(out, e);
  return out;
}

namespace {

bool stmts_contain(const std::vector<StmtPtr>& stmts, StmtKind kind) {
  for (const auto& s : stmts) {
    if (s->kind == kind) return true;
    if (stmts_contain(s->body, kind) || stmts_contain(s->else_body, kind)) return true;
  }
  return false;
}

void print_stmt(std::ostringstream& os, const Stmt& s, const Kernel& kernel, int indent);

void print_block(std::ostringstream& os, const std::vector<StmtPtr>& body, const Kernel& kernel,
                 int indent) {
  for (const auto& s : body) print_stmt(os, *s, kernel, indent);
}

std::string pretty_expr(const ExprPtr& e, const Kernel& kernel);

std::string buffer_name(const Kernel& kernel, int index, bool is_local) {
  if (is_local) return kernel.locals[static_cast<size_t>(index)].name;
  return kernel.params[static_cast<size_t>(index)].name;
}

// Pretty form substituting parameter/buffer names (for Fig. 6-style output).
std::string pretty_expr(const ExprPtr& e, const Kernel& kernel) {
  std::string raw = expr_to_string(e);
  // Replace paramN / bufN / localN with declared names, longest index first
  // to avoid prefix clashes (param12 vs param1).
  for (int i = static_cast<int>(kernel.params.size()) - 1; i >= 0; --i) {
    const std::string from_p = "param" + std::to_string(i);
    const std::string from_b = "buf" + std::to_string(i);
    for (const std::string& from : {from_p, from_b}) {
      size_t pos = 0;
      while ((pos = raw.find(from, pos)) != std::string::npos) {
        raw.replace(pos, from.size(), kernel.params[static_cast<size_t>(i)].name);
        pos += kernel.params[static_cast<size_t>(i)].name.size();
      }
    }
  }
  for (int i = static_cast<int>(kernel.locals.size()) - 1; i >= 0; --i) {
    const std::string from = "local" + std::to_string(i);
    size_t pos = 0;
    while ((pos = raw.find(from, pos)) != std::string::npos) {
      raw.replace(pos, from.size(), kernel.locals[static_cast<size_t>(i)].name);
      pos += kernel.locals[static_cast<size_t>(i)].name.size();
    }
  }
  return raw;
}

void print_stmt(std::ostringstream& os, const Stmt& s, const Kernel& kernel, int indent) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  switch (s.kind) {
    case StmtKind::kLet:
      os << pad << to_string(s.a->type) << " " << s.var << " = " << pretty_expr(s.a, kernel)
         << ";\n";
      break;
    case StmtKind::kAssign:
      os << pad << s.var << " = " << pretty_expr(s.a, kernel) << ";\n";
      break;
    case StmtKind::kStore:
      os << pad << buffer_name(kernel, s.buffer, s.is_local) << "[" << pretty_expr(s.a, kernel)
         << "] = " << pretty_expr(s.b, kernel) << ";\n";
      break;
    case StmtKind::kIf:
      os << pad << "if (" << pretty_expr(s.a, kernel) << ") {\n";
      print_block(os, s.body, kernel, indent + 1);
      if (!s.else_body.empty()) {
        os << pad << "} else {\n";
        print_block(os, s.else_body, kernel, indent + 1);
      }
      os << pad << "}\n";
      break;
    case StmtKind::kFor:
      os << pad << "for (int " << s.var << " = " << pretty_expr(s.a, kernel) << "; " << s.var
         << " < " << pretty_expr(s.b, kernel) << "; " << s.var
         << " += " << pretty_expr(s.c, kernel) << ") {\n";
      print_block(os, s.body, kernel, indent + 1);
      os << pad << "}\n";
      break;
    case StmtKind::kWhile:
      os << pad << "while (" << pretty_expr(s.a, kernel) << ") {\n";
      print_block(os, s.body, kernel, indent + 1);
      os << pad << "}\n";
      break;
    case StmtKind::kBarrier:
      os << pad << "barrier(CLK_LOCAL_MEM_FENCE);\n";
      break;
    case StmtKind::kAtomic: {
      const char* name = "atomic_add";
      switch (s.atomic) {
        case AtomicOp::kAdd: name = "atomic_add"; break;
        case AtomicOp::kMin: name = "atomic_min"; break;
        case AtomicOp::kMax: name = "atomic_max"; break;
        case AtomicOp::kAnd: name = "atomic_and"; break;
        case AtomicOp::kOr: name = "atomic_or"; break;
        case AtomicOp::kXor: name = "atomic_xor"; break;
        case AtomicOp::kExchange: name = "atomic_xchg"; break;
        case AtomicOp::kCmpxchg: name = "atomic_cmpxchg"; break;
      }
      os << pad;
      if (!s.result_var.empty()) os << "int " << s.result_var << " = ";
      os << name << "(&" << buffer_name(kernel, s.buffer, s.is_local) << "["
         << pretty_expr(s.a, kernel) << "], " << pretty_expr(s.b, kernel) << ");\n";
      break;
    }
    case StmtKind::kPrint:
      os << pad << "printf(\"" << s.text << "\"";
      for (const auto& arg : s.print_args) os << ", " << pretty_expr(arg, kernel);
      os << ");\n";
      break;
  }
}

}  // namespace

bool Kernel::has_barrier() const { return stmts_contain(body, StmtKind::kBarrier); }
bool Kernel::has_atomic() const { return stmts_contain(body, StmtKind::kAtomic); }
bool Kernel::has_print() const { return stmts_contain(body, StmtKind::kPrint); }

uint32_t Kernel::local_bytes() const {
  uint32_t total = 0;
  for (const auto& array : locals) total += array.size * 4;
  return total;
}

std::string Kernel::to_string() const {
  std::ostringstream os;
  os << "__kernel void " << name << "(";
  for (size_t i = 0; i < params.size(); ++i) {
    if (i) os << ", ";
    if (params[i].is_buffer) {
      os << "__global " << kir::to_string(params[i].elem) << "* " << params[i].name;
    } else {
      os << kir::to_string(params[i].elem) << " " << params[i].name;
    }
  }
  os << ") {\n";
  for (const auto& array : locals) {
    os << "  __local " << kir::to_string(array.elem) << " " << array.name << "[" << array.size
       << "];\n";
  }
  print_block(os, body, *this, 1);
  os << "}\n";
  return os.str();
}

}  // namespace fgpu::kir
