// KIR — the kernel intermediate representation.
//
// KIR plays the role OpenCL C + LLVM IR play in the paper's two flows
// (Fig. 2): benchmarks are written once against KIR, and the *same* kernel
// is consumed by
//   * the soft-GPU kernel compiler (codegen/ -> Vortex ISA binary), the
//     stand-in for the PoCL+LLVM pipeline of Fig. 5, and
//   * the HLS compiler model (hls/ -> pipelined datapath + area report),
//     the stand-in for the Intel AOC pipeline of Fig. 3.
//
// KIR is structured (expressions + statement trees, not a CFG), which
// mirrors the source level at which the paper's optimizations operate:
// "variable reuse" (O1) is an expression-level CSE pass and "pipelined
// load" (O2) is a per-load annotation, exactly as in Fig. 6's listings.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fgpu::kir {

enum class Scalar : uint8_t { kI32, kF32 };

inline const char* to_string(Scalar s) { return s == Scalar::kI32 ? "int" : "float"; }

// ---------------------------------------------------------------------------
// Expressions (immutable trees)
//
// An Expr is never mutated once built. Rewrites (const_fold, LICM, strength
// reduction, CSE, pipelined-load marking) rebuild only the nodes on the path
// to a change (rebuild_args below) and keep every untouched subtree as the
// same pointer, so after a rewrite one node may be shared by several parents
// or statements. The exception is expand_builtins' output: it copies every
// node, giving each occurrence its own node, because load sites are keyed by
// node address (see expand_builtins in passes.hpp).
// ---------------------------------------------------------------------------

enum class ExprKind : uint8_t {
  kConstInt,
  kConstFloat,
  kVar,      // reference to a let-bound or loop variable
  kParam,    // scalar kernel parameter
  kBinary,
  kUnary,
  kSelect,   // cond ? a : b (lane-wise)
  kCast,     // i32 <-> f32 value conversion
  kLoad,     // buffer[index]; buffer is a kernel param or a __local array
  kSpecial,  // work-item built-ins (get_global_id etc.)
  kCall,     // math built-ins
};

enum class BinOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kRem,
  kAnd, kOr, kXor, kShl, kShr,
  kMin, kMax,
  kLt, kLe, kGt, kGe, kEq, kNe,  // produce i32 0/1
  kLAnd, kLOr,                   // logical (operands are i32 0/1)
};

enum class UnOp : uint8_t { kNeg, kNot, kAbs, kBitcastI2F, kBitcastF2I };

enum class Builtin : uint8_t { kSqrt, kRsqrt, kExp, kLog, kFloor, kPowi };

// OpenCL work-item functions; `index` holds the dimension (0..2).
enum class SpecialReg : uint8_t {
  kGlobalId, kLocalId, kGroupId,
  kGlobalSize, kLocalSize, kNumGroups,
};

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  ExprKind kind;
  Scalar type = Scalar::kI32;

  int32_t ival = 0;   // kConstInt
  float fval = 0.0f;  // kConstFloat
  std::string var;    // kVar name
  int index = 0;      // kParam: param index | kLoad: buffer param index or
                      // local slot | kSpecial: dimension
  bool is_local = false;   // kLoad from __local memory
  bool pipelined = false;  // kLoad marked __pipelined_load (paper O2)

  BinOp bin = BinOp::kAdd;
  UnOp un = UnOp::kNeg;
  Builtin call = Builtin::kSqrt;
  SpecialReg special = SpecialReg::kGlobalId;

  std::vector<ExprPtr> args;

  const ExprPtr& a() const { return args[0]; }
  const ExprPtr& b() const { return args[1]; }
  const ExprPtr& c() const { return args[2]; }
};

// Copy-on-write child rewrite: applies `fn` to each argument of `e` and
// returns `e` itself when every result is the argument's own pointer,
// otherwise a copy of `e` holding the new arguments.
template <typename Fn>
ExprPtr rebuild_args(const ExprPtr& e, Fn&& fn) {
  std::shared_ptr<Expr> copy;
  for (size_t i = 0; i < e->args.size(); ++i) {
    ExprPtr arg = fn(e->args[i]);
    if (arg == e->args[i]) continue;
    if (!copy) copy = std::make_shared<Expr>(*e);
    copy->args[i] = std::move(arg);
  }
  if (!copy) return e;
  return copy;
}

// Structural helpers (used by CSE, the verifier and the HLS DFG builder).
bool expr_equal(const ExprPtr& a, const ExprPtr& b);
size_t expr_hash(const ExprPtr& e);
size_t expr_size(const ExprPtr& e);  // node count
std::string expr_to_string(const ExprPtr& e);
// Appends expr_to_string(e) to `out`. Once `out` is longer than
// `stop_after`, no further node is rendered; the bytes written are always a
// prefix of the full rendering.
void append_expr(std::string& out, const ExprPtr& e, size_t stop_after = std::string::npos);
bool expr_is_pure(const ExprPtr& e);  // no loads
// True if the expression contains a load from the given buffer/local slot.
bool expr_reads_buffer(const ExprPtr& e, int buffer, bool is_local);
bool expr_contains_load(const ExprPtr& e);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : uint8_t {
  kLet,      // let var = expr       (single assignment introduction)
  kAssign,   // var = expr           (mutation of an existing variable)
  kStore,    // buffer[index] = value
  kIf,
  kFor,      // for (var = a; var < b; var += c)
  kWhile,    // while (cond)
  kBarrier,  // OpenCL barrier(CLK_LOCAL_MEM_FENCE)
  kAtomic,   // result_var = atomic_op(&buffer[index], value)
  kPrint,    // OpenCL printf
};

enum class AtomicOp : uint8_t { kAdd, kMin, kMax, kAnd, kOr, kXor, kExchange, kCmpxchg };

struct Stmt;
using StmtPtr = std::shared_ptr<Stmt>;

struct Stmt {
  StmtKind kind;

  std::string var;  // kLet/kAssign target, kFor induction variable
  ExprPtr a, b, c;  // kLet/kAssign: a = value
                    // kStore: a = index, b = value
                    // kIf/kWhile: a = condition
                    // kFor: a = begin, b = end, c = step
                    // kAtomic: a = index, b = operand, c = compare (cmpxchg)
  int buffer = -1;         // kStore/kAtomic target (param index or local slot)
  bool is_local = false;   // target is a __local array
  AtomicOp atomic = AtomicOp::kAdd;
  std::string result_var;  // kAtomic: optional old-value destination

  std::vector<StmtPtr> body;       // kIf then / loop body
  std::vector<StmtPtr> else_body;  // kIf else

  std::string text;                // kPrint format string
  std::vector<ExprPtr> print_args;

  // Filled by analysis passes (divergence analysis for codegen).
  bool divergent = true;
};

// ---------------------------------------------------------------------------
// Kernels and modules
// ---------------------------------------------------------------------------

struct Param {
  std::string name;
  bool is_buffer = false;
  Scalar elem = Scalar::kI32;  // buffer element type, or scalar type
};

struct LocalArray {
  std::string name;
  Scalar elem = Scalar::kF32;
  uint32_t size = 0;  // elements
};

struct Kernel {
  std::string name;
  std::vector<Param> params;
  std::vector<LocalArray> locals;
  std::vector<StmtPtr> body;

  bool has_barrier() const;
  bool has_atomic() const;
  bool has_print() const;
  uint32_t local_bytes() const;
  std::string to_string() const;  // OpenCL-like pretty print (Fig. 6 listings)
};

struct Module {
  std::string name;
  std::vector<Kernel> kernels;

  const Kernel* find(const std::string& kernel_name) const {
    for (const auto& k : kernels) {
      if (k.name == kernel_name) return &k;
    }
    return nullptr;
  }
};

// NDRange of a kernel launch (OpenCL clEnqueueNDRangeKernel geometry).
struct NDRange {
  uint32_t dims = 1;
  uint32_t global[3] = {1, 1, 1};
  uint32_t local[3] = {1, 1, 1};

  uint64_t global_items() const {
    return static_cast<uint64_t>(global[0]) * global[1] * global[2];
  }
  uint32_t local_items() const { return local[0] * local[1] * local[2]; }
  uint32_t num_groups(uint32_t d) const { return global[d] / local[d]; }
  uint64_t total_groups() const {
    return static_cast<uint64_t>(num_groups(0)) * num_groups(1) * num_groups(2);
  }

  static NDRange linear(uint32_t n, uint32_t wg = 64) {
    NDRange r;
    r.dims = 1;
    r.global[0] = n;
    r.local[0] = wg;
    return r;
  }
  static NDRange grid2d(uint32_t nx, uint32_t ny, uint32_t lx = 8, uint32_t ly = 8) {
    NDRange r;
    r.dims = 2;
    r.global[0] = nx;
    r.global[1] = ny;
    r.local[0] = lx;
    r.local[1] = ly;
    return r;
  }
};

}  // namespace fgpu::kir
