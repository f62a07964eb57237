// KIR tests: builder/printer, verifier diagnostics, constant folding,
// the O1 (CSE) / O2 (pipelined-load) passes, builtin expansion, divergence
// analysis, structural helpers, and kernel cloning.
#include <gtest/gtest.h>

#include <functional>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "kir/build.hpp"
#include "kir/interp.hpp"
#include "kir/passes.hpp"

namespace fgpu::kir {
namespace {

TEST(KirBuilderTest, PrinterProducesOpenClLikeSource) {
  KernelBuilder kb("axpb");
  Buf x = kb.buf_f32("x"), y = kb.buf_f32("y");
  Val a = kb.param_f32("a");
  Val gid = kb.global_id(0);
  kb.store(y, gid, a * kb.load(x, gid) + 1.0f);
  const std::string source = kb.build().to_string();
  EXPECT_NE(source.find("__kernel void axpb"), std::string::npos);
  EXPECT_NE(source.find("__global float* x"), std::string::npos);
  EXPECT_NE(source.find("get_global_id(0)"), std::string::npos);
  EXPECT_NE(source.find("y["), std::string::npos);
}

TEST(KirBuilderTest, FreshNamesNeverCollide) {
  KernelBuilder kb("k");
  Val a = kb.let_("v", Val(1));
  Val b = kb.let_("v", Val(2));
  EXPECT_NE(a.expr()->var, b.expr()->var);
}

TEST(KirBuilderTest, MixedTypePromotion) {
  KernelBuilder kb("k");
  Val f = kb.param_f32("f");
  Val combined = f + 1;  // int constant adapts to float
  EXPECT_EQ(combined.type(), Scalar::kF32);
  Val cmp = f < 2;
  EXPECT_EQ(cmp.type(), Scalar::kI32);
}

TEST(KirVerifierTest, AcceptsWellFormedKernel) {
  KernelBuilder kb("ok");
  Buf buf = kb.buf_i32("buf");
  Val gid = kb.global_id(0);
  Val v = kb.let_("v", kb.load(buf, gid));
  kb.if_(v > 0, [&] { kb.store(buf, gid, v - 1); });
  EXPECT_TRUE(verify(kb.build()).is_ok());
}

TEST(KirVerifierTest, RejectsUndefinedVariable) {
  Kernel kernel;
  kernel.name = "bad";
  kernel.params.push_back(Param{"out", true, Scalar::kI32});
  auto store = std::make_shared<Stmt>();
  store->kind = StmtKind::kStore;
  store->buffer = 0;
  store->a = make_ci32(0);
  store->b = make_var("ghost", Scalar::kI32);
  kernel.body.push_back(store);
  auto status = verify(kernel);
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("ghost"), std::string::npos);
}

TEST(KirVerifierTest, RejectsStoreToScalarParam) {
  Kernel kernel;
  kernel.name = "bad";
  kernel.params.push_back(Param{"n", false, Scalar::kI32});
  auto store = std::make_shared<Stmt>();
  store->kind = StmtKind::kStore;
  store->buffer = 0;
  store->a = make_ci32(0);
  store->b = make_ci32(1);
  kernel.body.push_back(store);
  EXPECT_FALSE(verify(kernel).is_ok());
}

TEST(KirVerifierTest, RejectsLoopVariableMutation) {
  Kernel kernel;
  kernel.name = "bad";
  auto loop = std::make_shared<Stmt>();
  loop->kind = StmtKind::kFor;
  loop->var = "i";
  loop->a = make_ci32(0);
  loop->b = make_ci32(4);
  loop->c = make_ci32(1);
  auto assign = std::make_shared<Stmt>();
  assign->kind = StmtKind::kAssign;
  assign->var = "i";
  assign->a = make_ci32(0);
  loop->body.push_back(assign);
  kernel.body.push_back(loop);
  EXPECT_FALSE(verify(kernel).is_ok());
}

TEST(KirVerifierTest, RejectsDuplicateKernelNames) {
  Module module;
  KernelBuilder a("same"), b("same");
  module.kernels.push_back(a.build());
  module.kernels.push_back(b.build());
  EXPECT_FALSE(verify(module).is_ok());
}

TEST(KirConstFoldTest, FoldsArithmetic) {
  KernelBuilder kb("k");
  Buf out = kb.buf_i32("out");
  kb.store(out, Val(0), Val(2) + Val(3) * Val(4));
  Kernel kernel = kb.build();
  EXPECT_GT(const_fold(kernel), 0);
  EXPECT_EQ(kernel.body[0]->b->kind, ExprKind::kConstInt);
  EXPECT_EQ(kernel.body[0]->b->ival, 14);
}

TEST(KirConstFoldTest, FoldsIdentities) {
  KernelBuilder kb("k");
  Buf out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  kb.store(out, gid + 0, (gid * 1) + (gid * 0));
  Kernel kernel = kb.build();
  const_fold(kernel);
  // gid + 0 -> gid; gid*1 + gid*0 -> gid.
  EXPECT_EQ(kernel.body[0]->a->kind, ExprKind::kSpecial);
  EXPECT_EQ(kernel.body[0]->b->kind, ExprKind::kSpecial);
}

TEST(KirConstFoldTest, DoesNotFoldDivisionByZero) {
  KernelBuilder kb("k");
  Buf out = kb.buf_i32("out");
  kb.store(out, Val(0), Val(5) / Val(0));
  Kernel kernel = kb.build();
  const_fold(kernel);
  EXPECT_EQ(kernel.body[0]->b->kind, ExprKind::kBinary);  // left for runtime semantics
}

TEST(KirCseTest, HoistsRepeatedLoads) {
  KernelBuilder kb("k");
  Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  kb.store(out, gid * 2, kb.load(a, gid) * kb.load(a, gid));
  kb.store(out, gid * 2 + 1, kb.load(a, gid) + 1.0f);
  Kernel kernel = kb.build();
  const auto before = kernel.to_string();
  EXPECT_GE(cse_variable_reuse(kernel), 1);
  EXPECT_TRUE(verify(kernel).is_ok());
  // Only one load of a[gid] remains.
  int loads = 0;
  std::function<void(const ExprPtr&)> count = [&](const ExprPtr& e) {
    if (e->kind == ExprKind::kLoad) ++loads;
    for (const auto& arg : e->args) count(arg);
  };
  for (const auto& s : kernel.body) {
    if (s->a) count(s->a);
    if (s->b) count(s->b);
  }
  EXPECT_EQ(loads, 1) << "before:\n" << before << "after:\n" << kernel.to_string();
}

TEST(KirCseTest, RefusesToReuseAcrossInterveningStore) {
  // out[0] is read, then written, then read again: the second read must NOT
  // be replaced by the first value.
  KernelBuilder kb("k");
  Buf out = kb.buf_i32("out");
  Val first = kb.let_("first", kb.load(out, Val(0)) + 5);
  kb.store(out, Val(0), first);
  Val second = kb.let_("second", kb.load(out, Val(0)) + 5);
  kb.store(out, Val(1), second);
  Kernel kernel = kb.build();
  cse_variable_reuse(kernel);
  EXPECT_TRUE(verify(kernel).is_ok());
  // Semantics preserved: interpret and check.
  std::vector<uint32_t> data = {10, 0};
  Interpreter interp;
  ASSERT_TRUE(interp.run(kernel, {KernelArg::buffer(&data)}, NDRange::linear(1, 1)).is_ok());
  EXPECT_EQ(data[0], 15u);
  EXPECT_EQ(data[1], 20u);
}

TEST(KirCseTest, SemanticsPreservedOnListingOneShape) {
  // The paper's Listing 1 -> Listing 2 transformation must not change
  // results (w is both read and written).
  KernelBuilder kb("bpnn");
  Buf delta = kb.buf_f32("delta"), ly = kb.buf_f32("ly"), w = kb.buf_f32("w"),
      oldw = kb.buf_f32("oldw");
  Val gid = kb.global_id(0);
  kb.store(w, gid,
           kb.load(w, gid) + (0.3f * kb.load(delta, gid) * kb.load(ly, gid)) +
               (0.3f * kb.load(oldw, gid)));
  kb.store(oldw, gid,
           (0.3f * kb.load(delta, gid) * kb.load(ly, gid)) + (0.3f * kb.load(oldw, gid)));
  Kernel original = kb.build();
  Kernel optimized = clone_kernel(original);
  EXPECT_GE(cse_variable_reuse(optimized), 1);

  const uint32_t n = 16;
  std::vector<uint32_t> d(n), l(n), w0(n), ow0(n);
  Rng rng(5);
  for (uint32_t i = 0; i < n; ++i) {
    d[i] = f2u(rng.next_float(-1, 1));
    l[i] = f2u(rng.next_float(-1, 1));
    w0[i] = f2u(rng.next_float(-1, 1));
    ow0[i] = f2u(rng.next_float(-1, 1));
  }
  auto run = [&](const Kernel& kernel) {
    std::vector<uint32_t> dd = d, ll = l, ww = w0, oo = ow0;
    Interpreter interp;
    EXPECT_TRUE(interp
                    .run(kernel,
                         {KernelArg::buffer(&dd), KernelArg::buffer(&ll), KernelArg::buffer(&ww),
                          KernelArg::buffer(&oo)},
                         NDRange::linear(n, 8))
                    .is_ok());
    return std::pair{ww, oo};
  };
  EXPECT_EQ(run(original), run(optimized));
}

TEST(KirPipelinedTest, MarksAllGlobalLoadsOnly) {
  KernelBuilder kb("k");
  Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
  Buf tile = kb.local_f32("tile", 8);
  Val gid = kb.global_id(0);
  kb.store(tile, gid & 7, kb.load(a, gid));
  kb.store(out, gid, kb.load(tile, gid & 7) + kb.load(a, gid + 1));
  Kernel kernel = kb.build();
  EXPECT_EQ(mark_pipelined_loads(kernel), 2);  // both global loads, not the local one
  EXPECT_EQ(mark_pipelined_loads(kernel), 0);  // idempotent
}

TEST(KirPipelinedTest, LetsOnlyVariant) {
  KernelBuilder kb("k");
  Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  Val hoisted = kb.let_("hoisted", kb.load(a, gid));
  kb.store(out, gid, hoisted + kb.load(a, gid + 1));
  Kernel kernel = kb.build();
  EXPECT_EQ(mark_pipelined_loads_in_lets(kernel), 1);  // only the let initializer
}

TEST(KirBuiltinExpansionTest, RemovesAllSoftwareBuiltins) {
  KernelBuilder kb("k");
  Buf out = kb.buf_f32("out");
  Val x = kb.param_f32("x");
  kb.store(out, Val(0), vexp(x) + vlog(x) + vfloor(x) + vrsqrt(x) + vsqrt(x));
  Kernel kernel = kb.build();
  EXPECT_EQ(expand_builtins(kernel), 4);  // sqrt stays native
  // No exp/log/floor/rsqrt calls remain.
  std::function<bool(const ExprPtr&)> has_soft_call = [&](const ExprPtr& e) {
    if (e->kind == ExprKind::kCall && e->call != Builtin::kSqrt) return true;
    for (const auto& arg : e->args) {
      if (has_soft_call(arg)) return true;
    }
    return false;
  };
  EXPECT_FALSE(has_soft_call(kernel.body[0]->b));
}

TEST(KirDivergenceTest, ClassifiesControlFlow) {
  KernelBuilder kb("k");
  Buf data = kb.buf_i32("data");
  Val n = kb.param_i32("n");
  Val gid = kb.global_id(0);
  kb.if_(n > 4, [&] {});                              // uniform (param only)
  kb.if_(gid > 4, [&] {});                            // divergent (global id)
  kb.for_("i", Val(0), n, [&](Val) {});               // uniform bounds
  kb.for_("j", Val(0), kb.load(data, gid), [&](Val) {});  // divergent bounds
  Kernel kernel = kb.build();
  analyze_divergence(kernel, /*group_id_uniform=*/false);
  EXPECT_FALSE(kernel.body[0]->divergent);
  EXPECT_TRUE(kernel.body[1]->divergent);
  EXPECT_FALSE(kernel.body[2]->divergent);
  EXPECT_TRUE(kernel.body[3]->divergent);
}

TEST(KirDivergenceTest, UniformLoadIsUniform) {
  KernelBuilder kb("k");
  Buf data = kb.buf_i32("data");
  Val v = kb.let_("v", kb.load(data, Val(0)));  // uniform index -> uniform value
  kb.if_(v > 0, [&] {});
  Kernel kernel = kb.build();
  analyze_divergence(kernel, false);
  EXPECT_FALSE(kernel.body[1]->divergent);
}

TEST(KirDivergenceTest, DivergenceFlowsThroughAssignmentsInLoops) {
  KernelBuilder kb("k");
  Val gid = kb.global_id(0);
  Val acc = kb.let_("acc", Val(0));  // starts uniform
  kb.for_("i", Val(0), Val(4), [&](Val) {
    kb.assign(acc, acc + gid);  // becomes divergent inside the loop
  });
  kb.if_(acc > 0, [&] {});
  Kernel kernel = kb.build();
  analyze_divergence(kernel, false);
  EXPECT_TRUE(kernel.body[2]->divergent);  // fixpoint propagated
}

TEST(KirDivergenceTest, GroupIdUniformityDependsOnDispatch) {
  for (const bool group_uniform : {true, false}) {
    KernelBuilder kb("k");
    Val grp = kb.group_id(0);
    kb.if_(grp > 0, [&] {});
    Kernel kernel = kb.build();
    analyze_divergence(kernel, group_uniform);
    EXPECT_EQ(kernel.body[0]->divergent, !group_uniform);
  }
}

TEST(KirStructuralTest, ExprEqualityAndHashing) {
  KernelBuilder kb("k");
  Val gid = kb.global_id(0);
  const ExprPtr a = (gid * 4 + 1).expr();
  const ExprPtr b = (kb.global_id(0) * 4 + 1).expr();
  const ExprPtr c = (gid * 4 + 2).expr();
  EXPECT_TRUE(expr_equal(a, b));
  EXPECT_FALSE(expr_equal(a, c));
  EXPECT_EQ(expr_hash(a), expr_hash(b));
  EXPECT_EQ(expr_size(a), 5u);
}

TEST(KirStructuralTest, PurityAndBufferReads) {
  KernelBuilder kb("k");
  Buf buf = kb.buf_i32("buf");
  Val gid = kb.global_id(0);
  const ExprPtr pure = (gid + 1).expr();
  const ExprPtr loady = (kb.load(buf, gid) + 1).expr();
  EXPECT_TRUE(expr_is_pure(pure));
  EXPECT_FALSE(expr_is_pure(loady));
  EXPECT_TRUE(expr_reads_buffer(loady, 0, false));
  EXPECT_FALSE(expr_reads_buffer(loady, 1, false));
  EXPECT_FALSE(expr_reads_buffer(loady, 0, true));
}

TEST(KirCloneTest, CloneIsDeep) {
  KernelBuilder kb("k");
  Buf out = kb.buf_i32("out");
  kb.if_(kb.global_id(0) > 0, [&] { kb.store(out, Val(0), Val(1)); });
  Kernel original = kb.build();
  Kernel copy = clone_kernel(original);
  copy.body[0]->divergent = true;
  original.body[0]->divergent = false;
  EXPECT_TRUE(copy.body[0]->divergent);
  EXPECT_FALSE(original.body[0]->divergent);
  EXPECT_NE(copy.body[0].get(), original.body[0].get());
  EXPECT_NE(copy.body[0]->body[0].get(), original.body[0]->body[0].get());
}

// ---------------------------------------------------------------------------
// Printer: the exact text of every node kind (source-map labels, remark
// sites and HLS site names are built from it)
// ---------------------------------------------------------------------------

ExprPtr param_expr(int index, Scalar type) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kParam;
  e->type = type;
  e->index = index;
  return e;
}

TEST(KirPrinterTest, EveryExprKindHasItsExactText) {
  const ExprPtr v = make_var("v", Scalar::kI32);
  const ExprPtr f = make_var("f", Scalar::kF32);
  const ExprPtr c3 = make_ci32(3);
  EXPECT_EQ(expr_to_string(nullptr), "<null>");
  EXPECT_EQ(expr_to_string(make_ci32(-2147483647 - 1)), "-2147483648");
  EXPECT_EQ(expr_to_string(v), "v");
  EXPECT_EQ(expr_to_string(param_expr(12, Scalar::kI32)), "param12");
  EXPECT_EQ(expr_to_string(make_bin(BinOp::kAdd, v, c3)), "(v + 3)");
  EXPECT_EQ(expr_to_string(make_bin(BinOp::kShr, v, c3)), "(v >> 3)");
  EXPECT_EQ(expr_to_string(make_bin(BinOp::kLAnd, v, c3)), "(v && 3)");
  EXPECT_EQ(expr_to_string(make_bin(BinOp::kNe, v, c3)), "(v != 3)");
  EXPECT_EQ(expr_to_string(make_bin(BinOp::kMin, v, c3)), "min(v, 3)");
  EXPECT_EQ(expr_to_string(make_bin(BinOp::kMax, f, make_cf32(0.5f))), "max(f, 0.5f)");
  EXPECT_EQ(expr_to_string(make_un(UnOp::kNeg, v)), "(-v)");
  EXPECT_EQ(expr_to_string(make_un(UnOp::kNot, v)), "(!v)");
  EXPECT_EQ(expr_to_string(make_un(UnOp::kAbs, v)), "fabs(v)");
  EXPECT_EQ(expr_to_string(make_un(UnOp::kBitcastI2F, v)), "as_float(v)");
  EXPECT_EQ(expr_to_string(make_un(UnOp::kBitcastF2I, f)), "as_int(f)");
  EXPECT_EQ(expr_to_string(make_select(v, f, make_cf32(1.0f))), "(v ? f : 1f)");
  EXPECT_EQ(expr_to_string(make_cast(Scalar::kF32, v)), "(float)(v)");
  EXPECT_EQ(expr_to_string(make_cast(Scalar::kI32, f)), "(int)(f)");
  EXPECT_EQ(expr_to_string(make_load(2, Scalar::kF32, false, v)), "buf2[v]");
  EXPECT_EQ(expr_to_string(make_load(1, Scalar::kI32, true, v)), "local1[v]");
  EXPECT_EQ(expr_to_string(make_load(2, Scalar::kF32, false, v, /*pipelined=*/true)),
            "__pipelined_load(buf2 + v)");
  EXPECT_EQ(expr_to_string(make_special(SpecialReg::kGlobalId, 0)), "get_global_id(0)");
  EXPECT_EQ(expr_to_string(make_special(SpecialReg::kLocalId, 1)), "get_local_id(1)");
  EXPECT_EQ(expr_to_string(make_special(SpecialReg::kGroupId, 2)), "get_group_id(2)");
  EXPECT_EQ(expr_to_string(make_special(SpecialReg::kGlobalSize, 0)), "get_global_size(0)");
  EXPECT_EQ(expr_to_string(make_special(SpecialReg::kLocalSize, 1)), "get_local_size(1)");
  EXPECT_EQ(expr_to_string(make_special(SpecialReg::kNumGroups, 2)), "get_num_groups(2)");
  EXPECT_EQ(expr_to_string(make_call(Builtin::kSqrt, {f})), "sqrt(f)");
  EXPECT_EQ(expr_to_string(make_call(Builtin::kRsqrt, {f})), "rsqrt(f)");
  EXPECT_EQ(expr_to_string(make_call(Builtin::kExp, {f})), "exp(f)");
  EXPECT_EQ(expr_to_string(make_call(Builtin::kLog, {f})), "log(f)");
  EXPECT_EQ(expr_to_string(make_call(Builtin::kFloor, {f})), "floor(f)");
  EXPECT_EQ(expr_to_string(make_call(Builtin::kPowi, {f, c3})), "powi(f, 3)");
  // Nesting composes the forms above.
  EXPECT_EQ(expr_to_string(make_load(0, Scalar::kI32, false,
                                     make_bin(BinOp::kMul, param_expr(1, Scalar::kI32),
                                              make_special(SpecialReg::kGlobalId, 0)))),
            "buf0[(param1 * get_global_id(0))]");
}

TEST(KirPrinterTest, FloatConstantsUseShortestSixDigitForm) {
  EXPECT_EQ(expr_to_string(make_cf32(0.1f)), "0.1f");
  EXPECT_EQ(expr_to_string(make_cf32(1e-07f)), "1e-07f");
  EXPECT_EQ(expr_to_string(make_cf32(1e+08f)), "1e+08f");
  EXPECT_EQ(expr_to_string(make_cf32(3.0f)), "3f");
  EXPECT_EQ(expr_to_string(make_cf32(-0.0f)), "-0f");
  EXPECT_EQ(expr_to_string(make_cf32(0.69314718f)), "0.693147f");
  EXPECT_EQ(expr_to_string(make_cf32(123456789.0f)), "1.23457e+08f");
}

Stmt let_stmt(const std::string& var, ExprPtr value) {
  Stmt s;
  s.kind = StmtKind::kLet;
  s.var = var;
  s.a = std::move(value);
  return s;
}

TEST(KirPrinterTest, StmtSummaryCapsAtEightyCharacters) {
  const Kernel kernel;
  // "let x = (" + name + " + 1)" is 14 characters plus the name.
  const auto sum_with = [](size_t name_len) {
    return make_bin(BinOp::kAdd, make_var(std::string(name_len, 'a'), Scalar::kI32),
                    make_ci32(1));
  };
  const std::string exact = stmt_summary(kernel, let_stmt("x", sum_with(66)));
  EXPECT_EQ(exact, "let x = (" + std::string(66, 'a') + " + 1)");
  EXPECT_EQ(exact.size(), 80u);
  // 81 characters: the first 77 survive, then "...".
  const std::string over = stmt_summary(kernel, let_stmt("x", sum_with(67)));
  EXPECT_EQ(over, "let x = (" + std::string(67, 'a') + " ...");
  EXPECT_EQ(over.size(), 80u);

  // A long expression is cut at the same byte as its full rendering.
  ExprPtr chain = make_var("v", Scalar::kI32);
  for (int i = 0; i < 40; ++i) chain = make_bin(BinOp::kAdd, chain, make_ci32(i));
  const std::string full = "let x = " + expr_to_string(chain);
  ASSERT_GT(full.size(), 200u);
  EXPECT_EQ(stmt_summary(kernel, let_stmt("x", chain)), full.substr(0, 77) + "...");
}

TEST(KirKernelTest, FeatureQueries) {
  KernelBuilder kb("k");
  Buf bins = kb.buf_i32("bins");
  kb.barrier();
  kb.atomic_add(bins, Val(0), Val(1));
  kb.print("x\n", {});
  Kernel kernel = kb.build();
  EXPECT_TRUE(kernel.has_barrier());
  EXPECT_TRUE(kernel.has_atomic());
  EXPECT_TRUE(kernel.has_print());
  KernelBuilder plain("p");
  Kernel plain_kernel = plain.build();
  EXPECT_FALSE(plain_kernel.has_barrier());
  EXPECT_FALSE(plain_kernel.has_atomic());
  EXPECT_FALSE(plain_kernel.has_print());
}

TEST(KirNdrangeTest, Geometry) {
  const NDRange r = NDRange::grid2d(64, 32, 8, 4);
  EXPECT_EQ(r.global_items(), 2048u);
  EXPECT_EQ(r.local_items(), 32u);
  EXPECT_EQ(r.num_groups(0), 8u);
  EXPECT_EQ(r.num_groups(1), 8u);
  EXPECT_EQ(r.total_groups(), 64u);
}

}  // namespace
}  // namespace fgpu::kir
