// Reference-interpreter tests: SIMT semantics (masks, loops, barriers),
// dynamic safety checks (out-of-bounds, barrier divergence, runaway
// guards), atomics, printf formatting, malformed-kernel rejection, and the
// op-count and per-site-count contracts.
#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "kir/build.hpp"
#include "kir/interp.hpp"

namespace fgpu::kir {
namespace {

TEST(InterpTest, OutOfBoundsLoadIsReported) {
  KernelBuilder kb("oob");
  Buf a = kb.buf_i32("a"), out = kb.buf_i32("out");
  kb.store(out, Val(0), kb.load(a, Val(100)));
  std::vector<uint32_t> data(4), result(4);
  Interpreter interp;
  auto status = interp.run(kb.build(), {KernelArg::buffer(&data), KernelArg::buffer(&result)},
                           NDRange::linear(1, 1));
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("out-of-bounds"), std::string::npos);
  EXPECT_NE(status.message().find("a[100]"), std::string::npos);
}

TEST(InterpTest, OutOfBoundsLocalIsReported) {
  KernelBuilder kb("oob_local");
  Buf tile = kb.local_i32("tile", 8);
  kb.store(tile, Val(9), Val(1));
  Interpreter interp;
  auto status = interp.run(kb.build(), {}, NDRange::linear(1, 1));
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("__local"), std::string::npos);
}

TEST(InterpTest, BarrierUnderDivergenceIsAnError) {
  KernelBuilder kb("bad_barrier");
  kb.if_(kb.local_id(0) < 2, [&] { kb.barrier(); });
  Interpreter interp;
  auto status = interp.run(kb.build(), {}, NDRange::linear(4, 4));
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("divergent"), std::string::npos);
}

TEST(InterpTest, RunawayLoopHitsStatementBudget) {
  KernelBuilder kb("forever");
  Val go = kb.let_("go", Val(1));
  kb.while_(go == 1, [&] {});
  InterpOptions options;
  options.max_statements = 10'000;
  Interpreter interp(options);
  auto status = interp.run(kb.build(), {}, NDRange::linear(1, 1));
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("budget"), std::string::npos);
}

TEST(InterpTest, ShortCircuitPreventsOobEvaluation) {
  // gid < n && a[gid] -- the second operand must not evaluate when the
  // first is false (the guard idiom every benchmark uses).
  KernelBuilder kb("guard");
  Buf a = kb.buf_i32("a"), out = kb.buf_i32("out");
  Val n = kb.param_i32("n");
  Val gid = kb.global_id(0);
  kb.if_(gid < n && kb.load(a, gid) > 0, [&] { kb.store(out, gid, Val(1)); });
  std::vector<uint32_t> data = {5, 6};  // only 2 elements; launch is 4 wide
  std::vector<uint32_t> result(4, 0);
  Interpreter interp;
  auto status =
      interp.run(kb.build(), {KernelArg::buffer(&data), KernelArg::buffer(&result),
                              KernelArg::scalar_i32(2)},
                 NDRange::linear(4, 4));
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(result, (std::vector<uint32_t>{1, 1, 0, 0}));
}

TEST(InterpTest, SimtMasksInNestedControlFlow) {
  KernelBuilder kb("masks");
  Buf out = kb.buf_i32("out");
  Val lid = kb.local_id(0);
  Val v = kb.let_("v", Val(0));
  kb.if_(lid < 4, [&] {
    kb.for_("i", Val(0), lid + 1, [&](Val) { kb.assign(v, v + 10); });
  }, [&] { kb.assign(v, 999); });
  kb.store(out, kb.global_id(0), v);
  std::vector<uint32_t> result(8, 0);
  Interpreter interp;
  ASSERT_TRUE(interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(8, 8)).is_ok());
  EXPECT_EQ(result, (std::vector<uint32_t>{10, 20, 30, 40, 999, 999, 999, 999}));
}

TEST(InterpTest, WhileReevaluatesCondition) {
  KernelBuilder kb("halving");
  Buf out = kb.buf_i32("out");
  Val v = kb.let_("v", Val(100));
  Val steps = kb.let_("steps", Val(0));
  kb.while_(v > 1, [&] {
    kb.assign(v, v / 2);
    kb.assign(steps, steps + 1);
  });
  kb.store(out, Val(0), steps);
  std::vector<uint32_t> result(1, 0);
  Interpreter interp;
  ASSERT_TRUE(interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(1, 1)).is_ok());
  EXPECT_EQ(result[0], 6u);  // 100 -> 50 -> 25 -> 12 -> 6 -> 3 -> 1
}

TEST(InterpTest, AtomicsAreSequentiallyConsistentPerItemOrder) {
  KernelBuilder kb("atomic_order");
  Buf counter = kb.buf_i32("counter"), order = kb.buf_i32("order");
  Val ticket = kb.atomic_ret(AtomicOp::kAdd, counter, Val(0), Val(1));
  kb.store(order, kb.global_id(0), ticket);
  std::vector<uint32_t> counter_data(1, 0), order_data(8, 0);
  Interpreter interp;
  ASSERT_TRUE(interp
                  .run(kb.build(), {KernelArg::buffer(&counter_data), KernelArg::buffer(&order_data)},
                       NDRange::linear(8, 8))
                  .is_ok());
  EXPECT_EQ(counter_data[0], 8u);
  for (uint32_t i = 0; i < 8; ++i) EXPECT_EQ(order_data[i], i);  // item order
}

TEST(InterpTest, AtomicCmpxchg) {
  KernelBuilder kb("cas");
  Buf slot = kb.buf_i32("slot");
  auto stmt = std::make_shared<Stmt>();
  stmt->kind = StmtKind::kAtomic;
  stmt->atomic = AtomicOp::kCmpxchg;
  stmt->buffer = 0;
  stmt->a = make_ci32(0);
  stmt->b = make_ci32(42);  // desired
  stmt->c = make_ci32(7);   // expected
  Kernel kernel = kb.build();
  kernel.body.push_back(stmt);
  std::vector<uint32_t> data = {7};
  Interpreter interp;
  ASSERT_TRUE(interp.run(kernel, {KernelArg::buffer(&data)}, NDRange::linear(1, 1)).is_ok());
  EXPECT_EQ(data[0], 42u);
  data[0] = 9;  // expected mismatch: unchanged
  ASSERT_TRUE(interp.run(kernel, {KernelArg::buffer(&data)}, NDRange::linear(1, 1)).is_ok());
  EXPECT_EQ(data[0], 9u);
}

TEST(InterpTest, PrintfFormatting) {
  KernelBuilder kb("printer");
  kb.print("i=%d u=%u x=%x f=%f pct=%% end\n", {Val(-3), Val(7), Val(255), Val(1.5f)});
  std::vector<std::string> lines;
  InterpOptions options;
  options.print_sink = [&](const std::string& line) { lines.push_back(line); };
  Interpreter interp(options);
  ASSERT_TRUE(interp.run(kb.build(), {}, NDRange::linear(1, 1)).is_ok());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "i=-3 u=7 x=ff f=1.500000 pct=% end");
}

TEST(InterpTest, LocalMemoryIsPerGroup) {
  // Each group writes its group id into local memory; a stale value from a
  // previous group would corrupt the output.
  KernelBuilder kb("pergroup");
  Buf out = kb.buf_i32("out");
  Buf tile = kb.local_i32("tile", 4);
  Val lid = kb.local_id(0);
  kb.if_(lid == 0, [&] { kb.store(tile, Val(0), kb.group_id(0) + 100); });
  kb.barrier();
  kb.store(out, kb.global_id(0), kb.load(tile, Val(0)));
  std::vector<uint32_t> result(16, 0);
  Interpreter interp;
  ASSERT_TRUE(interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(16, 4)).is_ok());
  for (uint32_t i = 0; i < 16; ++i) EXPECT_EQ(result[i], 100 + i / 4) << i;
}

TEST(InterpTest, InstrumentationCountsDynamicAccesses) {
  KernelBuilder kb("instr");
  Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  Val acc = kb.let_("acc", Val(0.0f));
  kb.for_("i", Val(0), Val(4), [&](Val i) { kb.assign(acc, acc + kb.load(a, gid + i)); });
  kb.store(out, gid, acc);
  Interpreter interp;
  std::vector<uint32_t> data(16, f2u(1.0f)), result(8, 0);
  ASSERT_TRUE(interp
                  .run(kb.build(), {KernelArg::buffer(&data), KernelArg::buffer(&result)},
                       NDRange::linear(8, 8))
                  .is_ok());
  uint64_t loads = 0, stores = 0;
  for (const SiteCount& sc : interp.site_counts()) (sc.is_store ? stores : loads) += sc.count;
  EXPECT_EQ(loads, 8u * 4u);
  EXPECT_EQ(stores, 8u);
}

TEST(InterpTest, ArgumentValidation) {
  KernelBuilder kb("args");
  kb.buf_i32("buf");
  kb.param_i32("n");
  Kernel kernel = kb.build();
  Interpreter interp;
  std::vector<uint32_t> data(4);
  // Wrong count.
  EXPECT_FALSE(interp.run(kernel, {KernelArg::buffer(&data)}, NDRange::linear(1, 1)).is_ok());
  // Scalar passed for buffer.
  EXPECT_FALSE(interp
                   .run(kernel, {KernelArg::scalar_i32(1), KernelArg::scalar_i32(1)},
                        NDRange::linear(1, 1))
                   .is_ok());
  // Indivisible NDRange.
  NDRange bad = NDRange::linear(10, 4);
  EXPECT_FALSE(
      interp.run(kernel, {KernelArg::buffer(&data), KernelArg::scalar_i32(1)}, bad).is_ok());
}

TEST(InterpTest, SelectEvaluatesLazilyPerItem) {
  KernelBuilder kb("sel");
  Buf a = kb.buf_i32("a"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  // Guarded gather: index clamped by select; both arms valid here, values
  // must pick per item.
  kb.store(out, gid, vselect(gid < 2, kb.load(a, gid), Val(-1)));
  std::vector<uint32_t> data = {11, 22};
  std::vector<uint32_t> result(4, 0);
  Interpreter interp;
  ASSERT_TRUE(interp
                  .run(kb.build(), {KernelArg::buffer(&data), KernelArg::buffer(&result)},
                       NDRange::linear(4, 4))
                  .is_ok());
  EXPECT_EQ(result, (std::vector<uint32_t>{11, 22, 0xFFFFFFFFu, 0xFFFFFFFFu}));
}

TEST(InterpTest, IntegerDivisionMatchesRiscv) {
  KernelBuilder kb("divs");
  Buf out = kb.buf_i32("out");
  kb.store(out, Val(0), Val(7) / Val(0));                  // -1
  kb.store(out, Val(1), Val(7) % Val(0));                  // 7
  kb.store(out, Val(2), Val(-2147483647 - 1) / Val(-1));   // INT_MIN
  kb.store(out, Val(3), Val(-2147483647 - 1) % Val(-1));   // 0
  std::vector<uint32_t> result(4, 9);
  Interpreter interp;
  ASSERT_TRUE(interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(1, 1)).is_ok());
  EXPECT_EQ(static_cast<int32_t>(result[0]), -1);
  EXPECT_EQ(static_cast<int32_t>(result[1]), 7);
  EXPECT_EQ(result[2], 0x80000000u);
  EXPECT_EQ(result[3], 0u);
}

// A kernel whose only statement is `out[0] = <value>` guarded by a
// never-taken branch, so a rejection can only come from plan building.
Kernel guarded_store_kernel(const std::string& name, ExprPtr value) {
  KernelBuilder kb(name);
  kb.buf_i32("out");
  kb.param_i32("n");
  Kernel kernel = kb.build();
  auto store = std::make_shared<Stmt>();
  store->kind = StmtKind::kStore;
  store->buffer = 0;
  store->a = make_ci32(0);
  store->b = std::move(value);
  auto guard = std::make_shared<Stmt>();
  guard->kind = StmtKind::kIf;
  guard->a = make_ci32(0);
  guard->body.push_back(store);
  kernel.body.push_back(guard);
  return kernel;
}

TEST(InterpTest, OutOfRangeParamIsRejectedBeforeExecution) {
  auto param = std::make_shared<Expr>();
  param->kind = ExprKind::kParam;
  param->index = 5;  // the kernel has two params
  const Kernel kernel = guarded_store_kernel("bad_param", param);
  std::vector<uint32_t> out(1, 0);
  Interpreter interp;
  auto status = interp.run(kernel, {KernelArg::buffer(&out), KernelArg::scalar_i32(1)},
                           NDRange::linear(1, 1));
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.kind(), ErrorKind::kInvalidArgument);
  EXPECT_NE(status.message().find("bad_param"), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("param index 5"), std::string::npos) << status.message();
}

TEST(InterpTest, OutOfRangeWorkItemDimensionIsRejectedBeforeExecution) {
  auto special = std::make_shared<Expr>();
  special->kind = ExprKind::kSpecial;
  special->special = SpecialReg::kLocalId;
  special->index = 3;
  const Kernel kernel = guarded_store_kernel("bad_dim", special);
  std::vector<uint32_t> out(1, 0);
  Interpreter interp;
  auto status = interp.run(kernel, {KernelArg::buffer(&out), KernelArg::scalar_i32(1)},
                           NDRange::linear(1, 1));
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.kind(), ErrorKind::kInvalidArgument);
  EXPECT_NE(status.message().find("bad_dim"), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("dimension 3"), std::string::npos) << status.message();
}

TEST(InterpTest, AliasingStoreSeesEarlierItemsWrites) {
  // a[lid+1] = a[lid] + 1 reads what the previous item just wrote, so item
  // order gives the running prefix 0, 1, 2, ... rather than all ones.
  KernelBuilder kb("prefix");
  Buf a = kb.buf_i32("a");
  Val lid = kb.local_id(0);
  kb.store(a, lid + 1, kb.load(a, lid) + 1);
  std::vector<uint32_t> data(9, 0);
  Interpreter interp;
  ASSERT_TRUE(interp.run(kb.build(), {KernelArg::buffer(&data)}, NDRange::linear(8, 8)).is_ok());
  EXPECT_EQ(data, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));

  // The same through two buffer params bound to one host vector.
  KernelBuilder kb2("prefix2");
  Buf src = kb2.buf_i32("src"), dst = kb2.buf_i32("dst");
  Val lid2 = kb2.local_id(0);
  kb2.store(dst, lid2 + 1, kb2.load(src, lid2) + 1);
  std::vector<uint32_t> shared(9, 0);
  ASSERT_TRUE(interp
                  .run(kb2.build(), {KernelArg::buffer(&shared), KernelArg::buffer(&shared)},
                       NDRange::linear(8, 8))
                  .is_ok());
  EXPECT_EQ(shared, data);
}

TEST(InterpTest, OpCountIsPerItemNodeVisits) {
  // One group of 4 items (lid 0..3). Worked out by hand, node visits x lanes:
  //   let t = select(lid < 2, lid + 10, 7)
  //     select 4 + cond 3x4 + taken arm 3x2 + other arm 1x2           = 24
  //   if (lid > 0 && lid < 3) out[lid] = t
  //     && 4 + lhs 3x4 + rhs on lid 1..3 3x3 + store (lid, t) 2x2       = 29
  //   let acc = 0                                                       =  4
  //   for (i = 0; i < lid; i += 1) acc = acc + i
  //     init 4 + bound re-evaluated for all 4 lanes on 4 trips 16
  //     + body 3 nodes on 3, 2, 1 lanes 18 + step on 3, 2, 1 lanes 6    = 44
  //   out[lid + 4] = acc: index 3x4 + value 4                           = 16
  KernelBuilder kb("ops");
  Buf out = kb.buf_i32("out");
  Val lid = kb.local_id(0);
  Val t = kb.let_("t", vselect(lid < 2, lid + 10, Val(7)));
  kb.if_(lid > 0 && lid < 3, [&] { kb.store(out, lid, t); });
  Val acc = kb.let_("acc", Val(0));
  kb.for_("i", Val(0), lid, [&](Val i) { kb.assign(acc, acc + i); });
  kb.store(out, lid + 4, acc);
  uint64_t ops = 0;
  InterpOptions options;
  options.op_count = &ops;
  Interpreter interp(options);
  std::vector<uint32_t> result(8, 0);
  ASSERT_TRUE(interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(4, 4)).is_ok());
  EXPECT_EQ(result, (std::vector<uint32_t>{0, 11, 7, 0, 0, 0, 1, 3}));
  EXPECT_EQ(ops, 24u + 29u + 4u + 44u + 16u);
}

TEST(InterpTest, SiteCountsFollowTakenSelectArms) {
  // Two groups of 4; items 0..2 load a, items 3..7 load b. The load of a is
  // one node used by two stores, so its count covers both uses.
  KernelBuilder kb("arms");
  Buf a = kb.buf_i32("a"), b = kb.buf_i32("b"), out = kb.buf_i32("out"), out2 = kb.buf_i32("out2");
  Val gid = kb.global_id(0);
  Val la = kb.load(a, gid);
  Val lb = kb.load(b, gid);
  kb.store(out, gid, vselect(gid < 3, la, lb));
  kb.store(out2, gid, la);
  const Kernel kernel = kb.build();
  std::vector<uint32_t> da(8, 1), db(8, 2), dout(8, 0), dout2(8, 0);
  Interpreter interp;
  ASSERT_TRUE(interp
                  .run(kernel,
                       {KernelArg::buffer(&da), KernelArg::buffer(&db), KernelArg::buffer(&dout),
                        KernelArg::buffer(&dout2)},
                       NDRange::linear(8, 4))
                  .is_ok());
  EXPECT_EQ(dout, (std::vector<uint32_t>{1, 1, 1, 2, 2, 2, 2, 2}));
  auto count = [&](const void* site, bool is_store) -> uint64_t {
    for (const SiteCount& sc : interp.site_counts()) {
      if (sc.site == site) {
        EXPECT_EQ(sc.is_store, is_store);
        return sc.count;
      }
    }
    ADD_FAILURE() << "site not reported";
    return 0;
  };
  EXPECT_EQ(interp.site_counts().size(), 4u);
  EXPECT_EQ(count(la.expr().get(), false), 3u + 8u);
  EXPECT_EQ(count(lb.expr().get(), false), 5u);
  EXPECT_EQ(count(kernel.body[0].get(), true), 8u);
  EXPECT_EQ(count(kernel.body[1].get(), true), 8u);
}

}  // namespace
}  // namespace fgpu::kir
