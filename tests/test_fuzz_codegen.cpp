// Randomized differential testing: generate random KIR kernels (arithmetic,
// divergent control flow, loops, memory traffic), run them through the
// reference interpreter and through codegen + the cycle-level simulator,
// and require bit-identical buffers. Also checks the blocked work
// distribution and the no-uniform-branch ablation against the default, and
// the turbo tier at every opt level. Division runs unmasked, so division by
// zero and INT_MIN / -1 reach every executor.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "kir/build.hpp"
#include "kir/interp.hpp"
#include "kir/passes.hpp"
#include "runtime/turbo_device.hpp"
#include "runtime/vortex_device.hpp"

namespace fgpu {
namespace {

using kir::Buf;
using kir::KernelBuilder;
using kir::NDRange;
using kir::Val;

// Generates a random integer kernel reading `in`, writing `out` at gid.
kir::Kernel random_kernel(uint64_t seed) {
  Rng rng(seed);
  KernelBuilder kb("fuzz");
  Buf in = kb.buf_i32("in"), out = kb.buf_i32("out");
  Val n = kb.param_i32("n");
  Val gid = kb.global_id(0);

  std::vector<Val> pool = {gid, kb.load(in, gid), Val(static_cast<int32_t>(rng.next_range(-50, 50))),
                           n};

  std::function<Val(int)> expr = [&](int depth) -> Val {
    if (depth <= 0 || rng.next_below(3) == 0) {
      return pool[rng.next_below(static_cast<uint32_t>(pool.size()))];
    }
    const Val a = expr(depth - 1);
    const Val b = expr(depth - 1);
    switch (rng.next_below(12)) {
      case 0: return a + b;
      case 1: return a - b;
      case 2: return a * b;
      case 3: return a / b;
      case 4: return a % b;
      case 5: return a & b;
      case 6: return a | b;
      case 7: return a ^ b;
      case 8: return a << (b & 7);
      case 9: return a >> (b & 7);
      case 10: return vmin(a, b);
      default: return vmax(a, b);
    }
  };

  Val acc = kb.let_("acc", expr(3));
  const int statements = 2 + static_cast<int>(rng.next_below(4));
  for (int s = 0; s < statements; ++s) {
    switch (rng.next_below(4)) {
      case 0:  // divergent if/else
        kb.if_((expr(2) & 3) == static_cast<int32_t>(rng.next_below(4)),
               [&] { kb.assign(acc, acc + expr(2)); },
               [&] { kb.assign(acc, acc ^ expr(2)); });
        break;
      case 1: {  // data-dependent loop (bounded trip count)
        Val trips = kb.let_("trips" + std::to_string(s), expr(1) & 7);
        kb.for_("i" + std::to_string(s), Val(0), trips,
                [&](Val i) { kb.assign(acc, acc + i + (acc >> 3)); });
        break;
      }
      case 2:  // uniform if on a param
        kb.if_(n > static_cast<int32_t>(rng.next_below(64)),
               [&] { kb.assign(acc, acc * 3 + 1); });
        break;
      default:  // extra memory traffic
        kb.assign(acc, acc + kb.load(in, (expr(1) & 0x3F)));
        break;
    }
    pool.push_back(acc);
  }
  kb.store(out, gid, acc);
  return kb.build();
}

class FuzzCodegen : public ::testing::TestWithParam<int> {};

TEST_P(FuzzCodegen, SimulatorMatchesInterpreter) {
  const auto seed = static_cast<uint64_t>(GetParam());
  kir::Kernel kernel = random_kernel(seed);
  ASSERT_TRUE(kir::verify(kernel).is_ok()) << kernel.to_string();

  const uint32_t count = 64;
  Rng rng(seed ^ 0xF00D);
  std::vector<uint32_t> input(count);
  for (auto& v : input) v = rng.next_u32();

  // Interpreter reference.
  std::vector<uint32_t> ref_in = input, ref_out(count, 0);
  kir::Interpreter interp;
  ASSERT_TRUE(interp
                  .run(kernel,
                       {kir::KernelArg::buffer(&ref_in), kir::KernelArg::buffer(&ref_out),
                        kir::KernelArg::scalar_i32(static_cast<int32_t>(count))},
                       NDRange::linear(count, 32))
                  .is_ok())
      << kernel.to_string();

  // Every compilation variant must match the interpreter bit-for-bit — and
  // therefore each other. The opt-level sweep is the differential gate for
  // the whole -O pipeline: -O0 is the straight-lowering oracle, -O2 runs
  // every KIR pass, the peephole, and the spill-splitting allocator.
  struct Variant {
    const char* name;
    codegen::Options options;
  };
  std::vector<Variant> variants = {
      {"default", {}}, {"no-uniform-opt", {}}, {"blocked", {}},
      {"O0", {}},      {"O1", {}},             {"O2", {}},
      {"blocked-O0", {}}};
  variants[1].options.uniform_branch_opt = false;
  variants[2].options.distribution = codegen::WorkDistribution::kBlocked;
  variants[3].options.opt_level = 0;
  variants[4].options.opt_level = 1;
  variants[5].options.opt_level = 2;
  variants[6].options.distribution = codegen::WorkDistribution::kBlocked;
  variants[6].options.opt_level = 0;

  // The turbo tier at each opt level, as a third executor.
  struct Executor {
    std::string name;
    std::unique_ptr<vcl::Device> device;
  };
  std::vector<Executor> executors;
  for (const auto& variant : variants) {
    executors.push_back({variant.name, std::make_unique<vcl::VortexDevice>(
                                           vortex::Config::with(2, 4, 8),
                                           fpga::stratix10_sx2800(), variant.options)});
  }
  for (int level = 0; level <= 2; ++level) {
    codegen::Options options;
    options.opt_level = level;
    executors.push_back({"turbo-O" + std::to_string(level),
                         std::make_unique<vcl::TurboDevice>(vortex::Config::with(2, 4, 8),
                                                            fpga::stratix10_sx2800(), options)});
  }

  for (const auto& [name, device] : executors) {
    kir::Module module;
    module.kernels.push_back(kernel);
    ASSERT_TRUE(device->build(module).is_ok()) << name;
    auto in_buf = device->upload(input);
    auto out_buf = device->alloc(count * 4);
    std::vector<uint32_t> zero(count, 0);
    device->write(out_buf, zero.data(), count * 4, 0);
    auto stats = device->launch("fuzz", {in_buf, out_buf, static_cast<int32_t>(count)},
                                NDRange::linear(count, 32));
    ASSERT_TRUE(stats.is_ok()) << name << ": " << stats.status().to_string();
    const auto got = device->download<uint32_t>(out_buf);
    for (uint32_t i = 0; i < count; ++i) {
      ASSERT_EQ(got[i], ref_out[i]) << name << " seed " << seed << " element " << i << "\n"
                                    << kernel.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCodegen, ::testing::Range(1, 201));

TEST(TraceHookTest, RecordsIssuedInstructions) {
  KernelBuilder kb("traced");
  Buf out = kb.buf_i32("out");
  kb.store(out, kb.global_id(0), kb.global_id(0) + 1);
  kir::Module module;
  module.kernels.push_back(kb.build());

  std::vector<vortex::TraceEvent> events;
  vortex::Config config = vortex::Config::with(1, 2, 4);
  config.trace = [&](const vortex::TraceEvent& event) { events.push_back(event); };
  vcl::VortexDevice device(config);
  ASSERT_TRUE(device.build(module).is_ok());
  auto buffer = device.alloc(8 * 4);
  auto stats = device.launch("traced", {buffer}, NDRange::linear(8, 8));
  ASSERT_TRUE(stats.is_ok());
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.size(), stats->perf.instrs);
  // The trace must contain the SIMT activation and retire instructions.
  bool saw_tmc = false, saw_wspawn = false;
  for (const auto& event : events) {
    if (event.instr.op == arch::Op::kTmc) saw_tmc = true;
    if (event.instr.op == arch::Op::kWspawn) saw_wspawn = true;
    EXPECT_LT(event.warp, 2u);
  }
  EXPECT_TRUE(saw_tmc);
  EXPECT_TRUE(saw_wspawn);
}

}  // namespace
}  // namespace fgpu
