// google-benchmark microbenchmarks of the library's components: simulator
// throughput, kernel-compiler speed, assembler/disassembler, cache, and the
// reference interpreter. These quantify the "seconds, not hours" turnaround
// contrast the paper draws between the soft-GPU flow and HLS re-synthesis.
#include <benchmark/benchmark.h>

#include "codegen/codegen.hpp"
#include "common/log.hpp"
#include "hls/compiler.hpp"
#include "kir/interp.hpp"
#include "kir/passes.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "runtime/vortex_device.hpp"
#include "suite/suite.hpp"
#include "vasm/assembler.hpp"

using namespace fgpu;

namespace {

void BM_SimulatorVecaddCyclesPerSec(benchmark::State& state) {
  Log::level() = LogLevel::kOff;
  auto bench = suite::make_benchmark("vecadd");
  vcl::VortexDevice device(vortex::Config::with(static_cast<uint32_t>(state.range(0)), 8, 8));
  uint64_t cycles = 0;
  for (auto _ : state) {
    auto run = suite::run_benchmark(device, bench);
    cycles += run.total_cycles;
  }
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorVecaddCyclesPerSec)->Arg(1)->Arg(4);

void BM_KernelCompile(benchmark::State& state) {
  auto bench = suite::make_benchmark("blackscholes");
  for (auto _ : state) {
    auto compiled = codegen::compile_kernel(bench.module.kernels[0]);
    benchmark::DoNotOptimize(compiled);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelCompile);

void BM_HlsSynthesize(benchmark::State& state) {
  auto bench = suite::make_benchmark("gaussian");
  kir::Kernel kernel = bench.module.kernels[1];
  kir::expand_builtins(kernel);
  for (auto _ : state) {
    auto design = hls::synthesize(kernel, fpga::stratix10_mx2100());
    benchmark::DoNotOptimize(design);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HlsSynthesize);

void BM_Assembler(benchmark::State& state) {
  std::string source;
  for (int i = 0; i < 256; ++i) {
    source += "addi t0, t0, 1\nadd t1, t0, t0\nbne t1, zero, target\n";
  }
  source += "target:\n  tmc zero\n";
  for (auto _ : state) {
    auto program = vasm::assemble(source);
    benchmark::DoNotOptimize(program);
  }
  state.SetItemsProcessed(state.iterations() * 256 * 3);
}
BENCHMARK(BM_Assembler);

void BM_Decode(benchmark::State& state) {
  auto program = vasm::assemble("add t0, t1, t2\nfmadd.s f1, f2, f3, f4\nsplit t0, x\nx: tmc zero");
  for (auto _ : state) {
    for (uint32_t word : program->words) {
      auto instr = arch::decode(word);
      benchmark::DoNotOptimize(instr);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(program->words.size()));
}
BENCHMARK(BM_Decode);

void BM_CacheHitStream(benchmark::State& state) {
  mem::DramModel dram(mem::DramConfig::ddr4());
  mem::Cache cache(mem::CacheConfig{.name = "bench", .size_bytes = 16 * 1024}, &dram);
  uint64_t served = 0;
  cache.set_response_handler([&](uint64_t, bool) { ++served; });
  uint64_t cycle = 0, id = 0;
  for (auto _ : state) {
    dram.tick(cycle);
    cache.tick(cycle);
    if (cache.can_accept()) {
      cache.send(mem::MemRequest{.id = id++, .addr = static_cast<uint32_t>((id * 4) % 8192),
                                 .is_write = false});
    }
    ++cycle;
  }
  state.counters["responses/s"] =
      benchmark::Counter(static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheHitStream);

// One reference run per iteration, over four interpreter shapes: dense
// arithmetic (kmeans), read-modify-write stores that run item-sequentially
// (saxpy), many small launches (gaussian, 62), and long per-item loops
// (lavamd). A node visit that costs O(group size) instead of O(active
// lanes) shows up in saxpy first.
void BM_Interpreter(benchmark::State& state, const char* name) {
  auto bench = suite::make_benchmark(name);
  uint64_t items = 0;
  for (const auto& launch : bench.launches) items += launch.ndrange.global_items();
  for (auto _ : state) {
    auto out = suite::reference_run(bench);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(items));
}
BENCHMARK_CAPTURE(BM_Interpreter, kmeans, "kmeans");
BENCHMARK_CAPTURE(BM_Interpreter, saxpy, "saxpy");
BENCHMARK_CAPTURE(BM_Interpreter, gaussian, "gaussian");
BENCHMARK_CAPTURE(BM_Interpreter, lavamd, "lavamd");

}  // namespace

BENCHMARK_MAIN();
