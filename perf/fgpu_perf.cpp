// fgpu-perf — the repository benchmark (BENCHMARK.json, perf/README.md).
//
//   fgpu-perf --workload=NAME [--seed=N] [--seconds=S] [--trace=PATH]
//             [--out=PATH]
//
// Runs one workload in this single-threaded process and times it from
// outside the library: every span is a call into a public function
// (suite::make_benchmark / reference_run / run_benchmark, vcl::Device
// build/launch/reset/alloc/write/read, codegen::compile_kernel,
// hls::synthesize, suite::run_dse). For --seconds a run interleaves
//   - cold set-ups: caches cleared, devices constructed fresh, one warm-up
//     pass; setup_s is their median;
//   - warm passes on the last set-up's devices, re-armed with reset()
//     between benchmarks (the pooled path fgpu-run uses); pass_ms is their
//     10th percentile (see Summary).
// Set-ups get kSetupShare of the run's wall time, spread over all of it, and
// there are at least kMinSetups of them and two passes of each kind.
// Every operation is verified (Table-I verdicts, outputs against the KIR
// oracle), and every deterministic counter of every pass must equal the
// first warm-up pass's: a reset() leak or an order dependence fails the run.
// --seed only shuffles benchmark and kernel order inside each pass; the
// Table-I inputs come from the factories' built-in seeds.
//
// --trace=PATH records spans on every other pass (the rest stay untraced, so
// the tracing overhead is measured under the same conditions), writes them
// as Chrome trace_event JSON to PATH and prints per-layer self times. The
// benchmark never installs a trace::Sink: a sink turns on the simulators' own
// instrumentation and bypasses idle-skip, which would time another program.
//
// The last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics, or with --trace the per-layer ones.
// --out=PATH writes the same plus samples and counters for perf/compare.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codegen/codegen.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "hls/compiler.hpp"
#include "kir/passes.hpp"
#include "runtime/hls_cache.hpp"
#include "runtime/hls_device.hpp"
#include "runtime/kernel_cache.hpp"
#include "runtime/turbo_device.hpp"
#include "runtime/vortex_device.hpp"
#include "suite/dse.hpp"
#include "suite/suite.hpp"
#include "trace/json.hpp"

using namespace fgpu;

namespace {

using Clock = std::chrono::steady_clock;

// A slow episode of a shared host lasts seconds. Set-ups taken back to back
// can all fall inside one; spread over the run, they meet the host as the
// passes do.
constexpr double kSetupShare = 0.3;
constexpr size_t kMinSetups = 5;
// Telemetry compiles that give codegen.pass.*_ms in a traced compile-cold run.
constexpr int kTelemetryRepeats = 5;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------------ spans --

// One entry per library call the benchmark times, plus the harness roots.
enum class Layer : uint8_t {
  kSetup,
  kWarmup,
  kPass,
  kMakeBenchmark,
  kReference,
  kConstruct,
  kRunBenchmark,
  kReset,
  kBuild,
  kHlsBuild,
  kTransfer,
  kVortexLaunch,
  kTurboLaunch,
  kHlsLaunch,
  kCompileO0,
  kCompileO1,
  kCompileO2,
  kSynth,
  kDse,
};

struct LayerInfo {
  const char* span;   // trace event name
  const char* pass;   // per-layer metric taking its self time in a pass
  const char* setup;  // set-up metric taking its self time in a set-up
};

// Indexed by Layer.
constexpr LayerInfo kLayers[] = {
    {"setup", nullptr, "setup.warmup_ms"},
    {"warmup", nullptr, "setup.warmup_ms"},
    {"pass", nullptr, nullptr},
    {"suite.make_benchmark", nullptr, "setup.make_benchmark_ms"},
    {"kir.reference", "kir.reference_ms", "setup.reference_ms"},
    {"runtime.construct", nullptr, "setup.construct_ms"},
    {"suite.run_benchmark", "suite.verify_ms", "setup.warmup_ms"},
    {"runtime.reset", "runtime.reset_ms", "setup.warmup_ms"},
    {"runtime.build", "runtime.build_ms", "setup.build_ms"},
    {"hls.build", "hls.build_ms", "setup.build_ms"},
    {"runtime.transfer", "runtime.transfer_ms", "setup.warmup_ms"},
    {"vortex.launch", "vortex.launch_ms", "setup.warmup_ms"},
    {"turbo.launch", "turbo.launch_ms", "setup.warmup_ms"},
    {"hls.launch", "hls.launch_ms", "setup.warmup_ms"},
    {"codegen.compile.O0", "codegen.compile_ms.O0", "setup.build_ms"},
    {"codegen.compile.O1", "codegen.compile_ms.O1", "setup.build_ms"},
    {"codegen.compile.O2", "codegen.compile_ms.O2", "setup.build_ms"},
    {"hls.synth", "hls.synth_ms", "setup.build_ms"},
    {"dse.run", "dse.run_ms", "setup.warmup_ms"},
};

const LayerInfo& info(Layer layer) { return kLayers[static_cast<size_t>(layer)]; }

struct Span {
  Layer layer;
  int parent;  // index into Tracer::spans; -1 for a root
  int pass;    // measured passes count from 1; set-up i is -1 - i
  int64_t t0_ns;
  int64_t t1_ns;
};

// In-memory span store. Spans are recorded only while `recording` is set,
// which the harness toggles between passes, never inside one.
struct Tracer {
  bool recording = false;
  int pass = 0;
  int open = -1;
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;

  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
  }
};

Tracer g_tracer;

// RAII span around one call; a single branch when not recording.
class Scope {
 public:
  explicit Scope(Layer layer) {
    if (!g_tracer.recording) return;
    index_ = static_cast<int>(g_tracer.spans.size());
    g_tracer.spans.push_back(Span{layer, g_tracer.open, g_tracer.pass, g_tracer.now_ns(), 0});
    g_tracer.open = index_;
  }
  ~Scope() {
    if (index_ < 0) return;
    Span& span = g_tracer.spans[static_cast<size_t>(index_)];
    span.t1_ns = g_tracer.now_ns();
    g_tracer.open = span.parent;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_ = -1;
};

// Self time of every span: its duration minus the durations of its children.
std::vector<double> self_ms(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double ms = static_cast<double>(spans[i].t1_ns - spans[i].t0_ns) / 1e6;
    self[i] += ms;
    if (spans[i].parent >= 0) self[static_cast<size_t>(spans[i].parent)] -= ms;
  }
  return self;
}

// ---------------------------------------------------------- timed device --

// Counters summed over every successful launch on one device.
struct LaunchTotals {
  vortex::PerfCounters perf;  // instrs, stall buckets and events (cycles unused)
  mem::MemStats l1d, l2, dram;
  uint64_t dram_bytes = 0;
  uint64_t hls_memory_stall_cycles = 0;
};

void add(mem::MemStats& into, const mem::MemStats& s) {
  into.reads += s.reads;
  into.writes += s.writes;
  into.hits += s.hits;
  into.misses += s.misses;
  into.evictions += s.evictions;
  into.writebacks += s.writebacks;
  into.mshr_merges += s.mshr_merges;
  into.stall_rejects += s.stall_rejects;
}

// A vcl::Device that forwards every call to the device it owns, recording a
// span per call and summing the LaunchStats every launch returns.
class TimedDevice final : public vcl::Device {
 public:
  TimedDevice(std::unique_ptr<vcl::Device> inner, Layer build, Layer launch)
      : inner_(std::move(inner)), build_(build), launch_(launch) {}

  std::string name() const override { return inner_->name(); }
  const fpga::Board& board() const override { return inner_->board(); }

  vcl::Buffer alloc(size_t bytes) override {
    Scope scope(Layer::kTransfer);
    return inner_->alloc(bytes);
  }
  void write(const vcl::Buffer& buffer, const void* data, size_t bytes, size_t offset) override {
    Scope scope(Layer::kTransfer);
    inner_->write(buffer, data, bytes, offset);
  }
  void read(const vcl::Buffer& buffer, void* out, size_t bytes, size_t offset) override {
    Scope scope(Layer::kTransfer);
    inner_->read(buffer, out, bytes, offset);
  }

  Status build(const kir::Module& module) override {
    Scope scope(build_);
    return inner_->build(module);
  }
  const std::vector<vcl::KernelBuildInfo>& build_info() const override {
    return inner_->build_info();
  }

  void reset() override {
    Scope scope(Layer::kReset);
    inner_->reset();
  }

  Result<vcl::LaunchStats> launch(const std::string& kernel, const std::vector<vcl::Arg>& args,
                                  const kir::NDRange& ndrange) override {
    auto stats = [&] {
      Scope scope(launch_);
      return inner_->launch(kernel, args, ndrange);
    }();
    if (stats.is_ok()) {
      totals.perf.accumulate(stats->perf);
      add(totals.l1d, stats->l1d);
      add(totals.l2, stats->l2);
      add(totals.dram, stats->dram);
      totals.dram_bytes += stats->dram_bytes;
      totals.hls_memory_stall_cycles += stats->memory_stall_cycles;
    }
    return stats;
  }

  const std::vector<std::string>& console() const override { return inner_->console(); }
  void clear_console() override { inner_->clear_console(); }

  const vcl::Device& inner() const { return *inner_; }

  LaunchTotals totals;

 private:
  std::unique_ptr<vcl::Device> inner_;
  Layer build_;
  Layer launch_;
};

// ------------------------------------------------------------- workloads --

uint64_t fnv1a(const void* data, size_t bytes) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= static_cast<const unsigned char*>(data)[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Outcome of one pass. `counts` and `digest` are deterministic: they must be
// identical on every pass of every seed.
struct PassResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::map<std::string, double> counts;
  // Sum of per-item output hashes: independent of the shuffled pass order.
  uint64_t digest = 0;
  // Host times the library reports about itself (DseResult::host_*).
  std::map<std::string, double> host_ms;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Cold part of a set-up: generates inputs and constructs devices.
  virtual void setup() = 0;
  virtual PassResult pass(Rng& rng) = 0;
  // Per-layer times measured outside the timed passes (traced runs only).
  virtual std::map<std::string, double> telemetry() const { return {}; }
};

// Fisher–Yates permutation of [0, n).
std::vector<size_t> shuffled(size_t n, Rng& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(static_cast<uint32_t>(i))]);
  }
  return order;
}

// Table I: the soft GPU runs all 28 benchmarks; the HLS flow fails these six
// with these reasons.
const char* hls_expected_failure(const std::string& name) {
  if (name == "lbm" || name == "backprop" || name == "b+tree" || name == "dwt2d" ||
      name == "lud") {
    return "Not enough BRAM";
  }
  if (name == "hybridsort") return "Atomics";
  return nullptr;
}

const vortex::Config kVortexConfig = vortex::Config::with(4, 8, 8);

codegen::Options codegen_at(int opt_level) {
  codegen::Options options;
  options.opt_level = opt_level;
  return options;
}

template <typename D, typename... Args>
std::unique_ptr<TimedDevice> construct(Layer build, Layer launch, Args&&... args) {
  Scope scope(Layer::kConstruct);
  return std::make_unique<TimedDevice>(std::make_unique<D>(std::forward<Args>(args)...), build,
                                       launch);
}

// Shared by the suite workloads: the Table-I benchmarks they run, in a
// per-pass shuffled order that never repeats the previous pass's last
// benchmark first. Turbo keeps its translations across reset() when the next
// build loads the same binaries, so running one benchmark twice in a row
// would translate less and make the counters depend on the seed.
class SuiteWorkload : public Workload {
 protected:
  explicit SuiteWorkload(std::vector<std::string> names) : names_(std::move(names)) {}

  void make_benchmarks(bool memoize_reference) {
    for (const auto& name : names_) {
      {
        Scope scope(Layer::kMakeBenchmark);
        benches_.push_back(suite::shared_benchmark(name));
      }
      if (memoize_reference && !benches_.back()->custom_verify) {
        Scope scope(Layer::kReference);
        references_.push_back(suite::shared_reference(name));
      } else {
        references_.push_back(nullptr);
      }
    }
  }

  std::vector<size_t> order(Rng& rng) {
    std::vector<size_t> order = shuffled(names_.size(), rng);
    if (order.size() > 1 && order.front() == last_) {
      std::swap(order.front(), order[1 + rng.next_below(static_cast<uint32_t>(order.size() - 1))]);
    }
    last_ = order.back();
    return order;
  }

  suite::DeviceRun run(TimedDevice& device, size_t i,
                       const std::vector<std::vector<uint32_t>>* expected) {
    device.reset();
    Scope scope(Layer::kRunBenchmark);
    return suite::run_benchmark(device, *benches_[i], expected);
  }

  std::vector<std::string> names_;
  std::vector<std::shared_ptr<const suite::Benchmark>> benches_;
  std::vector<std::shared_ptr<const std::vector<std::vector<uint32_t>>>> references_;

 private:
  size_t last_ = static_cast<size_t>(-1);
};

// exact-compute / exact-memory: Table-I benchmarks on the cycle-exact tier
// against the memoized oracle.
class ExactWorkload final : public SuiteWorkload {
 public:
  explicit ExactWorkload(std::vector<std::string> names) : SuiteWorkload(std::move(names)) {}

  void setup() override {
    make_benchmarks(/*memoize_reference=*/true);
    device_ = construct<vcl::VortexDevice>(Layer::kBuild, Layer::kVortexLaunch, kVortexConfig,
                                           fpga::stratix10_sx2800(), codegen_at(2));
  }

  PassResult pass(Rng& rng) override {
    PassResult r;
    device_->totals = {};
    uint64_t cycles = 0;
    for (size_t i : order(rng)) {
      const suite::DeviceRun run = this->run(*device_, i, references_[i].get());
      r.check(run.ok(), names_[i] + " on vortex: " + run.fail_reason);
      cycles += run.total_cycles;
      r.digest += run.output_digest;
    }
    const LaunchTotals& t = device_->totals;
    r.counts = {
        {"vortex.cycles", static_cast<double>(cycles)},
        {"vortex.instrs", static_cast<double>(t.perf.instrs)},
        {"vortex.stall_scoreboard", static_cast<double>(t.perf.stall_scoreboard)},
        {"vortex.stall_lsu", static_cast<double>(t.perf.stall_lsu)},
        {"vortex.stall_fu", static_cast<double>(t.perf.stall_fu)},
        {"vortex.stall_ibuffer", static_cast<double>(t.perf.stall_ibuffer)},
        {"vortex.stall_barrier", static_cast<double>(t.perf.stall_barrier)},
        {"vortex.idle_cycles", static_cast<double>(t.perf.idle_cycles)},
        {"vortex.divergent_branches", static_cast<double>(t.perf.divergent_branches)},
        {"mem.l1d.accesses", static_cast<double>(t.l1d.reads + t.l1d.writes)},
        {"mem.l1d.misses", static_cast<double>(t.l1d.misses)},
        {"mem.l1d.mshr_merges", static_cast<double>(t.l1d.mshr_merges)},
        {"mem.l1d.stall_rejects", static_cast<double>(t.l1d.stall_rejects)},
        {"mem.l2.accesses", static_cast<double>(t.l2.reads + t.l2.writes)},
        {"mem.l2.misses", static_cast<double>(t.l2.misses)},
        {"mem.dram.accesses", static_cast<double>(t.dram.reads + t.dram.writes)},
        {"mem.dram_bytes", static_cast<double>(t.dram_bytes)},
    };
    return r;
  }

 private:
  std::unique_ptr<TimedDevice> device_;
};

// functional: all 28 benchmarks on turbo and on the HLS device, verified
// against an uncached reference run each pass.
class FunctionalWorkload final : public SuiteWorkload {
 public:
  FunctionalWorkload() : SuiteWorkload(suite::all_benchmark_names()) {}

  void setup() override {
    make_benchmarks(/*memoize_reference=*/false);
    turbo_ = construct<vcl::TurboDevice>(Layer::kBuild, Layer::kTurboLaunch, kVortexConfig,
                                         fpga::stratix10_sx2800(), codegen_at(2));
    hls_ = construct<vcl::HlsDevice>(Layer::kHlsBuild, Layer::kHlsLaunch,
                                     fpga::stratix10_mx2100());
  }

  PassResult pass(Rng& rng) override {
    PassResult r;
    hls_->totals = {};
    const auto& engine = static_cast<const vcl::TurboDevice&>(turbo_->inner());
    const vortex::jit::TurboStats jit0 = engine.jit_stats();
    uint64_t hls_cycles = 0;
    for (size_t i : order(rng)) {
      const std::string& name = names_[i];
      Result<std::vector<std::vector<uint32_t>>> reference(std::vector<std::vector<uint32_t>>{});
      if (!benches_[i]->custom_verify) {
        Scope scope(Layer::kReference);
        reference = suite::reference_run(*benches_[i]);
      }
      if (!reference.is_ok()) {
        r.check(false, name + ": reference run: " + reference.status().to_string());
        continue;
      }
      const auto* expected = benches_[i]->custom_verify ? nullptr : &*reference;

      const suite::DeviceRun turbo = run(*turbo_, i, expected);
      r.check(turbo.ok(), name + " on turbo: " + turbo.fail_reason);
      r.digest += turbo.output_digest;

      const suite::DeviceRun hls = run(*hls_, i, expected);
      const char* want = hls_expected_failure(name);
      r.check(want == nullptr ? hls.ok() : !hls.ok() && hls.fail_reason == want,
              name + " on hls: got '" + hls.fail_reason + "', Table I '" +
                  (want != nullptr ? want : "") + "'");
      hls_cycles += hls.total_cycles;
      r.digest += hls.output_digest;
    }
    const vortex::jit::TurboStats& jit = engine.jit_stats();
    const double lookups = static_cast<double>(jit.block_lookups - jit0.block_lookups);
    const double chained = static_cast<double>(jit.chained_dispatches - jit0.chained_dispatches);
    r.counts = {
        {"turbo.instrs", static_cast<double>(jit.instrs - jit0.instrs)},
        {"turbo.blocks_translated",
         static_cast<double>(jit.blocks_translated - jit0.blocks_translated)},
        {"turbo.block_hit_rate",
         lookups > 0 ? static_cast<double>(jit.block_hits - jit0.block_hits) / lookups : 0.0},
        {"turbo.chained_frac", lookups + chained > 0 ? chained / (lookups + chained) : 0.0},
        {"hls.cycles", static_cast<double>(hls_cycles)},
        {"hls.memory_stall_cycles", static_cast<double>(hls_->totals.hls_memory_stall_cycles)},
    };
    return r;
  }

 private:
  std::unique_ptr<TimedDevice> turbo_;
  std::unique_ptr<TimedDevice> hls_;
};

// compile-cold: every kernel of the suite through the soft-GPU compiler at
// -O0/-O1/-O2 and through HLS synthesis, with no cache in between.
class CompileWorkload final : public Workload {
 public:
  void setup() override {
    for (const auto& name : suite::all_benchmark_names()) {
      {
        Scope scope(Layer::kMakeBenchmark);
        benches_.push_back(suite::shared_benchmark(name));
      }
      for (const auto& kernel : benches_.back()->module.kernels) {
        kernels_.push_back(&kernel);
        // HLS synthesizes the builtin-expanded form (what HlsCache does).
        expanded_.push_back(kir::clone_kernel(kernel));
        kir::expand_builtins(expanded_.back());
      }
    }
  }

  PassResult pass(Rng& rng) override {
    static constexpr Layer kCompile[3] = {Layer::kCompileO0, Layer::kCompileO1,
                                          Layer::kCompileO2};
    PassResult r;
    const std::vector<size_t> order = shuffled(kernels_.size(), rng);
    double words[3] = {0, 0, 0};
    double spills = 0;
    for (size_t k : order) {
      for (int opt = 0; opt < 3; ++opt) {
        auto compiled = [&] {
          Scope scope(kCompile[opt]);
          return codegen::compile_kernel(*kernels_[k], codegen_at(opt));
        }();
        r.check(compiled.is_ok(), kernels_[k]->name + " at -O" + std::to_string(opt) + ": " +
                                      compiled.status().to_string());
        if (!compiled.is_ok()) continue;
        words[opt] += static_cast<double>(compiled->instruction_count);
        if (opt == 2) spills += compiled->spill_slots;
        const auto& binary = compiled->program.words;
        r.digest += fnv1a(binary.data(), binary.size() * sizeof(binary[0]));
      }
    }
    double fits = 0;
    for (size_t k : order) {
      // A design that does not fit is a verdict, not a failed operation;
      // its stability is checked through hls.synth_fits.
      auto design = [&] {
        Scope scope(Layer::kSynth);
        return hls::synthesize(expanded_[k], fpga::stratix10_mx2100());
      }();
      ++r.attempted;
      if (design.is_ok()) {
        ++fits;
        r.digest += fnv1a(&design->area.brams, sizeof(design->area.brams));
      }
    }
    r.counts = {
        {"codegen.kernels", static_cast<double>(kernels_.size())},
        {"codegen.words.O0", words[0]},
        {"codegen.words.O1", words[1]},
        {"codegen.words.O2", words[2]},
        {"codegen.spill_slots", spills},
        {"hls.synth_fits", fits},
    };
    return r;
  }

  // Per-stage compile wall times at -O2, summed over every kernel, from the
  // compiler's own telemetry (collect_remarks). Run outside the timed passes:
  // collecting remarks is extra work the measured compiles do not do.
  std::map<std::string, double> telemetry() const override {
    std::map<std::string, double> out;
    codegen::Options options = codegen_at(2);
    options.collect_remarks = true;
    for (int rep = 0; rep < kTelemetryRepeats; ++rep) {
      for (const kir::Kernel* kernel : kernels_) {
        auto compiled = codegen::compile_kernel(*kernel, options);
        if (!compiled.is_ok()) continue;
        for (const auto& stage : compiled->report.passes) {
          out["codegen.pass." + stage.pass + "_ms"] += stage.wall_ms / kTelemetryRepeats;
        }
      }
    }
    return out;
  }

 private:
  std::vector<std::shared_ptr<const suite::Benchmark>> benches_;
  std::vector<const kir::Kernel*> kernels_;  // point into benches_
  std::vector<kir::Kernel> expanded_;
};

// dse-sweep: the CI DSE funnel (quick grid, vecadd, 64-point exact slice),
// with a run-local device pool per pass.
class DseWorkload final : public Workload {
 public:
  void setup() override {
    {
      Scope scope(Layer::kMakeBenchmark);
      suite::shared_benchmark("vecadd");
    }
    Scope scope(Layer::kReference);
    suite::shared_reference("vecadd");
  }

  PassResult pass(Rng&) override {
    suite::DseOptions options;
    options.grid = "quick";
    options.benchmarks = {"vecadd"};
    options.exact_budget = 64;
    options.jobs = 1;
    suite::DseResult dse;
    {
      Scope scope(Layer::kDse);
      dse = suite::run_dse(options);
    }
    PassResult r;
    r.attempted = dse.shapes_screened + dse.exact_selected;
    r.failed = dse.exact_selected - dse.exact_ok + dse.shapes_failed;
    if (!dse.error.empty()) {
      ++r.failed;
      r.first_error = "dse: " + dse.error;
    } else if (r.failed > 0) {
      r.first_error = "dse: " + std::to_string(r.failed) + " screen/exact failures";
    }
    double best = 0;
    for (const auto& c : dse.candidates) {
      r.digest += fnv1a(&c.simulated_cycles, sizeof(c.simulated_cycles));
      if (c.simulated && c.sim_ok && (best == 0 || c.simulated_cycles < best)) {
        best = static_cast<double>(c.simulated_cycles);
      }
    }
    r.counts = {
        {"dse.best_cycles", best},
        {"dse.spearman", dse.spearman},
        {"dse.exact_selected", static_cast<double>(dse.exact_selected)},
    };
    r.host_ms = {
        {"dse.analytical_ms", dse.host_analytical.wall_ms},
        {"dse.screen_ms", dse.host_screen.wall_ms},
        {"dse.exact_ms", dse.host_exact.wall_ms},
    };
    return r;
  }
};

// The 28 Table-I benchmarks split by simulated IPC at C4W8T8: at or above 1.5,
// and below it. Where the host time goes inside a launch is not measured.
const std::vector<std::string> kComputeBound = {
    "sgemm", "sfilter", "dotproduct", "cutcp", "stencil", "blackscholes",
    "matmul", "kmeans", "b+tree", "lavamd", "particlefilter"};
const std::vector<std::string> kMemoryBound = {
    "vecadd", "psort", "saxpy", "spmv", "lbm", "oclprintf", "transpose", "nearn", "gaussian",
    "bfs", "backprop", "streamcluster", "pathfinder", "nw", "hybridsort", "dwt2d", "lud"};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "exact-compute") return std::make_unique<ExactWorkload>(kComputeBound);
  if (name == "exact-memory") return std::make_unique<ExactWorkload>(kMemoryBound);
  if (name == "functional") return std::make_unique<FunctionalWorkload>();
  if (name == "compile-cold") return std::make_unique<CompileWorkload>();
  if (name == "dse-sweep") return std::make_unique<DseWorkload>();
  return nullptr;
}

// --------------------------------------------------------------- metrics --

struct MetricDef {
  const char* name;
  const char* unit;
};

// BENCHMARK.json "end_to_end", in its order.
constexpr MetricDef kEndToEnd[] = {{"setup_s", "s"}, {"pass_ms", "ms"}, {"peak_rss_mb", "MB"}};

// BENCHMARK.json "per_layer", in its order. Every traced run prints all of
// them; a layer a workload does not enter reads 0.
constexpr MetricDef kPerLayer[] = {
    {"setup.make_benchmark_ms", "ms"},
    {"setup.reference_ms", "ms"},
    {"setup.construct_ms", "ms"},
    {"setup.build_ms", "ms"},
    {"setup.warmup_ms", "ms"},
    {"setup.kernel_cache_hits", "count"},
    {"setup.kernel_cache_misses", "count"},
    {"suite.verify_ms", "ms"},
    {"kir.reference_ms", "ms"},
    {"runtime.reset_ms", "ms"},
    {"runtime.build_ms", "ms"},
    {"runtime.transfer_ms", "ms"},
    {"vortex.launch_ms", "ms"},
    {"vortex.mips", "MIPS"},
    {"vortex.mcps", "Mcycles/s"},
    {"vortex.cycles", "cycles"},
    {"vortex.instrs", "count"},
    {"vortex.ipc", "instr/cycle"},
    {"vortex.stall_scoreboard", "cycles"},
    {"vortex.stall_lsu", "cycles"},
    {"vortex.stall_fu", "cycles"},
    {"vortex.stall_ibuffer", "cycles"},
    {"vortex.stall_barrier", "cycles"},
    {"vortex.idle_cycles", "cycles"},
    {"vortex.divergent_branches", "count"},
    {"mem.l1d.accesses", "count"},
    {"mem.l1d.misses", "count"},
    {"mem.l1d.mshr_merges", "count"},
    {"mem.l1d.stall_rejects", "count"},
    {"mem.l2.accesses", "count"},
    {"mem.l2.misses", "count"},
    {"mem.dram.accesses", "count"},
    {"mem.dram_bytes", "B"},
    {"turbo.launch_ms", "ms"},
    {"turbo.mips", "MIPS"},
    {"turbo.instrs", "count"},
    {"turbo.blocks_translated", "count"},
    {"turbo.block_hit_rate", "frac"},
    {"turbo.chained_frac", "frac"},
    {"hls.build_ms", "ms"},
    {"hls.launch_ms", "ms"},
    {"hls.synth_ms", "ms"},
    {"hls.cycles", "cycles"},
    {"hls.memory_stall_cycles", "cycles"},
    {"hls.synth_fits", "count"},
    {"codegen.compile_ms.O0", "ms"},
    {"codegen.compile_ms.O1", "ms"},
    {"codegen.compile_ms.O2", "ms"},
    {"codegen.pass.expand-builtins_ms", "ms"},
    {"codegen.pass.const-fold_ms", "ms"},
    {"codegen.pass.licm_ms", "ms"},
    {"codegen.pass.strength-reduce_ms", "ms"},
    {"codegen.pass.const-fold-2_ms", "ms"},
    {"codegen.pass.dce_ms", "ms"},
    {"codegen.pass.lower_ms", "ms"},
    {"codegen.pass.peephole_ms", "ms"},
    {"codegen.pass.regalloc_ms", "ms"},
    {"codegen.pass.emit_ms", "ms"},
    {"codegen.kernels", "count"},
    {"codegen.words.O0", "words"},
    {"codegen.words.O1", "words"},
    {"codegen.words.O2", "words"},
    {"codegen.spill_slots", "count"},
    {"dse.run_ms", "ms"},
    {"dse.analytical_ms", "ms"},
    {"dse.screen_ms", "ms"},
    {"dse.exact_ms", "ms"},
    {"dse.exact_selected", "count"},
    {"dse.best_cycles", "cycles"},
    {"dse.spearman", "rho"},
    {"bench.trace_overhead_frac", "frac"},
};

// Linear-interpolated quantile of sorted samples.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

// Other processes on a shared host only ever slow a pass down, in episodes
// lasting seconds. The fastest decile of the passes tracks the program's own
// cost through them; the median moves with how much of the run an episode
// covered. On a shared 4-vCPU Xeon VM, the medians of ten identical 10 s
// runs of `functional` spread by 23% (interquartile share), their fastest
// deciles by 8%.
struct Summary {
  double p10 = 0, median = 0, p25 = 0, p75 = 0;
  double tail = 0;
  double tail_pct = 0;  // 0 = fewer than 20 samples: no percentile has 10 beyond it
  size_t n = 0;
};

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p10 = quantile(samples, 0.1);
  s.median = quantile(samples, 0.5);
  s.p25 = quantile(samples, 0.25);
  s.p75 = quantile(samples, 0.75);
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(s.n) * (1.0 - pct / 100.0) >= 10.0) {
      s.tail_pct = pct;
      s.tail = quantile(samples, pct / 100.0);
      break;
    }
  }
  return s;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<std::pair<std::string, std::string>>& named,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, unit] : named) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(values.at(name)) + ", \"unit\": \"" + unit +
           "\"}";
  }
  return out + "}";
}

std::string json_samples(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
  return out + "]";
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) out += (out.size() > 1 ? ", \"" : "\"") + k + "\": " + num(v);
  return out + "}";
}

// Chrome trace_event JSON (ui.perfetto.dev, chrome://tracing): one complete
// event per span on one thread, nested by time.
bool write_chrome_trace(const std::string& path, const std::string& workload) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
        "\"args\": {\"name\": \"fgpu-perf "
     << workload << "\"}}";
  char buf[96];
  for (size_t i = 0; i < g_tracer.spans.size(); ++i) {
    const Span& s = g_tracer.spans[i];
    std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f", static_cast<double>(s.t0_ns) / 1e3,
                  static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
    os << ",\n{\"name\": \"" << info(s.layer).span << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
       << buf << ", \"args\": {\"pass\": " << s.pass << ", \"id\": " << i
       << ", \"parent\": " << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

void print_table(const char* title, const std::map<std::string, double>& self, double total) {
  std::vector<std::pair<std::string, double>> rows(self.begin(), self.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("%s (total %.3f ms)\n", title, total);
  for (const auto& [name, ms] : rows) {
    std::printf("  %-26s %12.4f ms  %6.2f%%\n", name.c_str(), ms,
                total > 0 ? 100.0 * ms / total : 0.0);
  }
}

// Peak resident set of this process image. VmHWM, unlike getrusage's
// ru_maxrss, restarts at exec, so a parent's footprint does not leak in.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return 0.0;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=NAME [--seed=N] [--seconds=S] [--trace=PATH]\n"
               "          [--out=PATH]\n"
               "  workloads: exact-compute exact-memory functional compile-cold dse-sweep\n"
               "  --seconds=S  measure set-ups and warm passes for S seconds (default 20)\n"
               "  --trace=PATH trace every other pass; write Chrome JSON to PATH and\n"
               "               print per-layer metrics instead of end-to-end ones\n"
               "  --out=PATH   also write the result with samples as JSON\n",
               argv0);
}

// Everything one invocation measures.
struct Run {
  std::unique_ptr<Workload> workload;  // the last set-up's, used by the passes
  PassResult reference;                // the first warm-up pass
  std::map<std::string, double> setup_counts;
  std::vector<double> setup_s, untraced_ms, traced_ms;
  std::map<std::string, double> host_ms;  // summed over traced passes
  uint64_t attempted = 0, failed = 0;
  std::string first_error;
  bool deterministic = true;

  void tally(const PassResult& r, const char* where) {
    attempted += r.attempted;
    failed += r.failed;
    if (first_error.empty()) first_error = r.first_error;
    if ((r.counts != reference.counts || r.digest != reference.digest) && deterministic) {
      deterministic = false;
      std::fprintf(stderr, "fgpu-perf: %s counters differ from the first warm-up pass\n", where);
    }
  }
};

// One cold set-up. The previous set's devices are destroyed and the caches
// cleared before the clock starts; the clock stops after the warm-up pass.
void cold_setup(Run& run, const std::string& name, Rng& rng, bool tracing) {
  const size_t i = run.setup_s.size();
  run.workload.reset();
  suite::clear_workload_cache();
  vcl::KernelCache::instance().clear();
  vcl::HlsCache::instance().clear();
  g_tracer.recording = tracing;
  g_tracer.pass = -1 - static_cast<int>(i);
  const auto t0 = Clock::now();
  PassResult warm;
  {
    Scope scope(Layer::kSetup);
    run.workload = make_workload(name);
    run.workload->setup();
    Scope warmup(Layer::kWarmup);
    warm = run.workload->pass(rng);
  }
  run.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  g_tracer.recording = false;
  const vcl::KernelCacheStats kc = vcl::KernelCache::instance().stats();
  const std::map<std::string, double> counts = {
      {"setup.kernel_cache_hits", static_cast<double>(kc.hits)},
      {"setup.kernel_cache_misses", static_cast<double>(kc.misses)}};
  if (i == 0) {
    run.reference = warm;
    run.setup_counts = counts;
  } else if (counts != run.setup_counts) {
    run.deterministic = false;
    std::fprintf(stderr, "fgpu-perf: set-up %zu cache counters differ from set-up 0\n", i);
  }
  run.tally(warm, "warm-up");
}

// One warm pass on the last set-up's devices.
void warm_pass(Run& run, Rng& rng, bool traced) {
  g_tracer.recording = traced;
  g_tracer.pass = static_cast<int>(run.untraced_ms.size() + run.traced_ms.size() + 1);
  const auto t0 = Clock::now();
  PassResult r;
  {
    Scope scope(Layer::kPass);
    r = run.workload->pass(rng);
  }
  const double ms = ms_between(t0, Clock::now());
  g_tracer.recording = false;
  (traced ? run.traced_ms : run.untraced_ms).push_back(ms);
  if (traced) {
    for (const auto& [metric, v] : r.host_ms) run.host_ms[metric] += v;
  }
  run.tally(r, "pass");
}

// Set-ups and passes interleaved for `seconds`: a set-up whenever set-ups
// have had less than kSetupShare of the time so far. With tracing every
// other pass is traced.
Run measure(const std::string& name, uint64_t seed, double seconds, bool tracing) {
  Run run;
  Rng rng(seed);
  const auto start = Clock::now();
  double setup_total_s = 0;
  for (;;) {
    const double elapsed_s = ms_between(start, Clock::now()) / 1e3;
    const bool setups_short = run.setup_s.size() < kMinSetups;
    const bool passes_short = run.untraced_ms.size() < 2 || (tracing && run.traced_ms.size() < 2);
    if (elapsed_s >= seconds && !setups_short && !passes_short) break;
    const bool setup = run.workload == nullptr ||
                       (elapsed_s < seconds ? setup_total_s < kSetupShare * elapsed_s
                                            : setups_short);
    if (setup) {
      cold_setup(run, name, rng, tracing);
      setup_total_s += run.setup_s.back();
    } else {
      warm_pass(run, rng, tracing && run.traced_ms.size() <= run.untraced_ms.size());
    }
  }
  return run;
}

// Per-layer metrics of a traced run: self times by layer (per traced pass,
// and per cold set-up for setup.*), the counters, and rates derived from
// both. Prints the self-time tables, each sorted by share.
std::map<std::string, double> layer_metrics(const Run& run,
                                            const std::map<std::string, double>& counts) {
  const double traced = static_cast<double>(run.traced_ms.size());
  const double setups = static_cast<double>(run.setup_s.size());
  const std::vector<double> self = self_ms(g_tracer.spans);
  std::map<std::string, double> pass_layers, setup_layers, metrics;
  double setup_total = 0;
  for (size_t i = 0; i < g_tracer.spans.size(); ++i) {
    const LayerInfo& li = info(g_tracer.spans[i].layer);
    if (g_tracer.spans[i].pass > 0) {
      pass_layers[li.span] += self[i] / traced;
      if (li.pass != nullptr) metrics[li.pass] += self[i] / traced;
    } else {
      setup_layers[li.span] += self[i] / setups;
      metrics[li.setup] += self[i] / setups;
      setup_total += self[i] / setups;
    }
  }
  double traced_total = 0;
  for (double ms : run.traced_ms) traced_total += ms;
  print_table("per-layer self time per traced pass (mean), by share", pass_layers,
              traced_total / traced);
  print_table("per-layer self time per cold set-up (mean), by share", setup_layers, setup_total);

  for (const auto& [name, v] : run.host_ms) metrics[name] = v / traced;
  for (const auto& [name, v] : run.workload->telemetry()) metrics[name] = v;
  for (const auto& [name, v] : counts) metrics[name] = v;
  const auto ratio = [&](const char* num, const char* den, double scale) {
    return metrics[den] > 0 ? metrics[num] / (metrics[den] * scale) : 0.0;
  };
  metrics["vortex.mips"] = ratio("vortex.instrs", "vortex.launch_ms", 1e3);
  metrics["vortex.mcps"] = ratio("vortex.cycles", "vortex.launch_ms", 1e3);
  metrics["turbo.mips"] = ratio("turbo.instrs", "turbo.launch_ms", 1e3);
  metrics["vortex.ipc"] = ratio("vortex.instrs", "vortex.cycles", 1.0);
  // Alternate passes share the host's conditions, so medians compare fairly.
  metrics["bench.trace_overhead_frac"] =
      summarize(run.traced_ms).median / summarize(run.untraced_ms).median - 1.0;
  std::map<std::string, double> out;
  for (const MetricDef& m : kPerLayer) out[m.name] = metrics[m.name];
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, trace_path, out_path;
  uint64_t seed = 1;
  double seconds = 20.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    bool ok = eq != std::string::npos && !value.empty();
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      ok = ok && *end == '\0';
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      ok = ok && *end == '\0' && seconds > 0 && seconds <= 3600;
    } else if (key == "--trace") {
      trace_path = value;
    } else if (key == "--out") {
      out_path = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "fgpu-perf: bad argument '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (make_workload(workload_name) == nullptr) {
    std::fprintf(stderr, "fgpu-perf: unknown workload '%s'\n", workload_name.c_str());
    usage(argv[0]);
    return 2;
  }
  const bool tracing = !trace_path.empty();
  Log::level() = LogLevel::kError;

  const Run run = measure(workload_name, seed, seconds, tracing);
  const double peak_rss_mb = peak_rss_kb() / 1024.0;
  const bool correct = run.failed == 0 && run.deterministic && run.attempted > 0;
  std::map<std::string, double> counts = run.reference.counts;
  counts.insert(run.setup_counts.begin(), run.setup_counts.end());

  const Summary setup = summarize(run.setup_s);
  const Summary pass = summarize(run.untraced_ms);
  std::printf("fgpu-perf %s: seed=%llu, %zu cold set-ups, %zu measured passes%s\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed), run.setup_s.size(),
              run.untraced_ms.size() + run.traced_ms.size(),
              tracing ? " (every other one traced)" : "");
  std::printf("end-to-end (host time):\n");
  const auto print_summary = [](const char* name, double value, const char* unit,
                                const Summary& s) {
    std::printf("  %-12s %12.4f %-3s p10 %.4f  p25 %.4f  median %.4f  p75 %.4f  ", name, value,
                unit, s.p10, s.p25, s.median, s.p75);
    if (s.tail_pct > 0) {
      std::printf("p%g %.4f  ", s.tail_pct, s.tail);
    } else {
      std::printf("tail n/a  ");
    }
    std::printf("n=%zu\n", s.n);
  };
  print_summary("setup_s", setup.median, "s", setup);
  print_summary("pass_ms", pass.p10, "ms", pass);
  std::printf("  %-12s %12.4f MB\n", "peak_rss_mb", peak_rss_mb);
  std::printf("  %-12s %12.4g    (%llu failed / %llu attempted)\n", "fail_frac",
              run.attempted > 0 ? static_cast<double>(run.failed) / run.attempted : 0.0,
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  if (!run.first_error.empty()) std::printf("  first failure: %s\n", run.first_error.c_str());
  std::printf("per-pass counters (simulated or static; identical on every pass):\n");
  for (const auto& [name, v] : counts) std::printf("  %-28s %.10g\n", name.c_str(), v);

  std::vector<std::pair<std::string, std::string>> named;
  std::map<std::string, double> values;
  if (tracing) {
    values = layer_metrics(run, counts);
    for (const MetricDef& m : kPerLayer) named.emplace_back(m.name, m.unit);
    if (!write_chrome_trace(trace_path, workload_name)) {
      std::fprintf(stderr, "fgpu-perf: cannot write %s\n", trace_path.c_str());
      return 2;
    }
    std::printf("trace: %s (%zu spans); trace overhead %.2f%%\n", trace_path.c_str(),
                g_tracer.spans.size(), 100.0 * values["bench.trace_overhead_frac"]);
  } else {
    values = {{"setup_s", setup.median}, {"pass_ms", pass.p10}, {"peak_rss_mb", peak_rss_mb}};
    for (const MetricDef& m : kEndToEnd) named.emplace_back(m.name, m.unit);
  }
  const std::string metrics_json = json_metrics(named, values);
  const std::string head = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(run.attempted) +
                           ", \"failed\": " + std::to_string(run.failed);

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    os << head << ", \"metrics\": " << metrics_json << ",\n \"workload\": \"" << workload_name
       << "\", \"seed\": " << seed << ", \"traced\": " << (tracing ? "true" : "false")
       << ", \"first_error\": \"" << trace::json_escape(run.first_error) << "\",\n \"counts\": "
       << json_map(counts) << ",\n \"samples\": {\"setup_s\": " << json_samples(run.setup_s)
       << ", \"pass_ms\": " << json_samples(run.untraced_ms)
       << ", \"traced_pass_ms\": " << json_samples(run.traced_ms) << "}}\n";
    if (!os) {
      std::fprintf(stderr, "fgpu-perf: cannot write %s\n", out_path.c_str());
      return 2;
    }
  }
  std::printf("%s, \"metrics\": %s}\n", head.c_str(), metrics_json.c_str());
  return correct ? 0 : 1;
}
