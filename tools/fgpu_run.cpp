// fgpu-run — the suite's command-line front end (see OBSERVABILITY.md and
// README "Observability" for the workflow):
//
//   fgpu-run --filter=vecadd --json=out.json --trace=out.trace.json
//   fgpu-run --jobs=8 --device=vortex --config=C4W8T8 --json=suite.json
//   fgpu-run --filter=vecadd --device=vortex --profile=out.json --hotspots=5
//
//   fgpu-run --jobs=8 --compare=compare.json --hlsprof=hlsprof.json
//
// Runs the selected Table-I benchmarks on the selected device(s), prints a
// coverage/cycles table, and optionally writes the fgpu.stats.v1 JSON, a
// Chrome trace_event file, the fgpu.profile.v1 per-PC cycle profile, the
// fgpu.hlsprof.v1 per-access-site HLS profile, and the fgpu.compare.v1
// side-by-side comparison. Exit status: 0 unless a usage error occurs or a
// soft-GPU benchmark fails (HLS failures are reported but expected for the
// paper's six uncovered benchmarks — fgpu-run measures, bench/table1 judges).
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/isa.hpp"
#include "codegen/codegen.hpp"
#include "common/log.hpp"
#include "suite/compare.hpp"
#include "suite/device_pool.hpp"
#include "suite/dse.hpp"
#include "suite/flagcheck.hpp"
#include "suite/runner.hpp"
#include "vortex/config.hpp"
#include "vortex/profile.hpp"

using namespace fgpu;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --filter=REGEX   run benchmarks whose name matches REGEX (default: all 28)\n"
      "  --jobs=N         worker threads (default 1; 0 = hardware concurrency)\n"
      "  --device=KIND    vortex | hls | turbo | both | all (default both)\n"
      "                   vortex = cycle-exact soft GPU (the timing oracle)\n"
      "                   turbo  = binary-translation functional tier: same\n"
      "                   binaries and output digests, no cycles/profiles\n"
      "                   both = vortex+hls; all = vortex+hls+turbo\n"
      "  --config=CcWwTt  soft-GPU shape, e.g. C4W8T8 (default C4W8T8)\n"
      "  --json=PATH      write fgpu.stats.v1 JSON stats (see OBSERVABILITY.md)\n"
      "  --trace=PATH     write Chrome trace_event JSON (open in chrome://tracing)\n"
      "  --profile=PATH   write fgpu.profile.v1 per-PC cycle profile JSON\n"
      "  --hlsprof=PATH   write fgpu.hlsprof.v1 per-access-site HLS profile JSON\n"
      "  --memprof=PATH   write fgpu.mem.v1 memory-hierarchy profile JSON (miss\n"
      "                   classes, reuse distances, MSHR/DRAM occupancy)\n"
      "  --mem-hotspots=K print top-K L1D miss sites per kernel (implies --memprof\n"
      "                   collection; soft GPU by PC, HLS by access site)\n"
      "  --compare=PATH   write fgpu.compare.v1 vortex-vs-HLS comparison JSON\n"
      "                   (requires both devices, i.e. not --device=vortex/hls)\n"
      "  --hotspots=K     print top-K stalled PCs per kernel (implies profiling)\n"
      "  --remarks=PATH   write fgpu.codegen.v1 compiler-observability JSON:\n"
      "                   per-pass telemetry + structured optimization remarks\n"
      "                   with KIR provenance (soft-GPU compiler only)\n"
      "  --remark-hotspots=K\n"
      "                   rank each kernel's remarks by the measured cycles of\n"
      "                   their provenance site and print/export the top K\n"
      "                   (implies --remarks collection and profiling)\n"
      "  --ablate=LIST    disable compiler passes, comma-separated from\n"
      "                   licm,sr,dce,peephole,ladder (pass-regression triage)\n"
      "  --predict        print the analytical model's cycle prediction and\n"
      "                   bottleneck breakdown beside each benchmark's measured\n"
      "                   soft-GPU cycles (model fidelity at --config)\n"
      "  --dse=PATH       run the design-space funnel (analytical prune ->\n"
      "                   turbo screen -> cycle-exact slice) over the --filter\n"
      "                   workloads and write fgpu.dse.v1 JSON; skips the\n"
      "                   normal suite run (see EXPERIMENTS.md)\n"
      "  --dse-grid=NAME  quick (216 configs, default) | full (12,000)\n"
      "  --dse-exact=K    cycle-exact slice size (default 32)\n"
      "  --dse-screen=K   cap on turbo-screened shapes (default 0 = all)\n"
      "  --seed=N         suite seed mixed into per-benchmark workload seeds\n"
      "  --repeat=N       run the suite N times and print the min/median wall\n"
      "                   time; repeats 2..N reuse pooled devices and hot caches\n"
      "  --fresh          construct devices per benchmark and regenerate\n"
      "                   workloads per run instead of pooling/caching (the\n"
      "                   A/B reference; simulated results are identical)\n"
      "  --no-idle-skip   tick every cycle (disable event-driven idle skipping;\n"
      "                   reported cycles are identical either way)\n"
      "  -O0 | -O1 | -O2  guest-code optimization level for the soft-GPU\n"
      "                   compiler (default -O2; -O0 is the straight-lowering\n"
      "                   oracle). --opt=N is the long spelling.\n"
      "  --dump-asm=BENCH print each kernel of BENCH as side-by-side annotated\n"
      "                   listings: -O0 on the left, the active level on the\n"
      "                   right (for debugging pass regressions)\n"
      "  --list           print selected benchmarks (name, origin, device coverage)\n"
      "  --quiet          suppress the per-benchmark table\n",
      argv0);
}

// Parses "C4W8T8" (case-insensitive, any order, all three required).
bool parse_config(const std::string& spec, vortex::Config* config) {
  uint32_t c = 0, w = 0, t = 0;
  size_t i = 0;
  while (i < spec.size()) {
    const char key = static_cast<char>(std::toupper(static_cast<unsigned char>(spec[i++])));
    size_t digits = 0;
    uint32_t value = 0;
    while (i < spec.size() && std::isdigit(static_cast<unsigned char>(spec[i]))) {
      const auto digit = static_cast<uint32_t>(spec[i++] - '0');
      if (value > (std::numeric_limits<uint32_t>::max() - digit) / 10) return false;
      value = value * 10 + digit;
      ++digits;
    }
    if (digits == 0 || value == 0) return false;
    switch (key) {
      case 'C': c = value; break;
      case 'W': w = value; break;
      case 'T': t = value; break;
      default: return false;
    }
  }
  if (c == 0 || w == 0 || t == 0) return false;
  *config = vortex::Config::with(c, w, t);
  return true;
}

// Parses a numeric flag value: decimal digits only (no sign, space or
// suffix), within [lo, hi]. Otherwise prints a message naming the flag and
// returns false, so the caller exits 2.
template <typename T>
bool parse_number(const char* flag, const std::string& value, T* out, uint64_t lo = 0,
                  uint64_t hi = std::numeric_limits<T>::max()) {
  uint64_t n = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (ec != std::errc() || ptr != end || n < lo || n > hi) {
    std::fprintf(stderr, "fgpu-run: bad %s '%s' (expected an integer in [%llu, %llu])\n", flag,
                 value.c_str(), static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return false;
  }
  *out = static_cast<T>(n);
  return true;
}

bool flag_value(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

const char* status_cell(bool ran, const suite::DeviceRun& run) {
  if (!ran) return "-";
  return run.ok() ? "O" : "X";
}

// --dump-asm: every kernel of one benchmark, -O0 listing beside the
// active-level listing. Listings use synthetic labels without addresses, so
// each column is the re-assemblable annotated form.
int dump_asm(const std::string& bench_name, int opt_level) {
  const auto& names = suite::all_benchmark_names();
  if (std::find(names.begin(), names.end(), bench_name) == names.end()) {
    std::fprintf(stderr, "fgpu-run: --dump-asm: unknown benchmark '%s'\n", bench_name.c_str());
    return 2;
  }
  const suite::Benchmark bench = suite::make_benchmark(bench_name);
  for (const auto& kernel : bench.module.kernels) {
    codegen::Options pre_opts;
    pre_opts.opt_level = 0;
    codegen::Options post_opts;
    post_opts.opt_level = opt_level;
    auto pre = codegen::compile_kernel(kernel, pre_opts);
    auto post = codegen::compile_kernel(kernel, post_opts);
    if (!pre.is_ok() || !post.is_ok()) {
      std::fprintf(stderr, "fgpu-run: --dump-asm: %s: %s\n", kernel.name.c_str(),
                   (!pre.is_ok() ? pre.status() : post.status()).message().c_str());
      return 1;
    }
    const auto render = [](const codegen::CompiledKernel& ck) {
      vasm::DisasmOptions o;
      o.addresses = false;
      o.synth_labels = true;
      o.source_map = &ck.source_map;
      return ck.program.disassemble(o);
    };
    const auto split = [](const std::string& text) {
      std::vector<std::string> lines;
      size_t start = 0;
      while (start <= text.size()) {
        const size_t nl = text.find('\n', start);
        if (nl == std::string::npos) {
          if (start < text.size()) lines.push_back(text.substr(start));
          break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
      }
      return lines;
    };
    const auto left = split(render(*pre));
    const auto right = split(render(*post));
    size_t width = 24;
    for (const auto& line : left) width = std::max(width, line.size());
    width = std::min<size_t>(width, 56);
    std::printf("== %s / %s: %zu words at -O0, %zu words at -O%d ==\n", bench_name.c_str(),
                kernel.name.c_str(), pre->program.words.size(), post->program.words.size(),
                post->opt_level);
    std::printf("%-*s | %s\n", static_cast<int>(width), "-O0", ("-O" + std::to_string(post->opt_level)).c_str());
    const size_t rows = std::max(left.size(), right.size());
    for (size_t i = 0; i < rows; ++i) {
      const std::string& l = i < left.size() ? left[i] : std::string();
      const std::string& r = i < right.size() ? right[i] : std::string();
      std::printf("%-*s | %s\n", static_cast<int>(width), l.c_str(), r.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

// --mem-hotspots: the top-K miss sites of each kernel, ranked by total
// misses with the 3C split beside them. Soft GPU sites are L1D PCs rendered
// with instruction + KIR provenance; HLS sites are the burst-LSU access
// sites of the read-path shadow cache.
void print_mem_hotspots(const suite::BenchmarkOutcome& outcome, uint32_t k) {
  const auto rank = [](const std::map<uint32_t, mem::MissClasses>& by_tag) {
    std::vector<std::pair<uint32_t, mem::MissClasses>> sites(by_tag.begin(), by_tag.end());
    std::stable_sort(sites.begin(), sites.end(),
                     [](const auto& a, const auto& b) { return a.second.total() > b.second.total(); });
    return sites;
  };
  for (const auto& mp : outcome.vortex.mem_profiles) {
    std::printf("\n== %s / %s: top %u L1D miss PCs (compulsory/capacity/conflict) ==\n",
                outcome.name.c_str(), mp.kernel.c_str(), k);
    uint32_t shown = 0;
    for (const auto& [pc, classes] : rank(mp.mem.l1d.by_tag)) {
      if (shown == k) break;
      ++shown;
      const size_t index = (pc - mp.binary.base) / 4;
      std::string text = "<unknown>";
      if (index < mp.binary.words.size()) {
        const auto instr = arch::decode(mp.binary.words[index]);
        text = instr ? arch::to_string(*instr) : "<invalid>";
      }
      std::printf("  %08x  %-28s %8llu misses (%llu/%llu/%llu)  %s\n", pc, text.c_str(),
                  static_cast<unsigned long long>(classes.total()),
                  static_cast<unsigned long long>(classes.compulsory),
                  static_cast<unsigned long long>(classes.capacity),
                  static_cast<unsigned long long>(classes.conflict),
                  mp.source_map.source_for(index).c_str());
    }
  }
  for (const auto& mp : outcome.hls.mem_profiles) {
    std::printf("\n== %s / %s: top %u read-path miss sites (compulsory/capacity/conflict) ==\n",
                outcome.name.c_str(), mp.kernel.c_str(), k);
    uint32_t shown = 0;
    for (const auto& [tag, classes] : rank(mp.hls_mem.by_tag)) {
      if (shown == k) break;
      ++shown;
      const bool mapped = tag < mp.sites.size();
      std::printf("  site %-4d %-28s %8llu misses (%llu/%llu/%llu)  %s\n",
                  mapped ? static_cast<int>(tag) : -1,
                  mapped ? mp.sites[tag].buffer.c_str() : "<unmapped>",
                  static_cast<unsigned long long>(classes.total()),
                  static_cast<unsigned long long>(classes.compulsory),
                  static_cast<unsigned long long>(classes.capacity),
                  static_cast<unsigned long long>(classes.conflict),
                  mapped ? mp.sites[tag].source.c_str() : "");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Log::level() = LogLevel::kOff;
  suite::RunnerOptions options;
  std::string json_path, trace_path, profile_path, hlsprof_path, memprof_path, compare_path,
      remarks_path, value;
  bool list_only = false, quiet = false;
  uint32_t hotspots = 0;
  uint32_t mem_hotspots = 0;
  uint32_t repeat = 1;
  bool idle_skip = true;  // applied after parsing (--config rebuilds the Config)
  std::string dump_asm_bench;
  bool predict = false;
  std::string dse_path;
  suite::DseOptions dse_options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (std::strcmp(arg, "--list") == 0) {
      list_only = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (flag_value(arg, "--filter", &value)) {
      options.filter = value;
    } else if (flag_value(arg, "--jobs", &value)) {
      if (!parse_number("--jobs", value, &options.jobs)) return 2;
    } else if (flag_value(arg, "--seed", &value)) {
      if (!parse_number("--seed", value, &options.suite_seed)) return 2;
    } else if (flag_value(arg, "--repeat", &value)) {
      if (!parse_number("--repeat", value, &repeat, 1)) return 2;
    } else if (std::strcmp(arg, "--fresh") == 0) {
      options.reuse_devices = false;
    } else if (std::strcmp(arg, "--no-idle-skip") == 0) {
      idle_skip = false;
    } else if (std::strcmp(arg, "-O0") == 0) {
      options.opt_level = 0;
    } else if (std::strcmp(arg, "-O1") == 0) {
      options.opt_level = 1;
    } else if (std::strcmp(arg, "-O2") == 0) {
      options.opt_level = 2;
    } else if (flag_value(arg, "--opt", &value)) {
      if (value.size() != 1 || value[0] < '0' || value[0] > '2') {
        std::fprintf(stderr, "fgpu-run: bad --opt '%s' (expected 0, 1, or 2)\n", value.c_str());
        return 2;
      }
      options.opt_level = value[0] - '0';
    } else if (flag_value(arg, "--dump-asm", &value)) {
      dump_asm_bench = value;
    } else if (flag_value(arg, "--json", &value)) {
      json_path = value;
    } else if (flag_value(arg, "--trace", &value)) {
      trace_path = value;
      options.capture_trace = true;
    } else if (flag_value(arg, "--profile", &value)) {
      profile_path = value;
      options.capture_profile = true;
    } else if (flag_value(arg, "--hlsprof", &value)) {
      hlsprof_path = value;
    } else if (flag_value(arg, "--memprof", &value)) {
      memprof_path = value;
      options.capture_memprof = true;
    } else if (flag_value(arg, "--mem-hotspots", &value)) {
      if (!parse_number("--mem-hotspots", value, &mem_hotspots)) return 2;
      options.capture_memprof = true;
    } else if (flag_value(arg, "--compare", &value)) {
      compare_path = value;
    } else if (flag_value(arg, "--hotspots", &value)) {
      if (!parse_number("--hotspots", value, &hotspots)) return 2;
      options.capture_profile = true;
    } else if (flag_value(arg, "--remarks", &value)) {
      remarks_path = value;
      options.capture_remarks = true;
    } else if (flag_value(arg, "--remark-hotspots", &value)) {
      if (!parse_number("--remark-hotspots", value, &options.remark_hotspots)) return 2;
      options.capture_remarks = true;
      options.capture_profile = true;  // the ranking joins against cycles
    } else if (std::strcmp(arg, "--predict") == 0) {
      predict = true;
    } else if (flag_value(arg, "--dse", &value)) {
      dse_path = value;
    } else if (flag_value(arg, "--dse-grid", &value)) {
      dse_options.grid = value;
    } else if (flag_value(arg, "--dse-exact", &value)) {
      if (!parse_number("--dse-exact", value, &dse_options.exact_budget)) return 2;
    } else if (flag_value(arg, "--dse-screen", &value)) {
      if (!parse_number("--dse-screen", value, &dse_options.screen_budget)) return 2;
    } else if (flag_value(arg, "--ablate", &value)) {
      size_t start = 0;
      while (start <= value.size()) {
        const size_t comma = value.find(',', start);
        const std::string pass =
            value.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        if (pass == "licm") {
          options.ablate.kir_licm = true;
        } else if (pass == "sr") {
          options.ablate.kir_strength_reduce = true;
        } else if (pass == "dce") {
          options.ablate.kir_dce = true;
        } else if (pass == "peephole") {
          options.ablate.peephole = true;
        } else if (pass == "ladder") {
          options.ablate.pressure_ladder = true;
        } else {
          std::fprintf(stderr,
                       "fgpu-run: bad --ablate pass '%s' (expected a comma-separated "
                       "subset of licm,sr,dce,peephole,ladder)\n",
                       pass.c_str());
          return 2;
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (flag_value(arg, "--device", &value)) {
      if (value == "vortex") {
        options.run_hls = false;
        options.run_turbo = false;
      } else if (value == "hls") {
        options.run_vortex = false;
        options.run_turbo = false;
      } else if (value == "turbo") {
        options.run_vortex = false;
        options.run_hls = false;
        options.run_turbo = true;
      } else if (value == "all") {
        options.run_turbo = true;
      } else if (value != "both") {
        std::fprintf(stderr, "fgpu-run: unknown --device '%s'\n", value.c_str());
        return 2;
      }
    } else if (flag_value(arg, "--config", &value)) {
      if (!parse_config(value, &options.vortex_config)) {
        std::fprintf(stderr, "fgpu-run: bad --config '%s' (expected e.g. C4W8T8)\n",
                     value.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "fgpu-run: unknown option '%s'\n", arg);
      usage(argv[0]);
      return 2;
    }
  }

  options.vortex_config.idle_skip = idle_skip;

  if (!dump_asm_bench.empty()) return dump_asm(dump_asm_bench, options.opt_level);

  // Flag/device consistency: each export needs the device(s) that produce
  // its data, so a contradictory --device is a usage error (exit 2), not a
  // silently empty document. The rules live in one declarative table
  // (suite/flagcheck.hpp) shared with tests/test_flagcheck.cpp.
  {
    suite::FlagRequests requests;
    requests.compare = !compare_path.empty();
    // Explicit --profile/--hotspots only: --remark-hotspots also turns on
    // profile collection, but its contradiction should name the flag the
    // user actually typed (the remarks rule has the same requirement).
    requests.profile = !profile_path.empty() || hotspots > 0;
    requests.hlsprof = !hlsprof_path.empty();
    requests.memprof = options.capture_memprof;
    requests.remarks = options.capture_remarks || options.remark_hotspots > 0;
    requests.predict = predict;
    requests.dse = !dse_path.empty();
    suite::DeviceSelection devices;
    devices.vortex = options.run_vortex;
    devices.hls = options.run_hls;
    devices.turbo = options.run_turbo;
    const std::string contradiction = suite::check_flag_contradictions(requests, devices);
    if (!contradiction.empty()) {
      std::fprintf(stderr, "%s\n", contradiction.c_str());
      return 2;
    }
  }

  // Resolve the filter up front so both --list and the run path report a
  // non-matching filter as an error instead of silently doing nothing.
  auto names = suite::filter_names(options.filter);
  if (!names.is_ok()) {
    std::fprintf(stderr, "fgpu-run: %s\n", names.status().message().c_str());
    return 2;
  }
  if (names->empty()) {
    std::fprintf(stderr, "fgpu-run: no benchmarks match --filter '%s'\n",
                 options.filter.c_str());
    return 2;
  }

  if (list_only) {
    std::printf("%-16s | %-14s | %-6s | %-6s | %-18s\n", "benchmark", "origin", "vortex",
                "hls", "hls limitation");
    std::printf("-----------------+----------------+--------+--------+-------------------\n");
    for (const auto& name : *names) {
      const suite::Benchmark bench = suite::make_benchmark(name);
      const char* hls_fail = suite::paper_hls_failure(name);
      std::printf("%-16s | %-14s | %-6s | %-6s | %-18s\n", name.c_str(), bench.origin.c_str(),
                  "O", hls_fail == nullptr ? "O" : "X", hls_fail == nullptr ? "" : hls_fail);
    }
    std::printf("\n%zu of %zu benchmarks selected\n", names->size(),
                suite::all_benchmark_names().size());
    return 0;
  }

  // One pool for the whole process: --repeat iterations 2..N re-arm the
  // previous iteration's devices, which is where the kernel-cache hits and
  // turbo translation retention land.
  suite::DevicePool pool;
  if (options.reuse_devices) options.pool = &pool;

  // --dse: the design-space funnel replaces the suite run. The --filter
  // selection is the funnel's workload set; --jobs/-O/--fresh carry their
  // usual meanings.
  if (!dse_path.empty()) {
    dse_options.benchmarks = *names;
    dse_options.jobs = options.jobs == 0 ? std::thread::hardware_concurrency() : options.jobs;
    dse_options.opt_level = options.opt_level;
    dse_options.reuse_devices = options.reuse_devices;
    if (options.reuse_devices) dse_options.pool = &pool;
    const suite::DseResult dse = suite::run_dse(dse_options);
    if (!dse.error.empty()) {
      std::fprintf(stderr, "fgpu-run: --dse: %s\n", dse.error.c_str());
      return 2;
    }
    std::ofstream out(dse_path);
    if (!out) {
      std::fprintf(stderr, "fgpu-run: cannot write '%s'\n", dse_path.c_str());
      return 2;
    }
    suite::write_dse_json(out, dse_options, dse);
    if (!quiet) {
      std::printf("dse: %zu candidates -> analytical %zu (%zu infeasible, %zu unfit) -> "
                  "screen %zu (%zu/%zu shapes ok) -> exact %zu (%zu ok)\n",
                  dse.grid_total, dse.analytical_survivors, dse.infeasible, dse.unfit,
                  dse.screen_survivors, dse.shapes_screened - dse.shapes_failed,
                  dse.shapes_screened, dse.exact_selected, dse.exact_ok);
      std::printf("dse: spearman(predicted, simulated) = %.3f over the exact slice\n",
                  dse.spearman);
      for (const auto& cand : dse.candidates) {
        if (cand.pareto) {
          std::printf("  pareto: %-44s %10llu cycles  util %.2f\n", cand.label.c_str(),
                      static_cast<unsigned long long>(cand.simulated_cycles),
                      cand.utilization);
        }
      }
      std::printf("dse    -> %s\n", dse_path.c_str());
    }
    return dse.exact_selected == dse.exact_ok ? 0 : 1;
  }

  auto result = suite::run_all(options);
  if (!result.is_ok()) {
    std::fprintf(stderr, "fgpu-run: %s\n", result.status().message().c_str());
    return 2;
  }
  // --repeat: re-run the identical workload to smooth host noise. The
  // first run is the primary (its stats/trace/profile are the ones
  // exported — the simulator is deterministic, so repeats produce the
  // same simulated results and differ only in wall time).
  std::vector<double> walls = {result->wall_ms};
  for (uint32_t r = 1; r < repeat; ++r) {
    auto again = suite::run_all(options);
    if (!again.is_ok()) {
      std::fprintf(stderr, "fgpu-run: repeat %u: %s\n", r + 1, again.status().message().c_str());
      return 2;
    }
    walls.push_back(again->wall_ms);
  }

  if (!quiet) {
    if (options.run_turbo) {
      std::printf("%-16s | %-6s | %-12s | %-6s | %-6s | %-18s\n", "benchmark", "vortex",
                  "cycles", "turbo", "hls", "hls fail reason");
      std::printf(
          "-----------------+--------+--------------+--------+--------+-------------------\n");
    } else {
      std::printf("%-16s | %-6s | %-12s | %-6s | %-18s\n", "benchmark", "vortex", "cycles",
                  "hls", "hls fail reason");
      std::printf("-----------------+--------+--------------+--------+-------------------\n");
    }
    for (const auto& outcome : result->outcomes) {
      char cycles[24] = "-";
      if (outcome.ran_vortex && outcome.vortex.ok()) {
        std::snprintf(cycles, sizeof(cycles), "%llu",
                      static_cast<unsigned long long>(outcome.vortex.total_cycles));
      }
      if (options.run_turbo) {
        std::printf("%-16s | %-6s | %-12s | %-6s | %-6s | %-18s\n", outcome.name.c_str(),
                    status_cell(outcome.ran_vortex, outcome.vortex), cycles,
                    status_cell(outcome.ran_turbo, outcome.turbo),
                    status_cell(outcome.ran_hls, outcome.hls),
                    outcome.ran_hls && !outcome.hls.ok() ? outcome.hls.fail_reason.c_str() : "");
      } else {
        std::printf("%-16s | %-6s | %-12s | %-6s | %-18s\n", outcome.name.c_str(),
                    status_cell(outcome.ran_vortex, outcome.vortex), cycles,
                    status_cell(outcome.ran_hls, outcome.hls),
                    outcome.ran_hls && !outcome.hls.ok() ? outcome.hls.fail_reason.c_str() : "");
      }
    }
    if (repeat > 1) {
      std::sort(walls.begin(), walls.end());
      const double median = walls.size() % 2 == 1
                                ? walls[walls.size() / 2]
                                : (walls[walls.size() / 2 - 1] + walls[walls.size() / 2]) / 2.0;
      std::printf("\n%zu benchmarks x%u: wall min %.0f ms, median %.0f ms", result->outcomes.size(),
                  repeat, walls.front(), median);
    } else {
      std::printf("\n%zu benchmarks in %.0f ms", result->outcomes.size(), result->wall_ms);
    }
    if (options.run_vortex) {
      std::printf("; vortex %d/%zu pass", result->vortex_passes(), result->outcomes.size());
    }
    if (options.run_turbo) {
      std::printf("; turbo %d/%zu pass", result->turbo_passes(), result->outcomes.size());
    }
    if (options.run_hls) {
      std::printf("; hls %d/%zu pass", result->hls_passes(), result->outcomes.size());
    }
    std::printf("\n");
  }

  // --predict: the analytical model (vortex/analytical.hpp) against the
  // cycle-exact measurement, per benchmark, at the active --config. The
  // bottleneck column is what the model believes binds — the signal a
  // design-space sweep prunes on.
  if (predict) {
    std::printf("\n%-16s | %12s | %12s | %6s | %-7s | %s\n", "benchmark", "predicted",
                "measured", "ratio", "bound", "issue/memory/dram/latency");
    std::printf(
        "-----------------+--------------+--------------+--------+---------+--------------\n");
    for (const auto& outcome : result->outcomes) {
      if (!outcome.ran_vortex) continue;
      const auto bench = suite::shared_benchmark(outcome.name);
      const auto profiles = suite::profile_benchmark(*bench);
      if (!profiles.is_ok()) {
        std::printf("%-16s | %s\n", outcome.name.c_str(),
                    profiles.status().message().c_str());
        continue;
      }
      const vortex::Prediction p =
          suite::predict_benchmark(*profiles, options.vortex_config);
      char measured[24] = "-";
      double ratio = 0.0;
      if (outcome.vortex.ok() && outcome.vortex.total_cycles > 0) {
        std::snprintf(measured, sizeof(measured), "%llu",
                      static_cast<unsigned long long>(outcome.vortex.total_cycles));
        ratio = p.cycles / static_cast<double>(outcome.vortex.total_cycles);
      }
      std::printf("%-16s | %12.0f | %12s | %6.2f | %-7s | %.0f/%.0f/%.0f/%.0f\n",
                  outcome.name.c_str(), p.cycles, measured, ratio,
                  p.bottleneck != nullptr ? p.bottleneck : "", p.issue_bound, p.memory_bound,
                  p.dram_bound, p.latency_bound);
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "fgpu-run: cannot write '%s'\n", json_path.c_str());
      return 2;
    }
    suite::write_stats_json(out, options, *result);
    if (!quiet) std::printf("stats  -> %s\n", json_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "fgpu-run: cannot write '%s'\n", trace_path.c_str());
      return 2;
    }
    suite::write_trace_json(out, *result);
    if (!quiet) std::printf("trace  -> %s\n", trace_path.c_str());
  }
  if (!profile_path.empty()) {
    std::ofstream out(profile_path);
    if (!out) {
      std::fprintf(stderr, "fgpu-run: cannot write '%s'\n", profile_path.c_str());
      return 2;
    }
    suite::write_profile_json(out, options, *result);
    if (!quiet) std::printf("profile -> %s\n", profile_path.c_str());
  }
  if (!hlsprof_path.empty()) {
    std::ofstream out(hlsprof_path);
    if (!out) {
      std::fprintf(stderr, "fgpu-run: cannot write '%s'\n", hlsprof_path.c_str());
      return 2;
    }
    suite::write_hlsprof_json(out, options, *result);
    if (!quiet) std::printf("hlsprof -> %s\n", hlsprof_path.c_str());
  }
  if (!memprof_path.empty()) {
    std::ofstream out(memprof_path);
    if (!out) {
      std::fprintf(stderr, "fgpu-run: cannot write '%s'\n", memprof_path.c_str());
      return 2;
    }
    suite::write_mem_json(out, options, *result);
    if (!quiet) std::printf("memprof -> %s\n", memprof_path.c_str());
  }
  if (!remarks_path.empty()) {
    std::ofstream out(remarks_path);
    if (!out) {
      std::fprintf(stderr, "fgpu-run: cannot write '%s'\n", remarks_path.c_str());
      return 2;
    }
    suite::write_codegen_json(out, options, *result);
    if (!quiet) std::printf("remarks -> %s\n", remarks_path.c_str());
  }
  if (!compare_path.empty()) {
    std::ofstream out(compare_path);
    if (!out) {
      std::fprintf(stderr, "fgpu-run: cannot write '%s'\n", compare_path.c_str());
      return 2;
    }
    suite::write_compare_json(out, options, *result);
    if (!quiet) std::printf("compare -> %s\n", compare_path.c_str());
  }
  if (hotspots > 0) {
    for (const auto& outcome : result->outcomes) {
      for (const auto& kp : outcome.vortex.kernel_profiles) {
        std::printf("\n== %s / %s: top %u PCs by stall cycles ==\n", outcome.name.c_str(),
                    kp.kernel.c_str(), hotspots);
        std::fputs(
            vortex::hotspot_report(kp.binary, kp.source_map, kp.profile, hotspots).c_str(),
            stdout);
      }
    }
  }
  if (mem_hotspots > 0) {
    for (const auto& outcome : result->outcomes) print_mem_hotspots(outcome, mem_hotspots);
  }
  if (options.remark_hotspots > 0) {
    for (const auto& outcome : result->outcomes) {
      for (const auto& kc : outcome.vortex.codegen) {
        const auto ranked = suite::rank_remarks(outcome.vortex, kc,
                                                static_cast<size_t>(options.remark_hotspots));
        std::printf("\n== %s / %s: top %d remarks by attributed cycles ==\n",
                    outcome.name.c_str(), kc.kernel.c_str(), options.remark_hotspots);
        for (size_t i = 0; i < ranked.size(); ++i) {
          std::printf("  %8llu cyc (%llu stall)  %-7s %-20s %s\n",
                      static_cast<unsigned long long>(ranked[i].cycles),
                      static_cast<unsigned long long>(ranked[i].stall_cycles),
                      ranked[i].remark->action.c_str(), ranked[i].remark->name.c_str(),
                      ranked[i].remark->site.c_str());
        }
      }
    }
  }

  // Soft-GPU and turbo failures are always unexpected (the paper's Table I:
  // Vortex runs all 28, and turbo executes the same binaries); HLS failures
  // are data, not errors.
  const int vortex_failures =
      options.run_vortex
          ? static_cast<int>(result->outcomes.size()) - result->vortex_passes()
          : 0;
  const int turbo_failures =
      options.run_turbo
          ? static_cast<int>(result->outcomes.size()) - result->turbo_passes()
          : 0;
  return vortex_failures + turbo_failures == 0 ? 0 : 1;
}
