#include "suite/dse.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <thread>
#include <tuple>
#include <utility>

#include "codegen/codegen.hpp"
#include "runtime/turbo_device.hpp"
#include "runtime/vortex_device.hpp"
#include "suite/report.hpp"
#include "trace/json.hpp"
#include "vortex/area.hpp"

namespace fgpu::suite {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Work-stealing fan-out: runs fn(i) for i in [0, count) on up to `jobs`
// threads. fn writes into pre-sized slots, so the result is independent of
// the interleaving.
void for_each_index(size_t count, uint32_t jobs, const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  const uint32_t workers =
      std::max<uint32_t>(1, std::min<uint32_t>(jobs, static_cast<uint32_t>(count)));
  if (workers == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (uint32_t t = 0; t < workers; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) fn(i);
    });
  }
  for (auto& th : threads) th.join();
}

struct Workload {
  std::shared_ptr<const Benchmark> bench;
  std::shared_ptr<const std::vector<std::vector<uint32_t>>> reference;
};

// Resolves benchmarks + interpreter references, memoized through the
// shared_* caches when requested.
Result<std::vector<Workload>> resolve_workloads(const std::vector<std::string>& names,
                                                bool reuse) {
  std::vector<Workload> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    Workload w;
    if (reuse) {
      w.bench = shared_benchmark(name);
      w.reference = shared_reference(name);
    } else {
      w.bench = std::make_shared<const Benchmark>(make_benchmark(name));
      auto computed = reference_run(*w.bench);
      if (computed.is_ok()) {
        w.reference = std::make_shared<const std::vector<std::vector<uint32_t>>>(
            std::move(*computed));
      }
    }
    if (w.bench == nullptr || w.bench->launches.empty()) {
      return Result<std::vector<Workload>>(ErrorKind::kNotFound,
                                           "unknown benchmark '" + name + "'");
    }
    out.push_back(std::move(w));
  }
  return out;
}

std::string exact_identity(const ExactPoint& point, int opt_level) {
  return dse_config_label(point.config, *point.board) + ":O" + std::to_string(opt_level);
}

}  // namespace

std::string dse_config_label(const vortex::Config& config, const fpga::Board& board) {
  return config.to_string() + ":l1d" + std::to_string(config.l1d.size_bytes / 1024) + "k:l2" +
         std::to_string(config.l2.size_bytes / 1024) + "k:" + config.dram.name + "@" +
         board.name;
}

std::vector<DseCandidate> enumerate_grid(const std::string& grid) {
  struct Axes {
    std::vector<uint32_t> cores, warps, threads, l1d_kb, l2_kb;
    std::vector<mem::DramConfig> dram;
    std::vector<const fpga::Board*> boards;
  };
  Axes a;
  // A dual-channel DDR4 point sits between the boards' native memories so
  // the channel axis has a middle rung (the HBM-vs-DDR question of §III).
  mem::DramConfig ddr4x2 = mem::DramConfig::ddr4();
  ddr4x2.name = "ddr4x2";
  ddr4x2.channels = 2;
  if (grid == "full") {
    // 5*5*5 * 4*4 * 3 * 2 = 12,000 candidates.
    a.cores = {1, 2, 4, 8, 16};
    a.warps = {2, 4, 8, 16, 32};
    a.threads = {2, 4, 8, 16, 32};
    a.l1d_kb = {8, 16, 32, 64};
    a.l2_kb = {64, 128, 256, 512};
    a.dram = {mem::DramConfig::ddr4(), ddr4x2, mem::DramConfig::hbm2()};
    a.boards = {&fpga::stratix10_sx2800(), &fpga::stratix10_mx2100()};
  } else if (grid == "quick") {
    // 3*3*3 * 2*2 * 2 * 1 = 216 candidates (CI-sized).
    a.cores = {1, 2, 4};
    a.warps = {2, 4, 8};
    a.threads = {2, 4, 8};
    a.l1d_kb = {8, 16};
    a.l2_kb = {64, 128};
    a.dram = {mem::DramConfig::ddr4(), mem::DramConfig::hbm2()};
    a.boards = {&fpga::stratix10_sx2800()};
  } else {
    return {};
  }

  std::vector<DseCandidate> out;
  out.reserve(a.cores.size() * a.warps.size() * a.threads.size() * a.l1d_kb.size() *
              a.l2_kb.size() * a.dram.size() * a.boards.size());
  // Canonical order: board, dram, cores, warps, threads, l1d, l2 (outermost
  // to innermost). The exported document and all funnel decisions follow
  // this order, which is what makes the sweep byte-reproducible.
  for (const fpga::Board* board : a.boards) {
    for (const auto& dram : a.dram) {
      for (uint32_t c : a.cores) {
        for (uint32_t w : a.warps) {
          for (uint32_t t : a.threads) {
            for (uint32_t l1 : a.l1d_kb) {
              for (uint32_t l2 : a.l2_kb) {
                DseCandidate cand;
                cand.config = vortex::Config::with(c, w, t);
                cand.config.l1d.size_bytes = l1 * 1024;
                cand.config.l2.size_bytes = l2 * 1024;
                cand.config.dram = dram;
                cand.board = board;
                cand.label = dse_config_label(cand.config, *board);
                out.push_back(std::move(cand));
              }
            }
          }
        }
      }
    }
  }
  return out;
}

Result<std::vector<vortex::KernelProfile>> profile_benchmark(const Benchmark& bench) {
  using R = Result<std::vector<vortex::KernelProfile>>;
  // Buffer state threads through the launch sequence (profile_kernel's
  // interpreter mutates the scratch copies), so later launches are profiled
  // against the data earlier launches produced — same shape as
  // reference_run.
  std::vector<std::vector<uint32_t>> buffers = bench.buffers;
  std::vector<vortex::KernelProfile> profiles;
  profiles.reserve(bench.launches.size());
  for (const auto& launch : bench.launches) {
    const kir::Kernel* kernel = bench.module.find(launch.kernel);
    if (kernel == nullptr) {
      return R(ErrorKind::kNotFound, bench.name + ": kernel '" + launch.kernel + "' missing");
    }
    std::vector<kir::KernelArg> args;
    args.reserve(launch.args.size());
    for (const auto& spec : launch.args) {
      switch (spec.kind) {
        case ArgSpec::Kind::kBuffer:
          args.push_back(kir::KernelArg::buffer(&buffers[static_cast<size_t>(spec.buffer)]));
          break;
        case ArgSpec::Kind::kI32:
          args.push_back(kir::KernelArg::scalar_i32(spec.i32));
          break;
        case ArgSpec::Kind::kF32:
          args.push_back(kir::KernelArg::scalar_f32(spec.f32));
          break;
      }
    }
    auto profile = vortex::profile_kernel(*kernel, args, launch.ndrange);
    if (!profile.is_ok()) {
      return R(profile.status().kind(), bench.name + ": " + profile.status().message());
    }
    profiles.push_back(*profile);
  }
  return profiles;
}

vortex::Prediction predict_benchmark(const std::vector<vortex::KernelProfile>& profiles,
                                     const vortex::Config& config) {
  vortex::Prediction total;
  double dominant = -1.0;
  for (const auto& profile : profiles) {
    const vortex::Prediction p = vortex::predict_cycles(profile, config);
    total.cycles += p.cycles;
    total.issue_bound += p.issue_bound;
    total.memory_bound += p.memory_bound;
    total.latency_bound += p.latency_bound;
    total.dram_bound += p.dram_bound;
    total.overhead += p.overhead;
    if (p.cycles > dominant) {
      dominant = p.cycles;
      total.bottleneck = p.bottleneck;
    }
  }
  return total;
}

double spearman_rank(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t n = a.size();
  if (n < 2 || b.size() != n) return 0.0;
  auto ranks = [n](const std::vector<double>& v) {
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t x, size_t y) { return v[x] < v[y]; });
    std::vector<double> r(n);
    for (size_t i = 0; i < n;) {
      size_t j = i;
      while (j + 1 < n && v[order[j + 1]] == v[order[i]]) ++j;
      const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
      for (size_t k = i; k <= j; ++k) r[order[k]] = avg;
      i = j + 1;
    }
    return r;
  };
  const std::vector<double> ra = ranks(a), rb = ranks(b);
  const double mean = (static_cast<double>(n) + 1.0) / 2.0;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = ra[i] - mean, db = rb[i] - mean;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va == 0.0 || vb == 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

std::vector<std::vector<ExactCell>> run_exact_grid(const std::vector<ExactPoint>& points,
                                                   const std::vector<std::string>& benchmarks,
                                                   const ExactGridOptions& options) {
  std::vector<std::vector<ExactCell>> results(points.size(),
                                              std::vector<ExactCell>(benchmarks.size()));
  if (points.empty() || benchmarks.empty()) return results;

  auto workloads = resolve_workloads(benchmarks, options.reuse_workloads);
  if (!workloads.is_ok()) {
    for (auto& row : results) {
      for (auto& cell : row) cell.fail = workloads.status().message();
    }
    return results;
  }

  codegen::Options codegen_options;
  codegen_options.opt_level = options.opt_level;

  for_each_index(points.size(), options.jobs, [&](size_t i) {
    const ExactPoint& point = points[i];
    const std::string identity = exact_identity(point, options.opt_level);
    DeviceSet set = options.pool != nullptr ? options.pool->acquire(identity) : DeviceSet{};
    for (size_t b = 0; b < workloads->size(); ++b) {
      const Workload& w = (*workloads)[b];
      if (set.vortex == nullptr) {
        // The device takes DRAM timing from the board (DRAM is a board
        // property), so realize this candidate's DRAM axis as a board
        // variant — otherwise every point would simulate the stock
        // channel/latency numbers and the dram axis would be dead.
        fpga::Board board = *point.board;
        board.dram = point.config.dram;
        set.vortex = std::make_unique<vcl::VortexDevice>(point.config, board, codegen_options);
      } else {
        set.vortex->reset();
      }
      const DeviceRun run =
          run_benchmark(*set.vortex, *w.bench, w.reference ? w.reference.get() : nullptr);
      ExactCell& cell = results[i][b];
      cell.ok = run.ok();
      cell.cycles = run.total_cycles;
      cell.lsu_stalls = run.last.perf.stall_lsu;
      cell.fail = run.fail_reason;
    }
    if (options.pool != nullptr) options.pool->release(identity, std::move(set));
  });
  return results;
}

DseResult run_dse(const DseOptions& options) {
  DseResult r;
  r.candidates = enumerate_grid(options.grid);
  r.grid_total = r.candidates.size();
  if (r.candidates.empty()) {
    r.error = "unknown grid '" + options.grid + "' (expected quick|full)";
    return r;
  }

  auto workloads = resolve_workloads(options.benchmarks, options.reuse_devices);
  if (!workloads.is_ok()) {
    r.error = workloads.status().message();
    return r;
  }

  // --- stage 1: analytical + area pre-filter over the full grid ----------
  const auto t1 = Clock::now();
  std::vector<std::vector<vortex::KernelProfile>> profiles;
  profiles.reserve(workloads->size());
  std::vector<vortex::KernelProfile> combined;  // all launches, all benchmarks
  uint32_t barrier_lanes = 0;  // largest work-group among barrier launches
  for (const auto& w : *workloads) {
    auto p = profile_benchmark(*w.bench);
    if (!p.is_ok()) {
      r.error = p.status().message();
      return r;
    }
    for (size_t l = 0; l < p->size(); ++l) {
      if ((*p)[l].uses_barriers) {
        barrier_lanes = std::max(barrier_lanes, w.bench->launches[l].ndrange.local_items());
      }
      combined.push_back((*p)[l]);
    }
    profiles.push_back(std::move(*p));
  }

  for (auto& cand : r.candidates) {
    cand.area = vortex::estimate_area(cand.config);
    cand.utilization = cand.board->utilization(cand.area);
    cand.fits = cand.utilization <= 1.0;
    cand.feasible =
        barrier_lanes == 0 || cand.config.warps * cand.config.threads >= barrier_lanes;
    const vortex::Prediction p = predict_benchmark(combined, cand.config);
    cand.predicted_cycles = p.cycles;
    cand.bottleneck = p.bottleneck != nullptr ? p.bottleneck : "";
    if (!cand.feasible) {
      ++r.infeasible;
    } else if (!cand.fits) {
      ++r.unfit;
    } else {
      ++r.analytical_survivors;
    }
  }
  r.host_analytical.wall_ms = elapsed_ms(t1);

  // --- stage 2: functional screen, deduplicated by (C, W, T) shape -------
  const auto t2 = Clock::now();
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, std::vector<size_t>> shapes;
  for (size_t i = 0; i < r.candidates.size(); ++i) {
    const DseCandidate& c = r.candidates[i];
    if (!c.feasible || !c.fits) continue;
    shapes[{c.config.cores, c.config.warps, c.config.threads}].push_back(i);
  }
  r.shapes_total = shapes.size();

  struct ShapeJob {
    vortex::Config config;
    const std::vector<size_t>* members = nullptr;
    double best_predicted = 0.0;
    bool ok = false;
  };
  std::vector<ShapeJob> jobs_list;
  jobs_list.reserve(shapes.size());
  for (const auto& [key, members] : shapes) {
    ShapeJob job;
    job.config = vortex::Config::with(std::get<0>(key), std::get<1>(key), std::get<2>(key));
    job.members = &members;
    job.best_predicted = r.candidates[members.front()].predicted_cycles;
    for (size_t idx : members) {
      job.best_predicted = std::min(job.best_predicted, r.candidates[idx].predicted_cycles);
    }
    jobs_list.push_back(job);
  }
  // Budgeted screens take the most promising shapes first (best predicted
  // cycles); unscreened shapes drop out of the funnel, counted as screened
  // shortfall in the shapes_total - shapes_screened gap.
  if (options.screen_budget > 0 && jobs_list.size() > options.screen_budget) {
    std::stable_sort(jobs_list.begin(), jobs_list.end(), [](const auto& a, const auto& b) {
      return a.best_predicted < b.best_predicted;
    });
    jobs_list.resize(options.screen_budget);
  }
  r.shapes_screened = jobs_list.size();

  codegen::Options screen_codegen;
  screen_codegen.opt_level = options.opt_level;
  for_each_index(jobs_list.size(), options.jobs, [&](size_t i) {
    ShapeJob& job = jobs_list[i];
    vcl::TurboDevice device(job.config, fpga::stratix10_sx2800(), screen_codegen);
    bool ok = true;
    for (const auto& w : *workloads) {
      device.reset();
      const DeviceRun run =
          run_benchmark(device, *w.bench, w.reference ? w.reference.get() : nullptr);
      ok = ok && run.ok();
    }
    job.ok = ok;
  });
  for (const ShapeJob& job : jobs_list) {
    if (!job.ok) ++r.shapes_failed;
    for (size_t idx : *job.members) {
      r.candidates[idx].screened = true;
      r.candidates[idx].screen_ok = job.ok;
      if (job.ok) ++r.screen_survivors;
    }
  }
  r.host_screen.wall_ms = elapsed_ms(t2);

  // --- stage 3: cycle-exact slice ----------------------------------------
  const auto t3 = Clock::now();
  std::vector<size_t> survivors;
  for (size_t i = 0; i < r.candidates.size(); ++i) {
    if (r.candidates[i].screened && r.candidates[i].screen_ok) survivors.push_back(i);
  }
  std::stable_sort(survivors.begin(), survivors.end(), [&](size_t x, size_t y) {
    if (r.candidates[x].predicted_cycles != r.candidates[y].predicted_cycles) {
      return r.candidates[x].predicted_cycles < r.candidates[y].predicted_cycles;
    }
    return r.candidates[x].label < r.candidates[y].label;
  });

  // Half the budget goes to the predicted best (the configurations a user
  // would actually pick), half to a stratified sample across the remaining
  // predicted range — without the spread, rank correlation over a top-K-only
  // slice is range-restricted into meaninglessness.
  std::vector<size_t> selected;
  const size_t budget = std::min(options.exact_budget, survivors.size());
  if (budget > 0) {
    const size_t top = std::min(survivors.size(), (budget + 1) / 2);
    for (size_t i = 0; i < top; ++i) selected.push_back(survivors[i]);
    const size_t rest = budget - top;
    const size_t pool_size = survivors.size() - top;
    for (size_t i = 0; i < rest; ++i) {
      selected.push_back(survivors[top + (i * pool_size) / rest]);
    }
  }
  std::sort(selected.begin(), selected.end());  // canonical grid order
  selected.erase(std::unique(selected.begin(), selected.end()), selected.end());
  r.exact_selected = selected.size();

  std::unique_ptr<DevicePool> local_pool;
  DevicePool* pool = options.pool;
  if (pool == nullptr && options.reuse_devices) {
    // Run-local pool, capped: the exact slice visits each identity once, so
    // retention only pays off across repeated sweeps sharing an external
    // pool — cap host memory at a couple of sets per worker otherwise.
    local_pool = std::make_unique<DevicePool>(2 * static_cast<size_t>(options.jobs) + 2);
    pool = local_pool.get();
  }

  std::vector<ExactPoint> points;
  points.reserve(selected.size());
  for (size_t idx : selected) {
    points.push_back(ExactPoint{r.candidates[idx].config, r.candidates[idx].board});
  }
  ExactGridOptions exact;
  exact.jobs = options.jobs;
  exact.opt_level = options.opt_level;
  exact.reuse_workloads = options.reuse_devices;
  exact.pool = pool;
  const auto cells = run_exact_grid(points, options.benchmarks, exact);

  for (size_t i = 0; i < selected.size(); ++i) {
    DseCandidate& cand = r.candidates[selected[i]];
    cand.selected = true;
    cand.simulated = true;
    cand.sim_ok = true;
    cand.simulated_cycles = 0;
    for (const ExactCell& cell : cells[i]) {
      cand.sim_ok = cand.sim_ok && cell.ok;
      cand.simulated_cycles += cell.cycles;
    }
    if (cand.sim_ok) ++r.exact_ok;
  }
  r.host_exact.wall_ms = elapsed_ms(t3);

  // Ranking fidelity of the analytical stage over the evaluated slice.
  std::vector<double> predicted, simulated;
  for (const DseCandidate& cand : r.candidates) {
    if (cand.simulated && cand.sim_ok) {
      predicted.push_back(cand.predicted_cycles);
      simulated.push_back(static_cast<double>(cand.simulated_cycles));
    }
  }
  r.spearman = spearman_rank(predicted, simulated);

  // Pareto frontier over (simulated cycles, board utilization) among the
  // successful cycle-exact slice: dominated = some other configuration is
  // no worse on both axes and better on one.
  for (DseCandidate& cand : r.candidates) {
    if (!cand.simulated || !cand.sim_ok) continue;
    bool dominated = false;
    for (const DseCandidate& other : r.candidates) {
      if (&other == &cand || !other.simulated || !other.sim_ok) continue;
      const bool no_worse = other.simulated_cycles <= cand.simulated_cycles &&
                            other.utilization <= cand.utilization;
      const bool better = other.simulated_cycles < cand.simulated_cycles ||
                          other.utilization < cand.utilization;
      if (no_worse && better) {
        dominated = true;
        break;
      }
    }
    cand.pareto = !dominated;
  }
  return r;
}

void write_dse_json(std::ostream& os, const DseOptions& options, const DseResult& result) {
  trace::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.field("schema", kDseSchema);
  w.field("grid", options.grid);
  w.key("benchmarks").begin_array();
  for (const auto& name : options.benchmarks) w.value(name);
  w.end_array();
  w.field("opt_level", static_cast<int64_t>(options.opt_level));
  w.field("exact_budget", static_cast<uint64_t>(options.exact_budget));

  w.key("funnel").begin_object();
  w.field("candidates", static_cast<uint64_t>(result.grid_total));
  w.key("analytical").begin_object();
  w.field("evaluated", static_cast<uint64_t>(result.grid_total));
  w.field("infeasible", static_cast<uint64_t>(result.infeasible));
  w.field("unfit", static_cast<uint64_t>(result.unfit));
  w.field("survivors", static_cast<uint64_t>(result.analytical_survivors));
  w.end_object();
  w.key("screen").begin_object();
  w.field("shapes", static_cast<uint64_t>(result.shapes_total));
  w.field("screened", static_cast<uint64_t>(result.shapes_screened));
  w.field("failed", static_cast<uint64_t>(result.shapes_failed));
  w.field("survivors", static_cast<uint64_t>(result.screen_survivors));
  w.end_object();
  w.key("exact").begin_object();
  w.field("selected", static_cast<uint64_t>(result.exact_selected));
  w.field("ok", static_cast<uint64_t>(result.exact_ok));
  w.end_object();
  w.end_object();

  w.field("spearman", result.spearman);

  w.key("pareto").begin_array();
  for (const DseCandidate& cand : result.candidates) {
    if (cand.pareto) w.value(cand.label);
  }
  w.end_array();

  // The cycle-exact slice, in canonical grid order.
  w.key("evaluated").begin_array();
  for (const DseCandidate& cand : result.candidates) {
    if (!cand.selected) continue;
    w.begin_object();
    w.field("config", cand.label);
    w.field("board", cand.board->name);
    w.field("predicted_cycles", cand.predicted_cycles);
    w.field("bottleneck", cand.bottleneck);
    w.field("utilization", cand.utilization);
    w.field("area_aluts", cand.area.aluts);
    w.field("area_brams", cand.area.brams);
    w.field("simulated_cycles", cand.simulated_cycles);
    w.field("ok", cand.sim_ok);
    w.field("pareto", cand.pareto);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace fgpu::suite
