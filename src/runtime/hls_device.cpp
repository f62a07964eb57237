#include "runtime/hls_device.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "common/bits.hpp"
#include "kir/passes.hpp"
#include "trace/trace.hpp"

namespace fgpu::vcl {
namespace {

// Sustained off-chip bytes per kernel-clock cycle. HBM2's pseudo-channels
// give the MX2100 far more bandwidth than the SX2800's single DDR4 channel.
double bytes_per_cycle(const fpga::Board& board) {
  return board.dram.name == "hbm2" ? 256.0 : 32.0;
}

// Distributes a launch's bandwidth-stall cycles across its access sites in
// proportion to each site's off-chip traffic (the stall is bandwidth-bound
// by construction), using largest-remainder apportionment so the integer
// shares sum EXACTLY to `stall_total` — the fgpu.hlsprof.v1 exact-sum
// contract. Deterministic: remainder ties break on site order.
void attribute_stalls(uint64_t stall_total, std::vector<HlsSiteStats>& sites) {
  if (stall_total == 0 || sites.empty()) return;
  using u128 = unsigned __int128;
  u128 bytes_total = 0;
  for (const auto& s : sites) bytes_total += s.bytes;
  if (bytes_total == 0) return;  // no traffic implies bandwidth_cycles was 0
  uint64_t assigned = 0;
  std::vector<std::pair<u128, size_t>> remainders;
  remainders.reserve(sites.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    const u128 numerator = static_cast<u128>(stall_total) * sites[i].bytes;
    sites[i].stall_cycles = static_cast<uint64_t>(numerator / bytes_total);
    assigned += sites[i].stall_cycles;
    remainders.emplace_back(numerator % bytes_total, i);
  }
  std::sort(remainders.begin(), remainders.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  // Sum-of-floors is short of the total by at most sites.size() - 1.
  for (size_t k = 0; assigned < stall_total; ++k, ++assigned) {
    ++sites[remainders[k].second].stall_cycles;
  }
}

}  // namespace

HlsDevice::HlsDevice(const fpga::Board& board, hls::HlsOptions options)
    : board_(board), options_(options) {}

Buffer HlsDevice::alloc(size_t bytes) {
  const uint32_t addr = next_addr_;
  next_addr_ += static_cast<uint32_t>(align_up(bytes, 64)) + 64;
  buffers_[addr] = std::vector<uint32_t>((bytes + 3) / 4, 0u);
  return Buffer{addr, bytes};
}

void HlsDevice::write(const Buffer& buffer, const void* data, size_t bytes, size_t offset) {
  auto& storage = buffers_.at(buffer.device_addr);
  std::memcpy(reinterpret_cast<uint8_t*>(storage.data()) + offset, data, bytes);
}

void HlsDevice::read(const Buffer& buffer, void* out, size_t bytes, size_t offset) {
  const auto& storage = buffers_.at(buffer.device_addr);
  std::memcpy(out, reinterpret_cast<const uint8_t*>(storage.data()) + offset, bytes);
}

Status HlsDevice::build(const kir::Module& module) {
  // Synthesis goes through the process-wide HlsCache: each entry owns a
  // builtin-expanded kernel clone and the design synthesized from it (the
  // access sites hold pointers into that clone, and the launch-time
  // interpreter runs the exact same nodes for site attribution — and so
  // that both backends compute bit-identical results from the same lowered
  // math). Repeated builds (device pool, --repeat) reuse the shared entry.
  entries_.clear();
  build_info_.clear();
  Status first_error;
  fpga::AreaReport total;
  for (const auto& kernel : module.kernels) {
    KernelBuildInfo info;
    info.kernel = kernel.name;
    auto entry = HlsCache::instance().synthesize(kernel, board_, options_);
    if (entry->status.is_ok()) {
      info.status = Status::ok();
      info.area = entry->design->area;
      info.synthesis_hours = entry->design->synthesis_hours;
      info.synth = entry->design->report;
      info.log = info.synth.render();
      entries_[kernel.name] = std::move(entry);
    } else {
      info.status = entry->status;
      info.log = entry->status.to_string();
      // The failed attempt still has a structured report: its area rows are
      // exactly the Table II "does not fit" data points.
      info.synth = entry->failed_synth;
      info.area = info.synth.total;
      info.synthesis_hours = info.synth.synthesis_hours;
      if (first_error.is_ok()) first_error = entry->status;
    }
    total += info.area;
    build_info_.push_back(std::move(info));
  }
  // All kernels of a .cl file share one bitstream: the module must fit as a
  // whole, even when each kernel fits individually. This check is per-build
  // (it depends on the kernel SET, not any one kernel), so it stays
  // device-side rather than in the cache.
  if (first_error.is_ok() && !board_.fits(total)) {
    const std::string resource = board_.bottleneck_resource(total);
    first_error = Status(
        ErrorKind::kResourceExceeded,
        module.name + ": fitter failed: Not enough " + resource + " (module needs " +
            std::to_string(total.brams) + " BRAM blocks, " + board_.name + " has " +
            std::to_string(board_.capacity.brams) + "; utilization " +
            std::to_string(static_cast<int>(board_.utilization(total) * 100.0)) + "%)");
    entries_.clear();  // nothing is launchable without a bitstream
    for (auto& info : build_info_) {
      if (info.status.is_ok()) info.status = first_error;
      info.synthesis_hours = hls::failed_attempt_hours(total, board_);
      // The kernel fit on its own; the module did not. Record the module
      // verdict so the structured report matches the build status.
      info.synth.fits = false;
      info.synth.verdict = "Not enough " + resource + " (module)";
      info.synth.synthesis_hours = info.synthesis_hours;
    }
  }
  return first_error;
}

void HlsDevice::reset() {
  entries_.clear();
  build_info_.clear();
  buffers_.clear();
  console_.clear();
  next_addr_ = 0x1000;
  memprof_enabled_ = false;
  memprof_lines_ = 1024;
  memprof_ways_ = 2;
}

Result<LaunchStats> HlsDevice::launch(const std::string& kernel_name,
                                      const std::vector<Arg>& args,
                                      const kir::NDRange& ndrange) {
  auto entry_it = entries_.find(kernel_name);
  if (entry_it == entries_.end()) {
    return Result<LaunchStats>(ErrorKind::kNotFound,
                               "kernel '" + kernel_name + "' was not synthesized");
  }
  const HlsCache::Entry& entry = *entry_it->second;
  const hls::HlsDesign& design = *entry.design;
  const kir::Kernel* kernel = &entry.kernel;
  if (args.size() != kernel->params.size()) {
    return Result<LaunchStats>(ErrorKind::kInvalidArgument,
                               kernel_name + ": wrong argument count");
  }

  // Assemble interpreter arguments directly over the device-side storage.
  std::vector<kir::KernelArg> interp_args;
  std::vector<uint32_t> param_addr(args.size(), 0);  // flat base per buffer param
  for (size_t i = 0; i < args.size(); ++i) {
    if (const auto* buffer = std::get_if<Buffer>(&args[i])) {
      auto it = buffers_.find(buffer->device_addr);
      if (it == buffers_.end()) {
        return Result<LaunchStats>(ErrorKind::kInvalidArgument, "unknown buffer argument");
      }
      param_addr[i] = buffer->device_addr;
      interp_args.push_back(kir::KernelArg::buffer(&it->second));
    } else if (const auto* iv = std::get_if<int32_t>(&args[i])) {
      interp_args.push_back(kir::KernelArg::scalar_i32(*iv));
    } else {
      interp_args.push_back(kir::KernelArg::scalar_f32(std::get<float>(args[i])));
    }
  }

  kir::InterpOptions interp_options;
  interp_options.print_sink = [this](const std::string& line) { console_.push_back(line); };

  // Memory-hierarchy shadow profiling (see set_memprof): every global load
  // becomes a flat device address fed through a shadow cache of the
  // soft-GPU L1D geometry; misses are 3C-classified per AccessSite.
  std::unique_ptr<mem::ShadowCacheSim> shadow;
  std::unordered_map<const void*, uint32_t> load_site_index;
  if (memprof_enabled_) {
    shadow = std::make_unique<mem::ShadowCacheSim>(memprof_lines_, memprof_ways_);
    for (size_t i = 0; i < design.dfg.sites.size(); ++i) {
      const hls::AccessSite& site = design.dfg.sites[i];
      if (!site.is_store) load_site_index[site.site] = static_cast<uint32_t>(i);
    }
    interp_options.on_load_addr = [&](const kir::Expr* site, int buffer, bool is_local,
                                      uint32_t elem) {
      if (is_local) return;  // on-chip memory, not the burst-LSU read path
      const auto it = load_site_index.find(site);
      const uint32_t tag = it == load_site_index.end() ? ~0u : it->second;
      const uint32_t addr = param_addr[static_cast<size_t>(buffer)] + elem * 4u;
      shadow->access(mem::line_of(addr), tag);
    };
  }

  // The entry's kernel was expanded at synthesis time; the interpreter runs
  // the very nodes the access sites point at.
  kir::Interpreter interp(interp_options);
  if (auto st = interp.run(*kernel, interp_args, ndrange); !st.is_ok()) {
    return Result<LaunchStats>(st.kind(), st.message());
  }
  // Dynamic request counts per access site drive the timing model.
  std::unordered_map<const void*, uint64_t> dyn_requests;
  for (const kir::SiteCount& sc : interp.site_counts()) dyn_requests[sc.site] = sc.count;

  // Timing: NDRange iterative work-item issue. One item enters the pipeline
  // per II cycles; II is bound by per-item memory-interface occupancy, and
  // total runtime additionally by off-chip bandwidth.
  const double items = static_cast<double>(ndrange.global_items());
  double occupancy_cycles = 0.0;  // total memory-interface cycles
  double bytes_moved = 0.0;
  LaunchStats stats;
  stats.hls_sites.reserve(design.dfg.sites.size());
  for (size_t i = 0; i < design.dfg.sites.size(); ++i) {
    const hls::AccessSite& site = design.dfg.sites[i];
    auto it = dyn_requests.find(site.site);
    const uint64_t requests = it == dyn_requests.end() ? 0 : it->second;
    HlsSiteStats ss;
    ss.site = static_cast<uint32_t>(i);
    ss.buffer = site.buffer_name;
    ss.source = site.source;
    ss.lsu = site.is_store ? "store" : site.pipelined ? "pipelined" : "burst";
    ss.pattern = hls::to_string(site.pattern);
    ss.in_loop = site.in_loop;
    ss.requests = requests;
    ss.bytes = requests * (site.pattern == hls::AccessPattern::kConsecutive ? 4 : 64);
    ss.occupancy_cycles = static_cast<double>(requests) * hls::request_cost(site);
    occupancy_cycles += ss.occupancy_cycles;
    bytes_moved += static_cast<double>(ss.bytes);
    stats.hls_sites.push_back(std::move(ss));
  }
  const double ii = std::max(1.0, occupancy_cycles / std::max(1.0, items));
  const double issue_cycles = items * ii;
  const double bandwidth_cycles = bytes_moved / bytes_per_cycle(board_);
  const double total =
      static_cast<double>(design.pipeline_depth) + std::max(issue_cycles, bandwidth_cycles);

  stats.device_cycles = static_cast<uint64_t>(total);
  stats.clock_mhz = board_.hls_kernel_clock_mhz;
  stats.pipeline_depth = design.pipeline_depth;
  stats.initiation_interval = static_cast<uint64_t>(std::ceil(ii));
  stats.memory_stall_cycles =
      static_cast<uint64_t>(std::max(0.0, bandwidth_cycles - issue_cycles));
  stats.dram_bytes = static_cast<uint64_t>(bytes_moved);
  attribute_stalls(stats.memory_stall_cycles, stats.hls_sites);
  if (shadow) {
    stats.hls_mem_enabled = true;
    stats.hls_mem = shadow->profile();
  }
  if (trace::Sink* sink = trace::kEnabled ? trace::current() : nullptr) {
    sink->set_thread_name(0, "hls-pipeline");
    sink->complete(sink->intern(kernel_name), "kernel", 0, 0, stats.device_cycles,
                   {{"pipeline_depth", stats.pipeline_depth},
                    {"initiation_interval", stats.initiation_interval},
                    {"memory_stall_cycles", stats.memory_stall_cycles},
                    {"items", ndrange.global_items()},
                    {"dram_bytes", stats.dram_bytes}});
    // One counter track per access site, so the Perfetto view shows which
    // LSU the launch's traffic and bandwidth stalls land on — side by side
    // with the soft GPU's stall tracks from the same suite run.
    for (const auto& site : stats.hls_sites) {
      const char* track = sink->intern("hls-site " + std::to_string(site.site) + " " + site.source);
      sink->counter(track, 0, 0, {{"requests", 0}, {"stall_cycles", 0}});
      sink->counter(track, 0, stats.device_cycles,
                    {{"requests", site.requests}, {"stall_cycles", site.stall_cycles}});
    }
    sink->set_time_base(sink->time_base() + stats.device_cycles + 1);
  }
  return stats;
}

}  // namespace fgpu::vcl
