#include "runtime/hls_cache.hpp"

#include <utility>

#include "kir/digest.hpp"
#include "kir/passes.hpp"

namespace fgpu::vcl {
namespace {

uint64_t fnv_mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t fnv_str(uint64_t h, const std::string& s) {
  h = fnv_mix(h, s.size());
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

HlsCache& HlsCache::instance() {
  static HlsCache cache;
  return cache;
}

std::shared_ptr<const HlsCache::Entry> HlsCache::synthesize(const kir::Kernel& kernel,
                                                            const fpga::Board& board,
                                                            const hls::HlsOptions& options) {
  uint64_t key = kir::kernel_digest(kernel);
  key = fnv_str(key, board.name);
  key = fnv_mix(key, options.ndrange ? 1 : 0);

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      return it->second;
    }
  }

  // Miss: expand + synthesize unlocked (the expensive part), insert
  // first-wins. Both synthesize and expand_builtins are pure functions of
  // (kernel, board, options), so racing entries are interchangeable.
  auto entry = std::make_shared<Entry>();
  entry->kernel = kir::clone_kernel(kernel);
  kir::expand_builtins(entry->kernel);
  // Synthesize the expanded kernel the entry owns: the design's access-site
  // pointers must target the nodes launches will interpret.
  auto design = hls::synthesize(entry->kernel, board, options);
  if (design.is_ok()) {
    entry->status = Status::ok();
    entry->design = std::make_unique<const hls::HlsDesign>(design.take());
  } else {
    entry->status = design.status();
    // The failed attempt still has a structured report: its area rows are
    // exactly the Table II "does not fit" data points.
    entry->failed_synth = hls::synth_report(entry->kernel, board);
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  auto [it, inserted] = entries_.emplace(key, std::move(entry));
  (void)inserted;  // on a race the earlier insert wins; ours was equivalent
  return it->second;
}

HlsCacheStats HlsCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void HlsCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  stats_ = HlsCacheStats{};
}

}  // namespace fgpu::vcl
