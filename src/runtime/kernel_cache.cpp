#include "runtime/kernel_cache.hpp"

#include "kir/digest.hpp"

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

uint64_t options_digest(const codegen::Options& options) {
  uint64_t h = 14695981039346656037ull;
  h = fnv_mix(h, options.uniform_branch_opt ? 1 : 0);
  h = fnv_mix(h, options.force_group_dispatch ? 1 : 0);
  h = fnv_mix(h, static_cast<uint64_t>(options.distribution));
  h = fnv_mix(h, static_cast<uint64_t>(options.opt_level));
  h = fnv_mix(h, (options.ablate.kir_licm ? 1u : 0u) | (options.ablate.kir_strength_reduce ? 2u : 0u) |
                     (options.ablate.kir_dce ? 4u : 0u) | (options.ablate.peephole ? 8u : 0u) |
                     (options.ablate.pressure_ladder ? 16u : 0u));
  // collect_remarks changes only CompiledKernel::report, never the binary,
  // but a report-less cached entry must not satisfy a remark-collecting
  // compile (and vice versa), so it is part of the key.
  h = fnv_mix(h, options.collect_remarks ? 1 : 0);
  return h;
}

KernelCache& KernelCache::instance() {
  static KernelCache cache;
  return cache;
}

KernelCache::Entry KernelCache::compile(const kir::Kernel& kernel,
                                        const codegen::Options& options,
                                        const std::string& target) {
  uint64_t key = kir::kernel_digest(kernel);
  key = fnv_mix(key, options_digest(options));
  key = fnv_str(key, target);

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      return *it->second;
    }
  }

  // Miss: compile unlocked (the expensive part; parallel workers must not
  // serialize here), then insert first-wins.
  auto compiled = codegen::compile_kernel(kernel, options);

  auto entry = std::make_shared<Entry>();
  if (compiled.is_ok()) {
    entry->compiled = std::make_shared<const codegen::CompiledKernel>(compiled.take());
    entry->status = Status::ok();
  } else {
    entry->status = compiled.status();
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  auto [it, inserted] = entries_.emplace(key, entry);
  // On a race the earlier insert wins; both entries are identical by the
  // purity argument in the header, so returning ours is equivalent.
  (void)inserted;
  return *it->second;
}

KernelCacheStats KernelCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void KernelCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  stats_ = KernelCacheStats{};
}

}  // namespace fgpu::vcl
