// Process-wide compiled-kernel cache: memoizes codegen::compile_kernel
// results so re-building the same kernel — across --repeat iterations,
// across the vortex and turbo tiers (which share binaries by construction),
// and across any future long-running host such as a compile server —
// costs a hash lookup instead of a full compile.
//
// Key: content digest of the KIR kernel (kir::kernel_digest — every
// semantic field, nothing derived) x a digest of every codegen::Options
// field (including the per-pass ablation switches) x a target identity
// string (vortex::Config::to_string() + board name). compile_kernel is a
// pure function of (kernel, options) — it clones its input and never reads
// device state — so equal keys imply byte-identical CompiledKernels; the
// target string is folded in anyway so a future target-dependent codegen
// cannot silently alias entries (the cache-key definition in DESIGN.md).
//
// Thread-safe: lookups and inserts take a mutex; compilation itself runs
// unlocked, so parallel suite workers never serialize on a compile. Two
// workers racing on the same key both compile and the first insert wins —
// both results are identical by purity, so this is waste, not a hazard.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "codegen/codegen.hpp"
#include "common/status.hpp"
#include "kir/kir.hpp"

namespace fgpu::vcl {

// Host-side counters of the cache (suite::ReuseStats; never part of any
// byte-gated document).
struct KernelCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;  // one per actual compile (racing misses all count)
};

class KernelCache {
 public:
  // One per-kernel compile result: either a compiled kernel or the compile
  // error, both cacheable (a failing kernel fails identically every time).
  struct Entry {
    std::shared_ptr<const codegen::CompiledKernel> compiled;  // null on error
    Status status;  // ok() iff compiled != nullptr
  };

  static KernelCache& instance();

  // Returns the cached compile of `kernel` under `options` for `target`,
  // compiling (and inserting) on miss.
  Entry compile(const kir::Kernel& kernel, const codegen::Options& options,
                const std::string& target);

  KernelCacheStats stats() const;
  // Tests only: drop every entry and zero the counters.
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const Entry>> entries_;
  KernelCacheStats stats_;
};

// Digest of every codegen::Options field (part of the cache key; also used
// by the device pool's identity string).
uint64_t options_digest(const codegen::Options& options);

}  // namespace fgpu::vcl
