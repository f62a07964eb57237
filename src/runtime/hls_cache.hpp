// Process-wide HLS synthesis cache: memoizes hls::synthesize results keyed
// by KIR kernel digest x board identity x HlsOptions, the HLS-flow mirror
// of runtime/kernel_cache.hpp. Synthesis here is a model, not a multi-hour
// fitter run, but it still walks the whole kernel (DFG census, builtin
// expansion, area rows) per build — the exact per-benchmark tax a
// long-running host must not repay on every --repeat.
//
// An entry owns BOTH the synthesized design AND the builtin-expanded kernel
// clone the design's AccessSite::site pointers point into: the two are one
// object lifetime-wise (HlsDevice launches interpret the entry's kernel so
// site attribution stays pointer-exact). Entries are immutable after
// construction and safe to share across suite worker threads — the KIR
// interpreter never writes through Stmt/Expr pointers.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.hpp"
#include "fpga/board.hpp"
#include "hls/compiler.hpp"
#include "kir/kir.hpp"

namespace fgpu::vcl {

struct HlsCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;  // one per actual synthesis run
};

class HlsCache {
 public:
  struct Entry {
    // The builtin-expanded kernel the design was synthesized from; every
    // AccessSite::site pointer in `design` points into these nodes.
    kir::Kernel kernel;
    // Set on successful synthesis; on failure `status` carries the fitter
    // verdict and `failed_synth`/`failed_area` the Table-II report rows.
    std::unique_ptr<const hls::HlsDesign> design;
    Status status;
    hls::SynthReport failed_synth;  // synth_report() of a failed fit
  };

  static HlsCache& instance();

  // Cached synthesis of `kernel` (pre-expansion form; expansion is
  // deterministic and happens inside, once per entry) for `board`.
  std::shared_ptr<const Entry> synthesize(const kir::Kernel& kernel, const fpga::Board& board,
                                          const hls::HlsOptions& options);

  HlsCacheStats stats() const;
  // Tests only: drop every entry and zero the counters.
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const Entry>> entries_;
  HlsCacheStats stats_;
};

}  // namespace fgpu::vcl
