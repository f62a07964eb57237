// Functional reference interpreter for KIR kernels.
//
// Executes a work-group in SIMT lockstep (all items advance statement by
// statement over a list of active lanes), which gives OpenCL barrier
// semantics for free and matches how both backends execute. Serves as the
// golden model: codegen+simulator results and HLS executor results are
// verified against it, and it doubles as the host-side reference
// implementation for the benchmark suite.
//
// It also performs dynamic checking that hardware would not: out-of-bounds
// buffer accesses and barriers reached under divergent control flow are
// reported as errors.
//
// Each run() first compiles the kernel into a plan: variables resolve to
// dense slots (with per-group "defined" flags, so a use before definition
// is still an error), the type and operator of every node are resolved,
// stores whose operands may read the stored buffer are marked for
// item-sequential execution, every load and store site is numbered, and
// every node gets a result buffer. A malformed kernel (a scalar parameter
// index past the argument list, a work-item dimension above 2) is rejected
// here, before any group runs.
//
// Cost contract: a node visit costs O(active lanes), never O(group size).
// Active lanes travel as ascending index lists; the full group is a dense
// 0..n loop. Item-sequential paths (atomics, printf, aliasing stores) use
// single-lane lists, so they cost O(nodes) per item.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/status.hpp"
#include "kir/kir.hpp"

namespace fgpu::kir {

struct KernelArg {
  bool is_buffer = false;
  uint32_t scalar_bits = 0;
  std::vector<uint32_t>* data = nullptr;  // not owned; element bits

  static KernelArg scalar_i32(int32_t v) {
    return KernelArg{false, static_cast<uint32_t>(v), nullptr};
  }
  static KernelArg scalar_f32(float v);
  static KernelArg buffer(std::vector<uint32_t>* data) { return KernelArg{true, 0, data}; }
};

struct InterpOptions {
  std::function<void(const std::string&)> print_sink;  // printf output
  uint64_t max_statements = 4'000'000'000ull;          // runaway guard

  // Address-carrying load hook for the memory-hierarchy profiler: fires
  // once per executed per-item load, in item order, with the static site,
  // the target buffer (kernel param index, or local slot when is_local),
  // and the accessed element index.
  std::function<void(const Expr* site, int buffer, bool is_local, uint32_t elem)> on_load_addr;

  // When set, advanced by the active-lane count at every expression node
  // visit -- the per-(node, item) evaluations of an item-by-item walk,
  // including items that && / || short-circuit and the arm select skips (a
  // first-order dynamic operation count, used by the analytical model).
  uint64_t* op_count = nullptr;
};

// Dynamic access count of one static memory site over a run: the number of
// per-item accesses it executed. Request counts per site drive the HLS
// timing model and the analytical model's access census.
struct SiteCount {
  const void* site = nullptr;  // const Expr* (load) or const Stmt* (store, atomic)
  bool is_store = false;
  uint64_t count = 0;
};

class Interpreter {
 public:
  explicit Interpreter(InterpOptions options = {}) : options_(std::move(options)) {}

  // Runs the kernel over the whole NDRange (group by group). Buffer args are
  // mutated in place.
  Status run(const Kernel& kernel, const std::vector<KernelArg>& args, const NDRange& ndrange);

  // Per-site counts of the last successful run(): one entry per distinct
  // load node and store/atomic statement of the kernel.
  const std::vector<SiteCount>& site_counts() const { return site_counts_; }

 private:
  InterpOptions options_;
  std::vector<SiteCount> site_counts_;
};

}  // namespace fgpu::kir
