// Compile-path work counter: counts the heap allocations (`operator new`
// calls) that compiling every suite kernel at -O0, -O1 and -O2 makes, with
// remarks off, and fails when the count exceeds a committed budget.
//
// The count is deterministic (one thread, no kernel cache, a warm-up round
// first so lazily built statics are not counted), so unlike host time it
// can gate CI: a change that brings back per-vreg or per-node heap churn in
// codegen::compile_kernel fails here. The replacement `operator new` below
// is why this is its own executable: no other test's allocator changes.
//
// Run: build/tests/compile_alloc_budget (prints the count and the budget).
// Exits 77 (CTest skip) under AddressSanitizer or ThreadSanitizer, whose
// runtimes own operator new.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "codegen/codegen.hpp"
#include "suite/suite.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FGPU_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FGPU_SANITIZED 1
#endif
#endif

#ifdef FGPU_SANITIZED

int main() {
  std::puts("compile_alloc_budget: skipped under a sanitizer runtime");
  return 77;
}

#else

namespace {

// The count measured after the allocator moved to dense tables and builtin
// expansion to copy-on-write (gcc 12, libstdc++; RelWithDebInfo and Release
// count the same). The budget allows 5% more. A change that lowers the
// count lowers kMeasured with it, so the gate keeps its margin.
constexpr uint64_t kMeasured = 42937;
constexpr uint64_t kBudget = kMeasured + kMeasured / 20;

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

int main() {
  std::vector<const fgpu::kir::Kernel*> kernels;
  std::vector<std::shared_ptr<const fgpu::suite::Benchmark>> benches;
  for (const auto& name : fgpu::suite::all_benchmark_names()) {
    benches.push_back(fgpu::suite::shared_benchmark(name));
    for (const auto& kernel : benches.back()->module.kernels) kernels.push_back(&kernel);
  }

  const auto compile_all = [&] {
    for (const auto* kernel : kernels) {
      for (int opt : {0, 1, 2}) {
        fgpu::codegen::Options options;
        options.opt_level = opt;
        if (!fgpu::codegen::compile_kernel(*kernel, options).is_ok()) {
          std::fprintf(stderr, "compile_alloc_budget: %s failed at -O%d\n",
                       kernel->name.c_str(), opt);
          std::exit(1);
        }
      }
    }
  };
  compile_all();  // warm-up: lazily built statics are not the compile's work
  counting = true;
  compile_all();
  counting = false;

  const uint64_t count = allocations.load();
  std::printf("compile_alloc_budget: %zu kernels x 3 levels: %llu allocations (budget %llu)\n",
              kernels.size(), static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(kBudget));
  if (count > kBudget) {
    std::fprintf(stderr,
                 "compile_alloc_budget: %llu allocations exceed the budget of %llu: the "
                 "compile path allocates more than it did when the budget was set\n",
                 static_cast<unsigned long long>(count), static_cast<unsigned long long>(kBudget));
    return 1;
  }
  return 0;
}

#endif
