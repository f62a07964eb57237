// Reusable device pool: instead of constructing a VortexDevice (cluster,
// caches, DRAM model), TurboDevice (translator cores) and HlsDevice per
// benchmark, workers check a set out of the pool, re-arm it with
// Device::reset(), and check it back in. Correctness rests on the reset()
// contract (DESIGN.md "Device lifecycle"): a reset device produces
// bit-identical outputs AND cycle counts to a freshly constructed one, so
// pooling is observable only in host time and ReuseStats::device_reuse_count
// — never in the byte-gated suite documents.
//
// The pool is keyed by an identity string digesting everything that flows
// into device construction (config, boards, opt level, profiling flags):
// sets are only handed back out under the identity they were released with,
// because reset() restores construction-time state — it cannot change
// construction parameters. Keying (rather than a single current identity)
// lets multi-configuration sweeps — the fig7 grid and the DSE cycle-exact
// slice (suite/dse.hpp) — keep one warm set per grid point instead of
// dropping the pool on every configuration switch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/hls_device.hpp"
#include "runtime/turbo_device.hpp"
#include "runtime/vortex_device.hpp"

namespace fgpu::suite {

// One worker's devices. Members are null until a tier first runs (the pool
// never constructs devices — run_one does, with the right options — it only
// stores and recycles them).
struct DeviceSet {
  std::unique_ptr<vcl::VortexDevice> vortex;
  std::unique_ptr<vcl::TurboDevice> turbo;
  std::unique_ptr<vcl::HlsDevice> hls;
};

class DevicePool {
 public:
  DevicePool() = default;
  // Bounds the number of distinct identities the pool retains: releasing a
  // set under a new identity beyond the cap discards it instead of pooling
  // it. A host-memory guard for wide multi-configuration sweeps (hundreds
  // of simulator instances); pool contents never affect simulated results
  // (the reset() contract), only setup wall time. 0 = unbounded.
  explicit DevicePool(size_t max_identities) : max_identities_(max_identities) {}

  // Checks a set out of `identity`'s bucket. Returns an empty set when no
  // set was pooled under that identity. Each non-null device handed out
  // counts toward reuse_count().
  DeviceSet acquire(const std::string& identity);

  // Returns a set for later reuse under the identity it was acquired (or
  // constructed) with. Devices come back dirty; acquire()'s caller re-arms
  // them with Device::reset() before use.
  void release(const std::string& identity, DeviceSet set);

  // Total devices handed out warm (ReuseStats::device_reuse_count).
  uint64_t reuse_count() const;

  // Distinct identities currently holding pooled sets.
  size_t identity_count() const;

 private:
  mutable std::mutex mu_;
  size_t max_identities_ = 0;
  std::map<std::string, std::vector<DeviceSet>> free_;
  uint64_t reuse_count_ = 0;
};

}  // namespace fgpu::suite
