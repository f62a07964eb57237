// Soft-GPU device backend: compiles KIR kernels with codegen/ and executes
// them on the vortex/ cycle-level cluster (the paper's Vortex + PoCL flow).
#pragma once

#include <memory>
#include <unordered_map>

#include "codegen/codegen.hpp"
#include "mem/memory.hpp"
#include "runtime/console.hpp"
#include "runtime/runtime.hpp"
#include "vortex/cluster.hpp"

namespace fgpu::vcl {

class VortexDevice final : public Device {
 public:
  explicit VortexDevice(vortex::Config config = {},
                        const fpga::Board& board = fpga::stratix10_sx2800(),
                        codegen::Options codegen_options = {});

  std::string name() const override;
  const fpga::Board& board() const override { return board_; }

  Buffer alloc(size_t bytes) override;
  void write(const Buffer& buffer, const void* data, size_t bytes, size_t offset) override;
  void read(const Buffer& buffer, void* out, size_t bytes, size_t offset) override;

  Status build(const kir::Module& module) override;
  const std::vector<KernelBuildInfo>& build_info() const override { return build_info_; }

  // Device-pool re-arm: drops module/kernels/buffers/console and hard-resets
  // the cluster (cores, L1s, L2, DRAM, NoC) so the next build/launch sequence
  // is cycle-identical to one on a fresh device. Compiled binaries live in
  // the process-wide KernelCache, not here, so nothing warm is lost.
  void reset() override;

  Result<LaunchStats> launch(const std::string& kernel, const std::vector<Arg>& args,
                             const kir::NDRange& ndrange) override;

  const std::vector<std::string>& console() const override { return console_.lines(); }
  void clear_console() override { console_.clear(); }

  const vortex::Config& config() const { return config_; }
  // Direct access for tests.
  mem::MainMemory& memory() { return memory_; }
  const vortex::Cluster& cluster() const { return *cluster_; }

 private:
  struct Built {
    // Shared with the process-wide KernelCache (immutable once compiled).
    std::shared_ptr<const codegen::CompiledKernel> compiled;
    const kir::Kernel* kernel = nullptr;  // points into module copy
  };

  vortex::Config config_;
  fpga::Board board_;
  codegen::Options codegen_options_;
  mem::MainMemory memory_;
  std::unique_ptr<vortex::Cluster> cluster_;
  kir::Module module_;  // retained copy so Built::kernel stays valid
  std::unordered_map<std::string, Built> kernels_;
  std::vector<KernelBuildInfo> build_info_;
  EcallConsole console_;
  uint32_t heap_next_ = 0;
};

}  // namespace fgpu::vcl
