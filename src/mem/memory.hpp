// Functional (data-carrying) device memory. Timing is modelled separately
// by the cache/DRAM hierarchy in mem/cache.hpp and mem/dram.hpp; this class
// only stores bytes. Sparse 64 KiB pages keep the 32-bit address space cheap.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

namespace fgpu::mem {

class MainMemory {
 public:
  static constexpr uint32_t kPageBits = 16;
  static constexpr uint32_t kPageSize = 1u << kPageBits;

  void read(uint32_t addr, void* out, uint32_t size) const {
    auto* dst = static_cast<uint8_t*>(out);
    while (size > 0) {
      const uint32_t off = addr & (kPageSize - 1);
      const uint32_t chunk = std::min(size, kPageSize - off);
      if (const Page* page = find_page(addr)) {
        std::memcpy(dst, page->data() + off, chunk);
      } else {
        std::memset(dst, 0, chunk);
      }
      addr += chunk;
      dst += chunk;
      size -= chunk;
    }
  }

  void write(uint32_t addr, const void* src, uint32_t size) {
    auto* s = static_cast<const uint8_t*>(src);
    while (size > 0) {
      const uint32_t off = addr & (kPageSize - 1);
      const uint32_t chunk = std::min(size, kPageSize - off);
      std::memcpy(touch_page(addr).data() + off, s, chunk);
      addr += chunk;
      s += chunk;
      size -= chunk;
    }
  }

  void fill(uint32_t addr, uint8_t value, uint32_t size) {
    while (size > 0) {
      const uint32_t off = addr & (kPageSize - 1);
      const uint32_t chunk = std::min(size, kPageSize - off);
      std::memset(touch_page(addr).data() + off, value, chunk);
      addr += chunk;
      size -= chunk;
    }
  }

  uint8_t load8(uint32_t addr) const {
    uint8_t v;
    read(addr, &v, 1);
    return v;
  }
  uint16_t load16(uint32_t addr) const {
    uint16_t v;
    read(addr, &v, 2);
    return v;
  }
  uint32_t load32(uint32_t addr) const {
    uint32_t v;
    read(addr, &v, 4);
    return v;
  }
  void store8(uint32_t addr, uint8_t v) { write(addr, &v, 1); }
  void store16(uint32_t addr, uint16_t v) { write(addr, &v, 2); }
  void store32(uint32_t addr, uint32_t v) { write(addr, &v, 4); }

  void clear() { pages_.clear(); }

  // Direct page access for fast interpreters (vortex/jit): returns the
  // backing storage of the 64 KiB page containing `addr`, allocating a
  // zeroed page if absent (so reads through it match read()'s zero-fill
  // semantics). The pointer stays valid until clear() — pages are
  // unique_ptr-owned, so map growth never moves them.
  uint8_t* page_data(uint32_t addr) { return touch_page(addr).data(); }

 private:
  using Page = std::array<uint8_t, kPageSize>;

  const Page* find_page(uint32_t addr) const {
    auto it = pages_.find(addr >> kPageBits);
    return it == pages_.end() ? nullptr : it->second.get();
  }
  Page& touch_page(uint32_t addr) {
    auto& slot = pages_[addr >> kPageBits];
    // make_unique value-initialises the array: the page is already zero.
    if (!slot) slot = std::make_unique<Page>();
    return *slot;
  }

  std::unordered_map<uint32_t, std::unique_ptr<Page>> pages_;
};

}  // namespace fgpu::mem
