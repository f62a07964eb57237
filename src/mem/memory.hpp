// Functional (data-carrying) device memory. Timing is modelled separately
// by the cache/DRAM hierarchy in mem/cache.hpp and mem/dram.hpp; this class
// only stores bytes. Sparse 4 KiB pages behind a two-level page table keep
// the 32-bit address space cheap; leaves and pages are allocated on first touch.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

namespace fgpu::mem {

class MainMemory {
 public:
  static constexpr uint32_t kPageBits = 12;
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

  // Frees every leaf, and with it its pages. The cores clear their __local
  // memory at every launch, and most kernels never touch it: skip the
  // directory walk when no leaf exists.
  void clear() {
    if (leaves_ == 0) return;
    for (auto& leaf : dir_) leaf.reset();
    leaves_ = 0;
  }

  // Bytes of allocated pages (whole pages; leaves not counted).
  uint64_t resident_bytes() const {
    uint64_t pages = 0;
    for (const auto& leaf : dir_) {
      if (!leaf) continue;
      for (const auto& page : *leaf) pages += page != nullptr;
    }
    return pages * kPageSize;
  }

  // Direct page access for fast interpreters (vortex/jit): returns the
  // backing storage of the page containing `addr`, allocating a zeroed page
  // if absent (so reads through it match read()'s zero-fill semantics). The
  // pointer stays valid until clear(): pages are unique_ptr-owned and never
  // move.
  uint8_t* page_data(uint32_t addr) { return touch_page(addr).data(); }

 private:
  static constexpr uint32_t kLeafBits = 10;  // 1,024 pages per leaf
  static constexpr uint32_t kDirShift = kPageBits + kLeafBits;
  static constexpr uint32_t kLeafMask = (1u << kLeafBits) - 1;
  using Page = std::array<uint8_t, kPageSize>;
  using Leaf = std::array<std::unique_ptr<Page>, 1u << kLeafBits>;

  const Page* find_page(uint32_t addr) const {
    const Leaf* leaf = dir_[addr >> kDirShift].get();
    return leaf ? (*leaf)[(addr >> kPageBits) & kLeafMask].get() : nullptr;
  }
  Page& touch_page(uint32_t addr) {
    auto& leaf = dir_[addr >> kDirShift];
    if (!leaf) {
      leaf = std::make_unique<Leaf>();
      ++leaves_;
    }
    auto& slot = (*leaf)[(addr >> kPageBits) & kLeafMask];
    // make_unique value-initialises the array: the page is already zero.
    if (!slot) slot = std::make_unique<Page>();
    return *slot;
  }

  // Inline directory of 1,024 leaves, indexed by addr[31:22]; a leaf maps
  // addr[21:12] to a page.
  std::array<std::unique_ptr<Leaf>, 1u << (32 - kDirShift)> dir_;
  uint32_t leaves_ = 0;  // allocated leaves in dir_
};

}  // namespace fgpu::mem
