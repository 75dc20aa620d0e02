// Basic single-level BFC allocator — the allocator model our DNNMem
// reimplementation uses (per the xMem paper, DNNMem "combines computational
// graph analysis with the simulation of a basic BFC allocator" but models
// neither the device-level allocator nor cached-segment reclamation, and
// has no small/large pool policy or 20 MiB over-reservation buckets).
#pragma once

#include <cstdint>

#include "alloc/bfc_core.h"
#include "fw/backend.h"

namespace xmem::baselines {

class BasicBfcAllocator final : public fw::AllocatorBackend {
 public:
  static constexpr std::int64_t kAlignment = 512;
  static constexpr std::int64_t kSegmentGranularity = 2 * 1024 * 1024;

  BasicBfcAllocator() = default;
  BasicBfcAllocator(const BasicBfcAllocator&) = delete;
  BasicBfcAllocator& operator=(const BasicBfcAllocator&) = delete;

  /// Allocate; always succeeds (arena is unbounded — DNNMem produces an
  /// estimate, then compares it with capacity afterwards).
  std::int64_t alloc(std::int64_t bytes);
  void free(std::int64_t id);

  std::int64_t reserved_bytes() const { return reserved_; }
  std::int64_t peak_reserved_bytes() const { return peak_reserved_; }
  std::int64_t allocated_bytes() const { return allocated_; }
  std::int64_t peak_allocated_bytes() const { return peak_allocated_; }
  std::size_t num_live() const {
    return static_cast<std::size_t>(core_.num_live());
  }

  // fw::AllocatorBackend. The arena is unbounded (no driver underneath), so
  // backend_alloc never reports OOM and backend_trim() is the default no-op
  // (the model never returns memory).
  std::string_view backend_name() const override { return "basic-bfc"; }
  fw::BackendAllocResult backend_alloc(std::int64_t bytes) override;
  void backend_free(std::int64_t id) override { free(id); }
  fw::BackendStats backend_stats() const override;
  std::int64_t backend_round(std::int64_t bytes) const override;
  void backend_reset() override;

 private:
  struct Block : alloc::bfc::Node<Block> {};

  static constexpr std::uint64_t kArenaBase = 0x400000000ULL;

  std::uint64_t next_addr_ = kArenaBase;
  std::int64_t reserved_ = 0;
  std::int64_t peak_reserved_ = 0;
  std::int64_t allocated_ = 0;
  std::int64_t peak_allocated_ = 0;
  std::int64_t num_allocs_ = 0;
  std::int64_t num_frees_ = 0;
  std::int64_t num_segments_ = 0;
  alloc::bfc::FreeSet<Block> free_blocks_;
  alloc::bfc::Core<Block> core_;
};

}  // namespace xmem::baselines
