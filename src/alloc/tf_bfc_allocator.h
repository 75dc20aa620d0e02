// TensorFlow-style BFC allocator — the §6.4(ii) generalization: the BFC
// core is framework-agnostic, but the policies around it differ, and
// "accurately modelling each allocator is crucial". Differences from the
// PyTorch port that measurably change reserved memory:
//
//   * 256-byte rounding (PyTorch: 512);
//   * one pool, no 2 MiB/20 MiB buffer classes: memory is acquired as
//     growing *regions*, each try doubling the previous region size;
//   * regions are never returned to the device (no empty_cache, no
//     reclaim-then-retry) — OOM is driver failure at region-growth time.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/bfc_core.h"
#include "alloc/cuda_driver_sim.h"
#include "fw/backend.h"

namespace xmem::alloc {

struct TfAllocOutcome {
  std::int64_t id = -1;
  bool oom = false;
  std::int64_t rounded_size = 0;
};

struct TfBfcStats {
  std::int64_t allocated_bytes = 0;
  std::int64_t peak_allocated_bytes = 0;
  std::int64_t region_bytes = 0;  ///< total acquired from the driver
  std::int64_t num_regions = 0;
  std::int64_t num_allocs = 0;
  std::int64_t num_frees = 0;
};

class TfBfcAllocator final : public fw::AllocatorBackend {
 public:
  static constexpr std::int64_t kMinAllocationSize = 256;
  static constexpr std::int64_t kInitialRegionSize = 2 * 1024 * 1024;

  explicit TfBfcAllocator(SimulatedCudaDriver& driver);
  TfBfcAllocator(const TfBfcAllocator&) = delete;
  TfBfcAllocator& operator=(const TfBfcAllocator&) = delete;

  static std::int64_t round_size(std::int64_t bytes);

  TfAllocOutcome allocate(std::int64_t bytes);
  void free(std::int64_t id);

  const TfBfcStats& stats() const { return stats_; }
  std::size_t num_live() const {
    return static_cast<std::size_t>(core_.num_live());
  }

  // fw::AllocatorBackend. Regions are never returned to the device, so
  // reserved_bytes is monotone and backend_trim() stays the default no-op.
  std::string_view backend_name() const override { return "tf-bfc"; }
  fw::BackendAllocResult backend_alloc(std::int64_t bytes) override {
    const TfAllocOutcome outcome = allocate(bytes);
    return fw::BackendAllocResult{outcome.id, outcome.rounded_size,
                                  outcome.oom};
  }
  void backend_free(std::int64_t id) override { free(id); }
  fw::BackendStats backend_stats() const override {
    fw::BackendStats s;
    s.active_bytes = stats_.allocated_bytes;
    s.peak_active_bytes = stats_.peak_allocated_bytes;
    s.reserved_bytes = stats_.region_bytes;
    s.peak_reserved_bytes = stats_.region_bytes;
    s.num_allocs = stats_.num_allocs;
    s.num_frees = stats_.num_frees;
    s.num_segments = stats_.num_regions;
    s.num_live_blocks = core_.num_live();
    return s;
  }
  std::int64_t backend_round(std::int64_t bytes) const override {
    return round_size(bytes);
  }
  void backend_reset() override;

 private:
  struct Chunk : bfc::Node<Chunk> {};

  Chunk* extend(std::int64_t rounded);

  SimulatedCudaDriver& driver_;
  std::int64_t next_region_size_ = kInitialRegionSize;
  bfc::FreeSet<Chunk> free_chunks_;
  bfc::Core<Chunk> core_;
  // Region bases (driver reservations), released only by backend_reset().
  std::vector<std::uint64_t> regions_;
  TfBfcStats stats_;
};

}  // namespace xmem::alloc
