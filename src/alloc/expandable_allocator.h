// PyTorch caching allocator with expandable segments — the
// `expandable_segments:True` + `max_split_size_mb` configuration of the
// CUDACachingAllocator that the base port (caching_allocator.h) explicitly
// leaves out.
//
// Policy differences from the base "pytorch" backend:
//
//   * One *expandable segment* per pool (small/large) instead of many
//     fixed-size buffers: the segment is a contiguous allocator-owned VA
//     range grown in `page_bytes` increments, each increment charged to the
//     driver as its own reservation (upstream maps physical pages into a
//     reserved VA range with cuMemMap; the driver charge models the
//     physical side).
//   * Because growth is incremental, a request that misses the cache only
//     reserves what the tail of the segment is missing — no 20 MiB
//     over-reservation buckets, so reserved tracks active much tighter.
//   * `max_split_size_bytes` caps splitting the way max_split_size_mb does
//     upstream: free blocks larger than the cap are never split, and can
//     only be reused whole by requests that are themselves over the cap.
//     0 means unlimited (the upstream default).
//   * backend_trim() releases the trailing wholly-free extents of each
//     segment (the only part an expandable segment can return).
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/bfc_core.h"
#include "alloc/cuda_driver_sim.h"
#include "fw/backend.h"

namespace xmem::alloc {

struct ExpandableConfig {
  /// Growth granularity of an expandable segment. Driver reservations are
  /// made in multiples of this.
  std::int64_t page_bytes = 2 * util::kMiB;
  /// Free blocks larger than this are never split (0 = unlimited, the
  /// upstream max_split_size default).
  std::int64_t max_split_size_bytes = 0;
};

class ExpandableSegmentsAllocator final : public fw::AllocatorBackend {
 public:
  // Same request-rounding and pool-classification constants as the base
  // caching allocator (c10/cuda/CUDACachingAllocator.cpp).
  static constexpr std::int64_t kMinBlockSize = 512;
  static constexpr std::int64_t kSmallSize = util::kMiB;

  /// Throws std::invalid_argument on a malformed config (non-positive
  /// page_bytes, negative split cap).
  ExpandableSegmentsAllocator(SimulatedCudaDriver& driver,
                              const ExpandableConfig& config);
  ExpandableSegmentsAllocator(const ExpandableSegmentsAllocator&) = delete;
  ExpandableSegmentsAllocator& operator=(const ExpandableSegmentsAllocator&) =
      delete;

  static std::int64_t round_size(std::int64_t size);

  // fw::AllocatorBackend.
  std::string_view backend_name() const override { return "pytorch-expandable"; }
  fw::BackendAllocResult backend_alloc(std::int64_t bytes) override;
  void backend_free(std::int64_t id) override;
  fw::BackendStats backend_stats() const override;
  std::int64_t backend_round(std::int64_t bytes) const override {
    return round_size(bytes);
  }
  void backend_trim() override;
  void backend_reset() override;

 private:
  struct Segment;
  struct Block : bfc::Node<Block> {
    Segment* owner = nullptr;
  };
  /// One driver reservation backing a slice of a segment's VA range.
  struct Extent {
    std::uint64_t driver_addr = 0;
    std::int64_t bytes = 0;
  };
  /// An expandable segment: a contiguous VA range [base, base+span) backed
  /// by a stack of extents, holding one block list.
  struct Segment {
    std::uint64_t base = 0;
    std::int64_t span = 0;          ///< VA bytes currently backed
    std::vector<Extent> extents;    ///< growth history, newest last
    bfc::FreeSet<Block> free_blocks;
    Block* tail = nullptr;          ///< last block in address order
  };

  Segment& pool_for(std::int64_t rounded);
  Block* find_free_block(Segment& seg, std::int64_t rounded);
  Block* expand(Segment& seg, std::int64_t rounded);
  bool may_split(const Block& block) const;
  void trim_segment(Segment& seg);

  SimulatedCudaDriver& driver_;
  ExpandableConfig config_;
  Segment small_;
  Segment large_;
  bfc::Core<Block> core_;
  fw::BackendStats stats_;
};

}  // namespace xmem::alloc
