// C++ port of PyTorch's CUDACachingAllocator (the "first level" of the
// paper's two-level simulation, Section 3.4).
//
// Implements the allocator mechanisms the paper identifies as essential for
// accurate estimation:
//   (i)   Round up      — requests rounded to 512-byte multiples
//   (ii)  Segments      — 2 MiB small buffers / 20 MiB large buffers /
//                         2 MiB-rounded huge allocations, matching
//                         c10/cuda/CUDACachingAllocator.cpp constants
//   (iii) Algorithm     — best-fit with splitting and coalescing (BFC)
//   (iv)  Caching       — freed blocks stay cached inside their segment
//   (v)   OOM semantics — a failed cudaMalloc first reclaims all unsplit
//                         cached segments and retries; OOM is signalled only
//                         when both levels fail after reclamation
//
// Restrictions relative to upstream: single stream, no expandable segments,
// no garbage-collection fraction, default (unlimited) max_split_size. These
// features are off by default upstream and none of the paper's workloads
// enable them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "alloc/bfc_core.h"
#include "alloc/cuda_driver_sim.h"
#include "fw/backend.h"

namespace xmem::alloc {

/// Opaque handle to a live allocation.
using BlockId = std::int64_t;
inline constexpr BlockId kInvalidBlock = -1;

struct CachingAllocatorStats {
  std::int64_t allocated_bytes = 0;       ///< rounded bytes in live blocks
  std::int64_t peak_allocated_bytes = 0;
  std::int64_t requested_bytes = 0;       ///< pre-rounding bytes in live blocks
  std::int64_t reserved_bytes = 0;        ///< bytes in segments held from driver
  std::int64_t peak_reserved_bytes = 0;
  std::int64_t num_allocs = 0;
  std::int64_t num_frees = 0;
  std::int64_t num_splits = 0;
  std::int64_t num_coalesces = 0;
  std::int64_t num_segments_allocated = 0;
  std::int64_t num_segments_released = 0;
  std::int64_t num_cache_reclaims = 0;  ///< release-cached-then-retry episodes
};

/// One block in a segment snapshot (Fig. 2 / Fig. 6 style dumps).
struct BlockInfo {
  std::uint64_t addr = 0;
  std::int64_t size = 0;
  bool allocated = false;
};

struct SegmentInfo {
  std::uint64_t addr = 0;
  std::int64_t size = 0;
  bool is_small_pool = false;
  std::vector<BlockInfo> blocks;
};

/// Serialize a segment map in torch.cuda.memory_snapshot() style (array of
/// segments with block lists) — consumed by tooling and the explorer
/// example; round-trips through util::Json.
std::string snapshot_to_json(const std::vector<SegmentInfo>& segments,
                             int indent = -1);

struct AllocOutcome {
  BlockId id = kInvalidBlock;
  bool oom = false;
  std::int64_t rounded_size = 0;
};

class CachingAllocatorSim final : public fw::AllocatorBackend {
 public:
  // Constants from c10/cuda/CUDACachingAllocator.cpp (PyTorch 2.6).
  static constexpr std::int64_t kMinBlockSize = 512;
  static constexpr std::int64_t kSmallSize = util::kMiB;
  static constexpr std::int64_t kSmallBuffer = 2 * util::kMiB;
  static constexpr std::int64_t kLargeBuffer = 20 * util::kMiB;
  static constexpr std::int64_t kMinLargeAlloc = 10 * util::kMiB;
  static constexpr std::int64_t kRoundLarge = 2 * util::kMiB;

  /// The allocator does not own the driver; one driver may sit under several
  /// allocators in multi-process experiments.
  explicit CachingAllocatorSim(SimulatedCudaDriver& driver);

  CachingAllocatorSim(const CachingAllocatorSim&) = delete;
  CachingAllocatorSim& operator=(const CachingAllocatorSim&) = delete;

  /// Round a request as the real allocator does.
  static std::int64_t round_size(std::int64_t size);
  /// Segment size chosen for a (rounded) request that missed the cache.
  static std::int64_t allocation_size(std::int64_t rounded_size);

  /// Allocate `size` bytes (pre-rounding). Never throws on OOM — OOM is an
  /// expected experimental outcome and is reported in the result.
  AllocOutcome allocate(std::int64_t size);

  /// Free a live block. Freed bytes stay cached in their segment.
  void free(BlockId id);

  /// Release every unsplit cached segment back to the driver (the
  /// torch.cuda.empty_cache() equivalent).
  void empty_cache();

  const CachingAllocatorStats& stats() const { return stats_; }

  // fw::AllocatorBackend — the generic view the registry, simulator, and
  // parity harness use (docs/ALLOCATORS.md documents the contract).
  std::string_view backend_name() const override { return "pytorch"; }
  fw::BackendAllocResult backend_alloc(std::int64_t bytes) override {
    const AllocOutcome outcome = allocate(bytes);
    return fw::BackendAllocResult{outcome.id, outcome.rounded_size,
                                  outcome.oom};
  }
  void backend_free(std::int64_t id) override { free(id); }
  fw::BackendStats backend_stats() const override;
  std::int64_t backend_round(std::int64_t bytes) const override {
    return round_size(bytes);
  }
  void backend_trim() override { empty_cache(); }
  void backend_reset() override;

  /// Live-block introspection (tests + snapshot dumps).
  bool is_live(BlockId id) const;
  std::int64_t block_size(BlockId id) const;
  std::uint64_t block_addr(BlockId id) const;
  std::size_t num_live_blocks() const {
    return static_cast<std::size_t>(core_.num_live());
  }

  /// Full segment map in address order, mirroring
  /// torch.cuda.memory_snapshot().
  std::vector<SegmentInfo> snapshot() const;

 private:
  struct Block : bfc::Node<Block> {
    std::int64_t requested_size = 0;  ///< pre-rounding size (0 when cached)
    bool is_small_pool = false;
  };
  struct BlockPool {
    bool is_small = false;
    bfc::FreeSet<Block> free_blocks;
  };

  BlockPool& pool_of(const Block& block) {
    return block.is_small_pool ? small_pool_ : large_pool_;
  }
  Block* allocate_segment(BlockPool& pool, std::int64_t alloc_size);
  bool should_split(const Block& block, std::int64_t size) const;
  std::int64_t release_cached_segments();

  SimulatedCudaDriver& driver_;
  BlockPool small_pool_{true, {}};
  BlockPool large_pool_{false, {}};
  // Block nodes, handles and split/coalesce come from the shared BFC core
  // (alloc/bfc_core.h). Only the segment heads live in an ordered map
  // (touched on segment alloc/release, the rare path), which release and
  // snapshot walk in address order; a head's addr is its segment's base.
  bfc::Core<Block> core_;
  std::map<std::uint64_t, Block*> segments_;
  CachingAllocatorStats stats_;
};

}  // namespace xmem::alloc
