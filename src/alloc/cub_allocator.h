// CUB-style binned caching allocator — the cub::CachingDeviceAllocator
// semantics that CTranslate2 wires in as its CUDA allocator (SNIPPETS.md
// Snippet 2): geometric size bins, one device reservation per block (no
// segments, no splitting), and a bounded cache of freed blocks.
//
//   * A request is rounded up to the nearest bin: bin sizes are
//     bin_growth^k for min_bin <= k <= max_bin. Requests past the largest
//     bin are served exactly, straight from the driver, and never cached.
//   * alloc: reuse the lowest-addressed cached block of that exact bin,
//     else cudaMalloc the bin size. A driver OOM frees the whole cache and
//     retries once.
//   * free: the block returns to the cache unless that would push the
//     cache past max_cached_bytes, in which case it goes straight back to
//     the driver (max_cached_bytes = 0 disables caching entirely).
//   * backend_trim() is FreeAllCached().
//
// Defaults (bin_growth=2, min_bin=9 → 512 B, max_bin=25 → 32 MiB,
// max_cached_bytes=256 MiB) keep the pow-2 rounding waste inside the parity
// harness's 2x divergence band; CTranslate2 ships growth=4/min=3/max=12
// with a 200 MB cache, reachable through the knobs.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "alloc/bfc_core.h"
#include "alloc/cuda_driver_sim.h"
#include "fw/backend.h"

namespace xmem::alloc {

struct CubConfig {
  std::int64_t bin_growth = 2;
  std::int64_t min_bin = 9;
  std::int64_t max_bin = 25;
  std::int64_t max_cached_bytes = 256 * util::kMiB;
};

class CubBinnedAllocator final : public fw::AllocatorBackend {
 public:
  /// Throws std::invalid_argument on a malformed bin config: growth < 2,
  /// min_bin < 0, max_bin < min_bin, a largest bin that overflows 64 bits,
  /// or a negative cache bound.
  CubBinnedAllocator(SimulatedCudaDriver& driver, const CubConfig& config);

  CubBinnedAllocator(const CubBinnedAllocator&) = delete;
  CubBinnedAllocator& operator=(const CubBinnedAllocator&) = delete;

  // fw::AllocatorBackend.
  std::string_view backend_name() const override { return "cub-binned"; }
  fw::BackendAllocResult backend_alloc(std::int64_t bytes) override;
  void backend_free(std::int64_t id) override;
  fw::BackendStats backend_stats() const override;
  std::int64_t backend_round(std::int64_t bytes) const override;
  void backend_trim() override;
  void backend_reset() override;

  std::int64_t cached_bytes() const { return cached_bytes_; }
  /// Driver-level cudaMalloc calls issued so far (cache effectiveness).
  std::int64_t num_driver_mallocs() const { return num_driver_mallocs_; }

 private:
  struct LiveBlock {
    std::uint64_t addr = 0;
    std::int64_t bytes = 0;   ///< bin size (or exact size when oversize)
    bool oversize = false;    ///< past the largest bin: never cached
    bool operator==(const LiveBlock&) const = default;
  };

  void free_all_cached();

  SimulatedCudaDriver& driver_;
  CubConfig config_;
  std::int64_t largest_bin_bytes_ = 0;
  // Cached (freed, still reserved) blocks per bin size, lowest address
  // first for deterministic reuse.
  std::map<std::int64_t, std::set<std::uint64_t>> cached_;
  std::int64_t cached_bytes_ = 0;
  // The shared BFC core's live-id table (alloc/bfc_core.h); a live block
  // always has bytes > 0, so LiveBlock{} marks a free slot.
  bfc::LiveIds<LiveBlock> live_;
  std::int64_t num_driver_mallocs_ = 0;
  fw::BackendStats stats_;
};

}  // namespace xmem::alloc
