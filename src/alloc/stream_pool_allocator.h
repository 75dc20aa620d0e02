// Stream-ordered pool allocator — the cudaMallocAsync / cudaMemPool
// semantics (CTranslate2's CudaAsyncAllocator path in SNIPPETS.md
// Snippet 2): the driver-side pool grows in large chunks, carves requests
// out of them best-fit, and after every free trims itself back down to a
// release threshold (cudaMemPoolAttrReleaseThreshold, default 0 — the CUDA
// default, which returns every wholly-free chunk at the first
// synchronization point).
//
// The simulation is single-stream like the rest of the tower, so "at the
// next synchronization" collapses to "immediately after the free"; what the
// knob controls is how much idle (reserved minus active) memory the pool is
// allowed to keep holding.
#pragma once

#include <cstdint>
#include <map>

#include "alloc/bfc_core.h"
#include "alloc/cuda_driver_sim.h"
#include "fw/backend.h"

namespace xmem::alloc {

struct StreamPoolConfig {
  /// Idle bytes (reserved - active) the pool may retain before it starts
  /// releasing wholly-free chunks. 0 = release eagerly (CUDA's default).
  std::int64_t release_threshold_bytes = 0;
  /// Minimum chunk acquired from the driver; larger requests get a chunk
  /// of exactly their (rounded) size.
  std::int64_t chunk_bytes = 32 * util::kMiB;
};

class StreamPoolAllocator final : public fw::AllocatorBackend {
 public:
  static constexpr std::int64_t kAlignment = 256;

  /// Throws std::invalid_argument on a malformed config (non-positive
  /// chunk_bytes, negative release threshold).
  StreamPoolAllocator(SimulatedCudaDriver& driver,
                      const StreamPoolConfig& config);
  StreamPoolAllocator(const StreamPoolAllocator&) = delete;
  StreamPoolAllocator& operator=(const StreamPoolAllocator&) = delete;

  // fw::AllocatorBackend.
  std::string_view backend_name() const override { return "stream-pool"; }
  fw::BackendAllocResult backend_alloc(std::int64_t bytes) override;
  void backend_free(std::int64_t id) override;
  fw::BackendStats backend_stats() const override;
  std::int64_t backend_round(std::int64_t bytes) const override {
    return util::round_up(bytes, kAlignment);
  }
  void backend_trim() override;
  void backend_reset() override;

  /// Chunks released by threshold trimming so far (not by trim/reset).
  std::int64_t num_threshold_releases() const { return num_threshold_releases_; }
  /// Chunks held whose whole extent is one free block, counted by walking
  /// every chunk head (O(chunks); an observer, independent of the trim
  /// index).
  std::int64_t num_wholly_free_chunks() const;

 private:
  struct Block : bfc::Node<Block> {
    /// One free block spanning its whole chunk (a chunk head's addr is the
    /// chunk's driver reservation).
    bool wholly_free() const {
      return !allocated && prev == nullptr && next == nullptr;
    }
  };

  Block* grow(std::int64_t rounded);
  void release_free_chunks(std::int64_t keep_idle_bytes);

  SimulatedCudaDriver& driver_;
  StreamPoolConfig config_;
  bfc::FreeSet<Block> free_blocks_;
  bfc::Core<Block> core_;
  /// Chunk heads by address, touched only when a chunk is acquired or
  /// released.
  std::map<std::uint64_t, Block*> chunks_;
  /// Trim index: the wholly-free chunks (one free block spanning the whole
  /// chunk), address-ordered, so a trim visits only what it can release.
  std::map<std::uint64_t, Block*> free_chunks_;
  std::int64_t num_threshold_releases_ = 0;
  fw::BackendStats stats_;
};

}  // namespace xmem::alloc
