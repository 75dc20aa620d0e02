#include "alloc/stream_pool_allocator.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace xmem::alloc {

StreamPoolAllocator::StreamPoolAllocator(SimulatedCudaDriver& driver,
                                         const StreamPoolConfig& config)
    : driver_(driver), config_(config) {
  if (config.chunk_bytes <= 0) {
    throw std::invalid_argument(
        "stream-pool: chunk_bytes must be > 0 (got " +
        std::to_string(config.chunk_bytes) + ")");
  }
  if (config.release_threshold_bytes < 0) {
    throw std::invalid_argument(
        "stream-pool: release_threshold_bytes must be >= 0 (got " +
        std::to_string(config.release_threshold_bytes) + ")");
  }
}

StreamPoolAllocator::Block* StreamPoolAllocator::grow(std::int64_t rounded) {
  const std::int64_t chunk = std::max(config_.chunk_bytes, rounded);
  auto addr = driver_.cuda_malloc(chunk);
  if (!addr.has_value()) {
    // Pool OOM path: give everything idle back to the driver, retry once.
    release_free_chunks(0);
    addr = driver_.cuda_malloc(chunk);
  }
  if (!addr.has_value()) return nullptr;

  Block* head = core_.acquire();
  head->addr = *addr;
  head->size = chunk;
  chunks_.emplace(head->addr, head);
  stats_.reserved_bytes += chunk;
  stats_.peak_reserved_bytes =
      std::max(stats_.peak_reserved_bytes, stats_.reserved_bytes);
  ++stats_.num_segments;
  return head;
}

fw::BackendAllocResult StreamPoolAllocator::backend_alloc(std::int64_t bytes) {
  if (bytes <= 0) {
    throw std::invalid_argument(
        "StreamPoolAllocator::backend_alloc: bytes <= 0");
  }
  const std::int64_t rounded = backend_round(bytes);

  Block* block = free_blocks_.take(rounded);
  if (block != nullptr) {
    if (block->wholly_free()) free_chunks_.erase(block->addr);
  } else {
    block = grow(rounded);
    if (block == nullptr) return fw::BackendAllocResult{-1, 0, true};
  }
  if (block->size - rounded >= kAlignment) {
    core_.split(block, rounded, free_blocks_);
  }

  const std::int64_t id = core_.publish(block);
  stats_.active_bytes += block->size;
  stats_.peak_active_bytes =
      std::max(stats_.peak_active_bytes, stats_.active_bytes);
  ++stats_.num_allocs;
  return fw::BackendAllocResult{id, block->size, false};
}

void StreamPoolAllocator::backend_free(std::int64_t id) {
  Block* block = core_.retire(id);
  if (block == nullptr) {
    throw std::logic_error("StreamPoolAllocator::backend_free: unknown id");
  }
  stats_.active_bytes -= block->size;
  ++stats_.num_frees;
  block = core_.coalesce(block, free_blocks_);
  // A merged neighbor shared a chunk with this block, so it was never in
  // the trim index; only the coalesced result can newly span its chunk.
  if (block->wholly_free()) free_chunks_.emplace(block->addr, block);

  // The stream-ordered trim: shed wholly-free chunks until the idle
  // (reserved minus active) memory fits under the release threshold.
  if (stats_.reserved_bytes - stats_.active_bytes >
      config_.release_threshold_bytes) {
    const std::int64_t before = stats_.num_segments;
    release_free_chunks(config_.release_threshold_bytes);
    num_threshold_releases_ += before - stats_.num_segments;
  }
}

void StreamPoolAllocator::release_free_chunks(std::int64_t keep_idle_bytes) {
  // Release chunks whose whole extent is one free block, lowest address
  // first, stopping once idle memory is back under the bound. The index
  // holds exactly those chunks, so the cost is the chunks released plus
  // one lookup — not a walk over every block the pool holds.
  auto it = free_chunks_.begin();
  while (it != free_chunks_.end() &&
         stats_.reserved_bytes - stats_.active_bytes > keep_idle_bytes) {
    Block* head = it->second;
    it = free_chunks_.erase(it);
    free_blocks_.erase(head);
    chunks_.erase(head->addr);
    driver_.cuda_free(head->addr);
    stats_.reserved_bytes -= head->size;
    --stats_.num_segments;
    core_.recycle(head);
  }
}

void StreamPoolAllocator::backend_trim() { release_free_chunks(0); }

void StreamPoolAllocator::backend_reset() {
  for (const auto& [addr, head] : chunks_) driver_.cuda_free(addr);
  chunks_.clear();
  core_.reset();
  free_blocks_.clear();
  free_chunks_.clear();
  num_threshold_releases_ = 0;
  stats_ = fw::BackendStats{};
}

std::int64_t StreamPoolAllocator::num_wholly_free_chunks() const {
  return static_cast<std::int64_t>(
      std::count_if(chunks_.begin(), chunks_.end(), [](const auto& entry) {
        return entry.second->wholly_free();
      }));
}

fw::BackendStats StreamPoolAllocator::backend_stats() const {
  fw::BackendStats s = stats_;
  s.num_live_blocks = core_.num_live();
  return s;
}

}  // namespace xmem::alloc
