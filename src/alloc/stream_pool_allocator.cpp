#include "alloc/stream_pool_allocator.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace xmem::alloc {

struct StreamPoolAllocator::Block {
  std::uint64_t addr = 0;
  std::int64_t size = 0;
  bool allocated = false;
  std::int64_t id = -1;
  Block* prev = nullptr;
  Block* next = nullptr;
  std::uint64_t chunk_addr = 0;  ///< driver reservation base of the chunk

  bool wholly_free() const {
    return !allocated && prev == nullptr && next == nullptr;
  }
};

bool StreamPoolAllocator::Less::operator()(const Block* a,
                                           const Block* b) const {
  if (a->size != b->size) return a->size < b->size;
  return a->addr < b->addr;
}

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

StreamPoolAllocator::~StreamPoolAllocator() = default;

std::unique_ptr<StreamPoolAllocator::Block>
StreamPoolAllocator::acquire_block() {
  if (spare_blocks_.empty()) return std::make_unique<Block>();
  auto block = std::move(spare_blocks_.back());
  spare_blocks_.pop_back();
  *block = Block{};
  return block;
}

void StreamPoolAllocator::recycle_block(std::uint64_t addr) {
  auto it = blocks_.find(addr);
  assert(it != blocks_.end());
  spare_blocks_.push_back(std::move(it->second));
  blocks_.erase(it);
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

  auto block = acquire_block();
  block->addr = *addr;
  block->size = chunk;
  block->chunk_addr = *addr;
  Block* raw = block.get();
  blocks_[raw->addr] = std::move(block);
  stats_.reserved_bytes += chunk;
  stats_.peak_reserved_bytes =
      std::max(stats_.peak_reserved_bytes, stats_.reserved_bytes);
  ++stats_.num_segments;
  return raw;
}

fw::BackendAllocResult StreamPoolAllocator::backend_alloc(std::int64_t bytes) {
  if (bytes <= 0) {
    throw std::invalid_argument(
        "StreamPoolAllocator::backend_alloc: bytes <= 0");
  }
  const std::int64_t rounded = backend_round(bytes);

  Block key;
  key.size = rounded;
  key.addr = 0;
  Block* block = nullptr;
  auto it = free_blocks_.lower_bound(&key);
  if (it != free_blocks_.end()) {
    block = *it;
    free_blocks_.erase(it);
    if (block->wholly_free()) free_chunks_.erase(block->addr);
  } else {
    block = grow(rounded);
    if (block == nullptr) return fw::BackendAllocResult{-1, 0, true};
  }

  if (block->size - rounded >= kAlignment) {
    auto remainder = acquire_block();
    remainder->addr = block->addr + static_cast<std::uint64_t>(rounded);
    remainder->size = block->size - rounded;
    remainder->prev = block;
    remainder->next = block->next;
    remainder->chunk_addr = block->chunk_addr;
    if (block->next != nullptr) block->next->prev = remainder.get();
    block->next = remainder.get();
    block->size = rounded;
    free_blocks_.insert(remainder.get());
    blocks_[remainder->addr] = std::move(remainder);
  }

  block->allocated = true;
  block->id = next_id_++;
  live_[block->id] = block;
  stats_.active_bytes += block->size;
  stats_.peak_active_bytes =
      std::max(stats_.peak_active_bytes, stats_.active_bytes);
  ++stats_.num_allocs;
  return fw::BackendAllocResult{block->id, block->size, false};
}

void StreamPoolAllocator::backend_free(std::int64_t id) {
  auto it = live_.find(id);
  if (it == live_.end()) {
    throw std::logic_error("StreamPoolAllocator::backend_free: unknown id");
  }
  Block* block = it->second;
  live_.erase(it);
  stats_.active_bytes -= block->size;
  ++stats_.num_frees;
  block->allocated = false;
  block->id = -1;

  if (Block* prev = block->prev; prev != nullptr && !prev->allocated) {
    free_blocks_.erase(prev);
    prev->size += block->size;
    prev->next = block->next;
    if (block->next != nullptr) block->next->prev = prev;
    recycle_block(block->addr);
    block = prev;
  }
  if (Block* next = block->next; next != nullptr && !next->allocated) {
    free_blocks_.erase(next);
    block->size += next->size;
    block->next = next->next;
    if (next->next != nullptr) next->next->prev = block;
    recycle_block(next->addr);
  }
  free_blocks_.insert(block);
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
    Block* block = it->second;
    it = free_chunks_.erase(it);
    free_blocks_.erase(block);
    driver_.cuda_free(block->chunk_addr);
    stats_.reserved_bytes -= block->size;
    --stats_.num_segments;
    recycle_block(block->addr);
  }
}

void StreamPoolAllocator::backend_trim() { release_free_chunks(0); }

void StreamPoolAllocator::backend_reset() {
  for (auto& [addr, block] : blocks_) {
    if (block->prev == nullptr) driver_.cuda_free(block->chunk_addr);
  }
  for (auto& [addr, block] : blocks_) {
    spare_blocks_.push_back(std::move(block));
  }
  blocks_.clear();
  live_.clear();
  free_blocks_.clear();
  free_chunks_.clear();
  next_id_ = 1;
  num_threshold_releases_ = 0;
  stats_ = fw::BackendStats{};
}

std::int64_t StreamPoolAllocator::num_wholly_free_chunks() const {
  return static_cast<std::int64_t>(
      std::count_if(blocks_.begin(), blocks_.end(),
                    [](const auto& entry) { return entry.second->wholly_free(); }));
}

fw::BackendStats StreamPoolAllocator::backend_stats() const {
  fw::BackendStats s = stats_;
  s.num_live_blocks = static_cast<std::int64_t>(live_.size());
  return s;
}

}  // namespace xmem::alloc
