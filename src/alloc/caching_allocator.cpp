#include "alloc/caching_allocator.h"

#include <algorithm>
#include <stdexcept>

#include "util/json.h"

namespace xmem::alloc {

CachingAllocatorSim::CachingAllocatorSim(SimulatedCudaDriver& driver)
    : driver_(driver) {}

std::int64_t CachingAllocatorSim::round_size(std::int64_t size) {
  if (size < kMinBlockSize) return kMinBlockSize;
  return util::round_up(size, kMinBlockSize);
}

std::int64_t CachingAllocatorSim::allocation_size(std::int64_t rounded_size) {
  if (rounded_size <= kSmallSize) return kSmallBuffer;
  if (rounded_size < kMinLargeAlloc) return kLargeBuffer;
  return util::round_up(rounded_size, kRoundLarge);
}

bool CachingAllocatorSim::should_split(const Block& block,
                                       std::int64_t size) const {
  const std::int64_t remaining = block.size - size;
  if (block.is_small_pool) return remaining >= kMinBlockSize;
  return remaining > kSmallSize;
}

CachingAllocatorSim::Block* CachingAllocatorSim::allocate_segment(
    BlockPool& pool, std::int64_t alloc_size) {
  auto addr = driver_.cuda_malloc(alloc_size);
  if (!addr.has_value()) {
    // First-level miss at the device: reclaim every unsplit cached segment
    // (the step DNNMem's model omits — see Section 5.1) and retry once.
    if (release_cached_segments() > 0) {
      ++stats_.num_cache_reclaims;
      addr = driver_.cuda_malloc(alloc_size);
    }
  }
  if (!addr.has_value()) return nullptr;

  Block* head = core_.acquire();
  head->addr = *addr;
  head->size = alloc_size;
  head->is_small_pool = pool.is_small;
  segments_[head->addr] = head;

  stats_.reserved_bytes += alloc_size;
  stats_.peak_reserved_bytes =
      std::max(stats_.peak_reserved_bytes, stats_.reserved_bytes);
  ++stats_.num_segments_allocated;
  return head;
}

AllocOutcome CachingAllocatorSim::allocate(std::int64_t size) {
  if (size <= 0) {
    throw std::invalid_argument("CachingAllocatorSim::allocate: size <= 0");
  }
  const std::int64_t rounded = round_size(size);
  BlockPool& pool = rounded <= kSmallSize ? small_pool_ : large_pool_;

  // Best fit: the first block whose size is >= the request, ties broken by
  // address, exactly like the std::set search in the upstream allocator.
  Block* block = pool.free_blocks.take(rounded);
  if (block == nullptr) {
    block = allocate_segment(pool, allocation_size(rounded));
  }
  if (block == nullptr) {
    return AllocOutcome{kInvalidBlock, true, rounded};
  }
  if (should_split(*block, rounded)) {
    core_.split(block, rounded, pool.free_blocks);
    ++stats_.num_splits;
  }
  block->requested_size = size;
  const BlockId id = core_.publish(block);

  stats_.allocated_bytes += block->size;
  stats_.requested_bytes += size;
  stats_.peak_allocated_bytes =
      std::max(stats_.peak_allocated_bytes, stats_.allocated_bytes);
  ++stats_.num_allocs;
  return AllocOutcome{id, false, block->size};
}

void CachingAllocatorSim::free(BlockId id) {
  Block* block = core_.retire(id);
  if (block == nullptr) {
    throw std::logic_error("CachingAllocatorSim::free: unknown block id");
  }
  stats_.allocated_bytes -= block->size;
  stats_.requested_bytes -= block->requested_size;
  ++stats_.num_frees;
  block->requested_size = 0;
  core_.coalesce(block, pool_of(*block).free_blocks,
                 [this](Block*, Block*) { ++stats_.num_coalesces; });
}

std::int64_t CachingAllocatorSim::release_cached_segments() {
  std::int64_t released = 0;
  // A segment is releasable when its whole extent is one free block (the
  // head with no neighbours), released in address order.
  for (auto it = segments_.begin(); it != segments_.end();) {
    Block* head = it->second;
    if (head->allocated || head->next != nullptr) {
      ++it;
      continue;
    }
    pool_of(*head).free_blocks.erase(head);
    driver_.cuda_free(head->addr);
    stats_.reserved_bytes -= head->size;
    ++stats_.num_segments_released;
    released += head->size;
    core_.recycle(head);
    it = segments_.erase(it);
  }
  return released;
}

void CachingAllocatorSim::empty_cache() { release_cached_segments(); }

void CachingAllocatorSim::backend_reset() {
  // Release every driver reservation (one per segment head); the core then
  // recycles every node, live or cached, and restarts the handles.
  for (const auto& [addr, head] : segments_) driver_.cuda_free(addr);
  segments_.clear();
  core_.reset();
  small_pool_.free_blocks.clear();
  large_pool_.free_blocks.clear();
  stats_ = CachingAllocatorStats{};
}

fw::BackendStats CachingAllocatorSim::backend_stats() const {
  fw::BackendStats s;
  s.active_bytes = stats_.allocated_bytes;
  s.peak_active_bytes = stats_.peak_allocated_bytes;
  s.reserved_bytes = stats_.reserved_bytes;
  s.peak_reserved_bytes = stats_.peak_reserved_bytes;
  s.num_allocs = stats_.num_allocs;
  s.num_frees = stats_.num_frees;
  s.num_segments =
      stats_.num_segments_allocated - stats_.num_segments_released;
  s.num_live_blocks = core_.num_live();
  return s;
}

bool CachingAllocatorSim::is_live(BlockId id) const {
  return core_.live(id) != nullptr;
}

std::int64_t CachingAllocatorSim::block_size(BlockId id) const {
  const Block* block = core_.live(id);
  if (block == nullptr) {
    throw std::logic_error("block_size: unknown block id");
  }
  return block->size;
}

std::uint64_t CachingAllocatorSim::block_addr(BlockId id) const {
  const Block* block = core_.live(id);
  if (block == nullptr) {
    throw std::logic_error("block_addr: unknown block id");
  }
  return block->addr;
}

std::string snapshot_to_json(const std::vector<SegmentInfo>& segments,
                             int indent) {
  util::Json doc = util::Json::array();
  for (const SegmentInfo& segment : segments) {
    util::Json seg = util::Json::object();
    seg["address"] = util::Json(static_cast<std::int64_t>(segment.addr));
    seg["total_size"] = util::Json(segment.size);
    seg["segment_type"] = util::Json(segment.is_small_pool ? "small" : "large");
    util::Json blocks = util::Json::array();
    std::int64_t active = 0;
    for (const BlockInfo& block : segment.blocks) {
      util::Json b = util::Json::object();
      b["address"] = util::Json(static_cast<std::int64_t>(block.addr));
      b["size"] = util::Json(block.size);
      b["state"] = util::Json(block.allocated ? "active_allocated"
                                              : "inactive");
      if (block.allocated) active += block.size;
      blocks.push_back(std::move(b));
    }
    seg["allocated_size"] = util::Json(active);
    seg["blocks"] = std::move(blocks);
    doc.push_back(std::move(seg));
  }
  return doc.dump(indent);
}

std::vector<SegmentInfo> CachingAllocatorSim::snapshot() const {
  std::vector<SegmentInfo> segments;
  for (const auto& [addr, head] : segments_) {
    SegmentInfo seg;
    seg.addr = addr;
    seg.is_small_pool = head->is_small_pool;
    for (const Block* b = head; b != nullptr; b = b->next) {
      seg.blocks.push_back(BlockInfo{b->addr, b->size, b->allocated});
      seg.size += b->size;
    }
    segments.push_back(std::move(seg));
  }
  return segments;
}

}  // namespace xmem::alloc
