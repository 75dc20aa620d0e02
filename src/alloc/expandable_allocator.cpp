#include "alloc/expandable_allocator.h"

#include <algorithm>
#include <stdexcept>

namespace xmem::alloc {

namespace {
// Allocator-owned VA bases for the two expandable segments. These are the
// allocator's addresses (what block handles point into), disjoint from the
// driver's VA space, and far enough apart that neither segment can grow
// into the other in any simulated workload.
constexpr std::uint64_t kSmallSegmentBase = 0x010000000000ULL;  // 1 TiB
constexpr std::uint64_t kLargeSegmentBase = 0x400000000000ULL;  // 64 TiB
}  // namespace

ExpandableSegmentsAllocator::ExpandableSegmentsAllocator(
    SimulatedCudaDriver& driver, const ExpandableConfig& config)
    : driver_(driver), config_(config) {
  if (config.page_bytes <= 0) {
    throw std::invalid_argument(
        "pytorch-expandable: page_bytes must be > 0 (got " +
        std::to_string(config.page_bytes) + ")");
  }
  if (config.max_split_size_bytes < 0) {
    throw std::invalid_argument(
        "pytorch-expandable: max_split_size_bytes must be >= 0 "
        "(0 = unlimited; got " +
        std::to_string(config.max_split_size_bytes) + ")");
  }
  small_.base = kSmallSegmentBase;
  large_.base = kLargeSegmentBase;
}

std::int64_t ExpandableSegmentsAllocator::round_size(std::int64_t size) {
  if (size < kMinBlockSize) return kMinBlockSize;
  return util::round_up(size, kMinBlockSize);
}

ExpandableSegmentsAllocator::Segment& ExpandableSegmentsAllocator::pool_for(
    std::int64_t rounded) {
  return rounded <= kSmallSize ? small_ : large_;
}

bool ExpandableSegmentsAllocator::may_split(const Block& block) const {
  const std::int64_t cap = config_.max_split_size_bytes;
  return cap == 0 || block.size <= cap;
}

ExpandableSegmentsAllocator::Block* ExpandableSegmentsAllocator::expand(
    Segment& seg, std::int64_t rounded) {
  // Grow the segment by just what the (possibly free) tail is missing,
  // rounded up to the page granularity. A free tail that is already large
  // enough only reaches here when the split cap blocked its reuse — in that
  // case it must not be extended (that would hand an over-cap block to an
  // under-cap request); a fresh block is appended past it instead.
  std::int64_t needed = rounded;
  Block* tail = seg.tail;
  const bool extend_tail =
      tail != nullptr && !tail->allocated && tail->size < rounded;
  if (extend_tail) needed -= tail->size;
  const std::int64_t grow = util::round_up(needed, config_.page_bytes);

  auto addr = driver_.cuda_malloc(grow);
  if (!addr.has_value()) {
    // Return the other segment's trailing free extents and retry once (the
    // expandable analogue of the reclaim-then-retry step).
    trim_segment(&seg == &small_ ? large_ : small_);
    addr = driver_.cuda_malloc(grow);
  }
  if (!addr.has_value()) return nullptr;

  seg.extents.push_back(Extent{*addr, grow});
  stats_.reserved_bytes += grow;
  stats_.peak_reserved_bytes =
      std::max(stats_.peak_reserved_bytes, stats_.reserved_bytes);

  Block* result = nullptr;
  if (extend_tail) {
    seg.free_blocks.erase(tail);
    tail->size += grow;
    result = tail;
  } else {
    result = core_.acquire();
    result->addr = seg.base + static_cast<std::uint64_t>(seg.span);
    result->size = grow;
    result->prev = tail;
    result->owner = &seg;
    if (tail != nullptr) tail->next = result;
    seg.tail = result;
  }
  seg.span += grow;
  return result;
}

fw::BackendAllocResult ExpandableSegmentsAllocator::backend_alloc(
    std::int64_t bytes) {
  if (bytes <= 0) {
    throw std::invalid_argument(
        "ExpandableSegmentsAllocator::backend_alloc: bytes <= 0");
  }
  const std::int64_t rounded = round_size(bytes);
  Segment& seg = pool_for(rounded);

  // max_split_size semantics: an over-cap free block is never split, so it
  // may only be reused (whole) by a request that is itself over the cap —
  // small requests skip past it rather than swallowing it.
  const std::int64_t cap = config_.max_split_size_bytes;
  Block* block = seg.free_blocks.take(rounded, [&](const Block& candidate) {
    const bool oversize = cap > 0 && candidate.size > cap;
    return !oversize || rounded > cap;
  });
  if (block == nullptr) block = expand(seg, rounded);
  if (block == nullptr) {
    return fw::BackendAllocResult{-1, 0, true};
  }

  const std::int64_t remainder = block->size - rounded;
  const std::int64_t min_remainder =
      (&seg == &small_) ? kMinBlockSize : kSmallSize + 1;
  if (remainder >= min_remainder && may_split(*block)) {
    Block* rest = core_.split(block, rounded, seg.free_blocks);
    if (seg.tail == block) seg.tail = rest;
  }

  const std::int64_t id = core_.publish(block);
  stats_.active_bytes += block->size;
  stats_.peak_active_bytes =
      std::max(stats_.peak_active_bytes, stats_.active_bytes);
  ++stats_.num_allocs;
  return fw::BackendAllocResult{id, block->size, false};
}

void ExpandableSegmentsAllocator::backend_free(std::int64_t id) {
  Block* block = core_.retire(id);
  if (block == nullptr) {
    throw std::logic_error(
        "ExpandableSegmentsAllocator::backend_free: unknown id");
  }
  stats_.active_bytes -= block->size;
  ++stats_.num_frees;
  Segment& seg = *block->owner;
  core_.coalesce(block, seg.free_blocks, [&seg](Block* survivor, Block* gone) {
    if (seg.tail == gone) seg.tail = survivor;
  });
}

void ExpandableSegmentsAllocator::trim_segment(Segment& seg) {
  // Release trailing wholly-free extents, newest first — the only part of
  // an expandable segment that can be unmapped without moving live blocks.
  while (!seg.extents.empty()) {
    Block* tail = seg.tail;
    if (tail == nullptr || tail->allocated) break;
    const Extent extent = seg.extents.back();
    if (tail->size < extent.bytes) break;
    driver_.cuda_free(extent.driver_addr);
    stats_.reserved_bytes -= extent.bytes;
    seg.span -= extent.bytes;
    seg.free_blocks.erase(tail);
    if (tail->size == extent.bytes) {
      if (tail->prev != nullptr) tail->prev->next = nullptr;
      seg.tail = tail->prev;
      core_.recycle(tail);
    } else {
      tail->size -= extent.bytes;
      seg.free_blocks.insert(tail);
    }
    seg.extents.pop_back();
  }
}

void ExpandableSegmentsAllocator::backend_trim() {
  trim_segment(small_);
  trim_segment(large_);
}

void ExpandableSegmentsAllocator::backend_reset() {
  for (Segment* seg : {&small_, &large_}) {
    for (const Extent& extent : seg->extents) {
      driver_.cuda_free(extent.driver_addr);
    }
    seg->extents.clear();
    seg->free_blocks.clear();
    seg->tail = nullptr;
    seg->span = 0;
  }
  core_.reset();
  stats_ = fw::BackendStats{};
}

fw::BackendStats ExpandableSegmentsAllocator::backend_stats() const {
  fw::BackendStats s = stats_;
  s.num_segments = static_cast<std::int64_t>(small_.extents.size() +
                                             large_.extents.size());
  s.num_live_blocks = core_.num_live();
  return s;
}

}  // namespace xmem::alloc
