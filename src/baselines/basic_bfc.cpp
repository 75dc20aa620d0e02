#include "baselines/basic_bfc.h"

#include <algorithm>
#include <stdexcept>

#include "util/bytes.h"

namespace xmem::baselines {

std::int64_t BasicBfcAllocator::alloc(std::int64_t bytes) {
  if (bytes <= 0) throw std::invalid_argument("BasicBfcAllocator: bytes <= 0");
  const std::int64_t rounded = util::round_up(bytes, kAlignment);

  Block* block = free_blocks_.take(rounded);
  if (block == nullptr) {
    const std::int64_t segment = util::round_up(rounded, kSegmentGranularity);
    block = core_.acquire();
    block->addr = next_addr_;
    block->size = segment;
    next_addr_ += static_cast<std::uint64_t>(segment) + kSegmentGranularity;
    reserved_ += segment;
    peak_reserved_ = std::max(peak_reserved_, reserved_);
    ++num_segments_;
  }
  if (block->size - rounded >= kAlignment) {
    core_.split(block, rounded, free_blocks_);
  }

  allocated_ += block->size;
  peak_allocated_ = std::max(peak_allocated_, allocated_);
  ++num_allocs_;
  return core_.publish(block);
}

void BasicBfcAllocator::free(std::int64_t id) {
  Block* block = core_.retire(id);
  if (block == nullptr) {
    throw std::logic_error("BasicBfcAllocator::free: unknown id");
  }
  allocated_ -= block->size;
  ++num_frees_;
  core_.coalesce(block, free_blocks_);
}

void BasicBfcAllocator::backend_reset() {
  // No driver underneath — the core recycles every node and restarts the
  // handles, and the address space restarts.
  core_.reset();
  free_blocks_.clear();
  next_addr_ = kArenaBase;
  reserved_ = 0;
  peak_reserved_ = 0;
  allocated_ = 0;
  peak_allocated_ = 0;
  num_allocs_ = 0;
  num_frees_ = 0;
  num_segments_ = 0;
}

fw::BackendAllocResult BasicBfcAllocator::backend_alloc(std::int64_t bytes) {
  const std::int64_t id = alloc(bytes);
  return fw::BackendAllocResult{id, core_.live(id)->size, false};
}

fw::BackendStats BasicBfcAllocator::backend_stats() const {
  fw::BackendStats s;
  s.active_bytes = allocated_;
  s.peak_active_bytes = peak_allocated_;
  s.reserved_bytes = reserved_;
  s.peak_reserved_bytes = peak_reserved_;
  s.num_allocs = num_allocs_;
  s.num_frees = num_frees_;
  s.num_segments = num_segments_;
  s.num_live_blocks = core_.num_live();
  return s;
}

std::int64_t BasicBfcAllocator::backend_round(std::int64_t bytes) const {
  return util::round_up(bytes, kAlignment);
}

}  // namespace xmem::baselines
