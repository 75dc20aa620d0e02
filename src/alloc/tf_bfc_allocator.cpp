#include "alloc/tf_bfc_allocator.h"

#include <algorithm>
#include <stdexcept>

#include "util/bytes.h"

namespace xmem::alloc {

TfBfcAllocator::TfBfcAllocator(SimulatedCudaDriver& driver)
    : driver_(driver) {}

std::int64_t TfBfcAllocator::round_size(std::int64_t bytes) {
  if (bytes < kMinAllocationSize) return kMinAllocationSize;
  return util::round_up(bytes, kMinAllocationSize);
}

TfBfcAllocator::Chunk* TfBfcAllocator::extend(std::int64_t rounded) {
  // Region growth: at least the request, preferring the doubling schedule.
  // TF backs off to smaller regions before giving up; each distinct size is
  // asked for once, since the driver state is the same between probes.
  const std::int64_t min_region = util::round_up(rounded, kInitialRegionSize);
  std::int64_t region = std::max(next_region_size_, min_region);
  std::optional<std::uint64_t> addr = driver_.cuda_malloc(region);
  while (!addr.has_value() && region > min_region) {
    region = std::max(min_region, region / 2);
    addr = driver_.cuda_malloc(region);
  }
  if (!addr.has_value()) return nullptr;
  next_region_size_ = std::min<std::int64_t>(region * 2,
                                             std::int64_t{1} << 33);
  Chunk* chunk = core_.acquire();
  chunk->addr = *addr;
  chunk->size = driver_.reservation_size(*addr).value_or(region);
  regions_.push_back(*addr);
  stats_.region_bytes += chunk->size;
  ++stats_.num_regions;
  return chunk;
}

TfAllocOutcome TfBfcAllocator::allocate(std::int64_t bytes) {
  if (bytes <= 0) {
    throw std::invalid_argument("TfBfcAllocator::allocate: bytes <= 0");
  }
  const std::int64_t rounded = round_size(bytes);

  Chunk* chunk = free_chunks_.take(rounded);
  if (chunk == nullptr) {
    chunk = extend(rounded);
    if (chunk == nullptr) return TfAllocOutcome{-1, true, rounded};
  }
  if (chunk->size - rounded >= kMinAllocationSize) {
    core_.split(chunk, rounded, free_chunks_);
  }

  const std::int64_t id = core_.publish(chunk);
  stats_.allocated_bytes += chunk->size;
  stats_.peak_allocated_bytes =
      std::max(stats_.peak_allocated_bytes, stats_.allocated_bytes);
  ++stats_.num_allocs;
  return TfAllocOutcome{id, false, chunk->size};
}

void TfBfcAllocator::free(std::int64_t id) {
  Chunk* chunk = core_.retire(id);
  if (chunk == nullptr) {
    throw std::logic_error("TfBfcAllocator::free: unknown id");
  }
  stats_.allocated_bytes -= chunk->size;
  ++stats_.num_frees;
  core_.coalesce(chunk, free_chunks_);
}

void TfBfcAllocator::backend_reset() {
  for (const std::uint64_t region : regions_) driver_.cuda_free(region);
  regions_.clear();
  core_.reset();
  free_chunks_.clear();
  next_region_size_ = kInitialRegionSize;
  stats_ = TfBfcStats{};
}

}  // namespace xmem::alloc
