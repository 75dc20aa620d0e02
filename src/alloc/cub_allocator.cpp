#include "alloc/cub_allocator.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace xmem::alloc {

CubBinnedAllocator::CubBinnedAllocator(SimulatedCudaDriver& driver,
                                       const CubConfig& config)
    : driver_(driver), config_(config) {
  if (config.bin_growth < 2) {
    throw std::invalid_argument(
        "cub-binned: malformed bin config: bin_growth must be >= 2 (got " +
        std::to_string(config.bin_growth) + ")");
  }
  if (config.min_bin < 0) {
    throw std::invalid_argument(
        "cub-binned: malformed bin config: min_bin must be >= 0 (got " +
        std::to_string(config.min_bin) + ")");
  }
  if (config.max_bin < config.min_bin) {
    throw std::invalid_argument(
        "cub-binned: malformed bin config: max_bin (" +
        std::to_string(config.max_bin) + ") must be >= min_bin (" +
        std::to_string(config.min_bin) + ")");
  }
  if (config.max_cached_bytes < 0) {
    throw std::invalid_argument(
        "cub-binned: max_cached_bytes must be >= 0 (got " +
        std::to_string(config.max_cached_bytes) + ")");
  }
  // largest bin = bin_growth^max_bin, rejected if it overflows.
  std::int64_t size = 1;
  for (std::int64_t i = 0; i < config.max_bin; ++i) {
    if (size > (std::int64_t{1} << 62) / config.bin_growth) {
      throw std::invalid_argument(
          "cub-binned: malformed bin config: bin_growth^max_bin (" +
          std::to_string(config.bin_growth) + "^" +
          std::to_string(config.max_bin) + ") overflows 64-bit sizes; "
          "lower max_bin or bin_growth");
    }
    size *= config.bin_growth;
  }
  largest_bin_bytes_ = size;
}

std::int64_t CubBinnedAllocator::backend_round(std::int64_t bytes) const {
  // Smallest bin >= bytes; past the largest bin requests are served exact.
  std::int64_t size = 1;
  for (std::int64_t i = 0; i < config_.min_bin; ++i) size *= config_.bin_growth;
  while (size < bytes && size < largest_bin_bytes_) size *= config_.bin_growth;
  return size >= bytes ? size : bytes;
}

fw::BackendAllocResult CubBinnedAllocator::backend_alloc(std::int64_t bytes) {
  if (bytes <= 0) {
    throw std::invalid_argument("CubBinnedAllocator::backend_alloc: bytes <= 0");
  }
  const std::int64_t bin_bytes = backend_round(bytes);
  const bool oversize = bin_bytes > largest_bin_bytes_;

  std::uint64_t addr = 0;
  auto cached_it = oversize ? cached_.end() : cached_.find(bin_bytes);
  if (cached_it != cached_.end() && !cached_it->second.empty()) {
    // Reuse the lowest-addressed cached block of this bin.
    auto addr_it = cached_it->second.begin();
    addr = *addr_it;
    cached_it->second.erase(addr_it);
    cached_bytes_ -= bin_bytes;
  } else {
    auto dev = driver_.cuda_malloc(bin_bytes);
    if (!dev.has_value() && cached_bytes_ > 0) {
      // cub's failure path: free every cached block, then retry once.
      free_all_cached();
      dev = driver_.cuda_malloc(bin_bytes);
    }
    if (!dev.has_value()) {
      return fw::BackendAllocResult{-1, 0, true};
    }
    addr = *dev;
    ++num_driver_mallocs_;
    stats_.reserved_bytes += bin_bytes;
    stats_.peak_reserved_bytes =
        std::max(stats_.peak_reserved_bytes, stats_.reserved_bytes);
    ++stats_.num_segments;
  }

  const std::int64_t id = live_.add(LiveBlock{addr, bin_bytes, oversize});
  stats_.active_bytes += bin_bytes;
  stats_.peak_active_bytes =
      std::max(stats_.peak_active_bytes, stats_.active_bytes);
  ++stats_.num_allocs;
  return fw::BackendAllocResult{id, bin_bytes, false};
}

void CubBinnedAllocator::backend_free(std::int64_t id) {
  const LiveBlock block = live_.take(id);
  if (block.bytes == 0) {
    throw std::logic_error("CubBinnedAllocator::backend_free: unknown id");
  }
  stats_.active_bytes -= block.bytes;
  ++stats_.num_frees;

  if (block.oversize ||
      cached_bytes_ + block.bytes > config_.max_cached_bytes) {
    driver_.cuda_free(block.addr);
    stats_.reserved_bytes -= block.bytes;
    --stats_.num_segments;
  } else {
    cached_[block.bytes].insert(block.addr);
    cached_bytes_ += block.bytes;
  }
}

void CubBinnedAllocator::free_all_cached() {
  for (auto& [bin_bytes, addrs] : cached_) {
    for (const std::uint64_t addr : addrs) {
      driver_.cuda_free(addr);
      stats_.reserved_bytes -= bin_bytes;
      --stats_.num_segments;
    }
    addrs.clear();
  }
  cached_bytes_ = 0;
}

void CubBinnedAllocator::backend_trim() { free_all_cached(); }

void CubBinnedAllocator::backend_reset() {
  free_all_cached();
  live_.for_each([this](const LiveBlock& block) {
    driver_.cuda_free(block.addr);
  });
  live_.clear();
  cached_.clear();
  num_driver_mallocs_ = 0;
  stats_ = fw::BackendStats{};
}

fw::BackendStats CubBinnedAllocator::backend_stats() const {
  fw::BackendStats s = stats_;
  s.num_live_blocks = live_.size();
  return s;
}

}  // namespace xmem::alloc
