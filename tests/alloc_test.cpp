// Tests for the two-level allocator tower: SimulatedCudaDriver (device
// level) and CachingAllocatorSim (the CUDACachingAllocator port), and for
// the BFC core's free set they search.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "alloc/bfc_core.h"
#include "alloc/caching_allocator.h"
#include "alloc/cuda_driver_sim.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace xmem::alloc {
namespace {

using util::kGiB;
using util::kMiB;

// ---------- driver ----------

TEST(Driver, RoundsReservationsToPages) {
  SimulatedCudaDriver driver(kGiB);
  ASSERT_TRUE(driver.cuda_malloc(1).has_value());
  EXPECT_EQ(driver.stats().used_bytes, SimulatedCudaDriver::kPageSize);
  EXPECT_EQ(driver.stats().requested_bytes, 1);
}

TEST(Driver, OomWhenCapacityExceeded) {
  SimulatedCudaDriver driver(4 * kMiB);
  ASSERT_TRUE(driver.cuda_malloc(2 * kMiB).has_value());
  ASSERT_TRUE(driver.cuda_malloc(2 * kMiB).has_value());
  EXPECT_FALSE(driver.cuda_malloc(1).has_value());
  EXPECT_EQ(driver.stats().num_oom_failures, 1);
}

TEST(Driver, FreeMakesRoomAgain) {
  SimulatedCudaDriver driver(4 * kMiB);
  const auto a = driver.cuda_malloc(3 * kMiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(driver.cuda_malloc(2 * kMiB).has_value());
  driver.cuda_free(*a);
  EXPECT_TRUE(driver.cuda_malloc(2 * kMiB).has_value());
}

TEST(Driver, PeakTracksHighWaterMark) {
  SimulatedCudaDriver driver(kGiB);
  const auto a = driver.cuda_malloc(10 * kMiB);
  driver.cuda_free(*a);
  driver.cuda_malloc(2 * kMiB);
  EXPECT_EQ(driver.stats().peak_used_bytes, 10 * kMiB);
}

TEST(Driver, DistinctDisjointAddresses) {
  SimulatedCudaDriver driver(kGiB);
  const auto a = driver.cuda_malloc(5 * kMiB);
  const auto b = driver.cuda_malloc(5 * kMiB);
  ASSERT_TRUE(a && b);
  EXPECT_GE(*b, *a + static_cast<std::uint64_t>(5 * kMiB));
}

TEST(Driver, InvalidArguments) {
  EXPECT_THROW(SimulatedCudaDriver(0), std::invalid_argument);
  SimulatedCudaDriver driver(kGiB);
  EXPECT_THROW(driver.cuda_malloc(0), std::invalid_argument);
  EXPECT_THROW(driver.cuda_free(0xDEAD), std::logic_error);
}

// ---------- caching allocator: size policies ----------

TEST(CachingAllocator, RoundSizeMatchesPyTorch) {
  EXPECT_EQ(CachingAllocatorSim::round_size(1), 512);
  EXPECT_EQ(CachingAllocatorSim::round_size(512), 512);
  EXPECT_EQ(CachingAllocatorSim::round_size(513), 1024);
  EXPECT_EQ(CachingAllocatorSim::round_size(kMiB), kMiB);
}

TEST(CachingAllocator, AllocationSizeBuckets) {
  // <= 1 MiB -> 2 MiB small buffer; < 10 MiB -> 20 MiB large buffer;
  // >= 10 MiB -> rounded up to 2 MiB multiple.
  EXPECT_EQ(CachingAllocatorSim::allocation_size(512), 2 * kMiB);
  EXPECT_EQ(CachingAllocatorSim::allocation_size(kMiB), 2 * kMiB);
  EXPECT_EQ(CachingAllocatorSim::allocation_size(kMiB + 512), 20 * kMiB);
  EXPECT_EQ(CachingAllocatorSim::allocation_size(9 * kMiB), 20 * kMiB);
  EXPECT_EQ(CachingAllocatorSim::allocation_size(10 * kMiB), 10 * kMiB);
  EXPECT_EQ(CachingAllocatorSim::allocation_size(11 * kMiB), 12 * kMiB);
}

// ---------- caching allocator: behaviour ----------

TEST(CachingAllocator, SmallAllocationReservesSmallBuffer) {
  SimulatedCudaDriver driver(kGiB);
  CachingAllocatorSim allocator(driver);
  const AllocOutcome outcome = allocator.allocate(100);
  EXPECT_FALSE(outcome.oom);
  EXPECT_EQ(outcome.rounded_size, 512);
  EXPECT_EQ(allocator.stats().reserved_bytes, 2 * kMiB);
  EXPECT_EQ(allocator.stats().allocated_bytes, 512);
}

TEST(CachingAllocator, FreedBlockIsReusedNotReturned) {
  SimulatedCudaDriver driver(kGiB);
  CachingAllocatorSim allocator(driver);
  const AllocOutcome first = allocator.allocate(5 * kMiB);
  const std::uint64_t addr = allocator.block_addr(first.id);
  allocator.free(first.id);
  EXPECT_EQ(allocator.stats().reserved_bytes, 20 * kMiB);  // cached
  const AllocOutcome second = allocator.allocate(5 * kMiB);
  EXPECT_EQ(allocator.block_addr(second.id), addr);  // same block reused
  EXPECT_EQ(driver.stats().num_mallocs, 1);          // no new segment
}

TEST(CachingAllocator, SmallAndLargePoolsAreSeparate) {
  SimulatedCudaDriver driver(kGiB);
  CachingAllocatorSim allocator(driver);
  const AllocOutcome small = allocator.allocate(1000);
  allocator.free(small.id);
  // A cached 2 MiB small segment must not serve a large-pool request.
  allocator.allocate(1536 * 1024);
  EXPECT_EQ(allocator.stats().num_segments_allocated, 2);
}

TEST(CachingAllocator, SplitsLargeBlocks) {
  SimulatedCudaDriver driver(kGiB);
  CachingAllocatorSim allocator(driver);
  // 20 MiB segment serves a 2 MiB request; the remainder is usable by the
  // next large request without a new segment.
  allocator.allocate(2 * kMiB);
  EXPECT_EQ(allocator.stats().num_splits, 1);
  allocator.allocate(2 * kMiB);
  EXPECT_EQ(allocator.stats().num_segments_allocated, 1);
  EXPECT_EQ(allocator.stats().reserved_bytes, 20 * kMiB);
}

TEST(CachingAllocator, NoSplitWhenRemainderTooSmallInLargePool) {
  SimulatedCudaDriver driver(kGiB);
  CachingAllocatorSim allocator(driver);
  // 19.5 MiB from a 20 MiB buffer leaves 0.5 MiB <= kSmallSize: no split —
  // the whole segment is handed out (internal fragmentation).
  const AllocOutcome outcome = allocator.allocate(19 * kMiB + 512 * 1024);
  EXPECT_EQ(allocator.stats().num_splits, 0);
  EXPECT_EQ(allocator.block_size(outcome.id), 20 * kMiB);
}

TEST(CachingAllocator, CoalescesAdjacentFreeBlocks) {
  SimulatedCudaDriver driver(kGiB);
  CachingAllocatorSim allocator(driver);
  const AllocOutcome a = allocator.allocate(4 * kMiB);
  const AllocOutcome b = allocator.allocate(4 * kMiB);
  const AllocOutcome c = allocator.allocate(4 * kMiB);
  ASSERT_EQ(allocator.stats().num_segments_allocated, 1);  // one 20 MiB
  allocator.free(a.id);
  allocator.free(c.id);
  allocator.free(b.id);  // middle free merges with both neighbours
  EXPECT_GE(allocator.stats().num_coalesces, 2);
  // After full coalescing the segment must serve a 20 MiB-sized request.
  const AllocOutcome big = allocator.allocate(18 * kMiB);
  EXPECT_FALSE(big.oom);
  EXPECT_EQ(allocator.stats().num_segments_allocated, 1);
}

TEST(CachingAllocator, EmptyCacheReleasesOnlyWholeFreeSegments) {
  SimulatedCudaDriver driver(kGiB);
  CachingAllocatorSim allocator(driver);
  const AllocOutcome a = allocator.allocate(12 * kMiB);  // own segment
  const AllocOutcome b = allocator.allocate(2 * kMiB);   // in a 20 MiB segment
  allocator.free(a.id);
  allocator.empty_cache();
  EXPECT_EQ(allocator.stats().num_segments_released, 1);
  EXPECT_EQ(allocator.stats().reserved_bytes, 20 * kMiB);
  allocator.free(b.id);
  allocator.empty_cache();
  EXPECT_EQ(allocator.stats().reserved_bytes, 0);
  EXPECT_EQ(driver.stats().used_bytes, 0);
}

TEST(CachingAllocator, ReclaimsCacheBeforeOom) {
  SimulatedCudaDriver driver(22 * kMiB);
  CachingAllocatorSim allocator(driver);
  // Cache a 2 MiB small-pool segment (small segments cannot serve large
  // requests, so the next allocation must go to the driver).
  const AllocOutcome a = allocator.allocate(1024);
  allocator.free(a.id);
  // 21 MiB large request -> 22 MiB segment; the driver only has 20 MiB
  // free, so the allocator must release the cached small segment and retry
  // — the reclaim-then-retry chain DNNMem's model omits.
  const AllocOutcome b = allocator.allocate(21 * kMiB);
  EXPECT_FALSE(b.oom);
  EXPECT_EQ(allocator.stats().num_cache_reclaims, 1);
  EXPECT_EQ(allocator.stats().num_segments_released, 1);
}

TEST(CachingAllocator, OomOnlyWhenBothLevelsFail) {
  SimulatedCudaDriver driver(22 * kMiB);
  CachingAllocatorSim allocator(driver);
  const AllocOutcome a = allocator.allocate(18 * kMiB);
  EXPECT_FALSE(a.oom);
  const AllocOutcome b = allocator.allocate(18 * kMiB);  // no cache to free
  EXPECT_TRUE(b.oom);
  EXPECT_EQ(b.id, kInvalidBlock);
  // The failed allocation changed nothing.
  EXPECT_EQ(allocator.stats().allocated_bytes, allocator.block_size(a.id));
}

TEST(CachingAllocator, StatsPeaksAreMonotoneUpperBounds) {
  SimulatedCudaDriver driver(kGiB);
  CachingAllocatorSim allocator(driver);
  std::vector<BlockId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(allocator.allocate(3 * kMiB).id);
  const std::int64_t peak = allocator.stats().peak_allocated_bytes;
  for (BlockId id : ids) allocator.free(id);
  EXPECT_EQ(allocator.stats().allocated_bytes, 0);
  EXPECT_EQ(allocator.stats().peak_allocated_bytes, peak);
  EXPECT_GE(allocator.stats().peak_reserved_bytes,
            allocator.stats().peak_allocated_bytes);
}

TEST(CachingAllocator, SnapshotCoversAllReservedBytes) {
  SimulatedCudaDriver driver(kGiB);
  CachingAllocatorSim allocator(driver);
  allocator.allocate(100);
  const AllocOutcome b = allocator.allocate(5 * kMiB);
  allocator.allocate(15 * kMiB);
  allocator.free(b.id);
  std::int64_t total = 0;
  for (const SegmentInfo& segment : allocator.snapshot()) {
    std::int64_t in_segment = 0;
    for (const BlockInfo& block : segment.blocks) in_segment += block.size;
    EXPECT_EQ(in_segment, segment.size);
    total += segment.size;
  }
  EXPECT_EQ(total, allocator.stats().reserved_bytes);
}

TEST(CachingAllocator, FreeUnknownIdThrows) {
  SimulatedCudaDriver driver(kGiB);
  CachingAllocatorSim allocator(driver);
  EXPECT_THROW(allocator.free(999), std::logic_error);
  EXPECT_THROW(allocator.allocate(0), std::invalid_argument);
}

// ---------- property sweep: random workloads keep all invariants ----------

struct SweepParams {
  std::uint64_t seed;
  std::int64_t max_alloc;
};

class AllocatorPropertySweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(AllocatorPropertySweep, InvariantsHoldUnderRandomWorkload) {
  util::Rng rng(GetParam().seed);
  SimulatedCudaDriver driver(2 * kGiB);
  CachingAllocatorSim allocator(driver);
  std::vector<BlockId> live;
  std::int64_t live_rounded = 0;

  for (int step = 0; step < 2000; ++step) {
    const bool do_alloc = live.empty() || rng.next_bool(0.55);
    if (do_alloc) {
      const std::int64_t size =
          1 + static_cast<std::int64_t>(
                  rng.next_below(static_cast<std::uint64_t>(GetParam().max_alloc)));
      const AllocOutcome outcome = allocator.allocate(size);
      if (outcome.oom) continue;  // capacity pressure is fine
      live.push_back(outcome.id);
      live_rounded += outcome.rounded_size;
      EXPECT_EQ(outcome.rounded_size, allocator.block_size(outcome.id));
      EXPECT_GE(outcome.rounded_size, size);
    } else {
      const std::size_t pick = rng.next_below(live.size());
      live_rounded -= allocator.block_size(live[pick]);
      allocator.free(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    // Invariant: tensor accounting matches our shadow accounting. (The
    // allocator may hand out blocks bigger than the rounded request when
    // splitting is not worthwhile, so use >=.)
    EXPECT_GE(allocator.stats().allocated_bytes, live_rounded);
    // Invariant: reserved >= allocated, and the driver agrees on pages.
    EXPECT_GE(allocator.stats().reserved_bytes,
              allocator.stats().allocated_bytes);
    EXPECT_GE(driver.stats().used_bytes, allocator.stats().reserved_bytes);
    EXPECT_EQ(allocator.num_live_blocks(), live.size());
  }

  // Snapshot invariants: blocks tile each segment with no overlap.
  for (const SegmentInfo& segment : allocator.snapshot()) {
    std::uint64_t cursor = segment.addr;
    bool prev_free = false;
    for (const BlockInfo& block : segment.blocks) {
      EXPECT_EQ(block.addr, cursor);
      cursor += static_cast<std::uint64_t>(block.size);
      // Coalescing invariant: no two adjacent free blocks.
      if (!block.allocated) {
        EXPECT_FALSE(prev_free) << "adjacent free blocks not coalesced";
      }
      prev_free = !block.allocated;
    }
  }

  // Drain everything; all segments must be releasable and the driver clean.
  for (BlockId id : live) allocator.free(id);
  allocator.empty_cache();
  EXPECT_EQ(allocator.stats().reserved_bytes, 0);
  EXPECT_EQ(driver.stats().used_bytes, 0);
  EXPECT_EQ(allocator.stats().num_allocs, allocator.stats().num_frees);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AllocatorPropertySweep,
    ::testing::Values(SweepParams{1, 4096},           // small pool only
                      SweepParams{2, 4 * kMiB},       // mixed pools
                      SweepParams{3, 64 * kMiB},      // large blocks
                      SweepParams{4, 512},            // tiny blocks
                      SweepParams{5, 16 * kMiB},      // capacity pressure
                      SweepParams{6, 2 * kMiB}));

TEST(CachingAllocator, DeterministicAcrossRuns) {
  auto run = [] {
    util::Rng rng(99);
    SimulatedCudaDriver driver(kGiB);
    CachingAllocatorSim allocator(driver);
    std::vector<BlockId> live;
    for (int i = 0; i < 500; ++i) {
      if (live.empty() || rng.next_bool(0.6)) {
        const AllocOutcome o =
            allocator.allocate(1 + static_cast<std::int64_t>(rng.next_below(8 * kMiB)));
        if (!o.oom) live.push_back(o.id);
      } else {
        const std::size_t pick = rng.next_below(live.size());
        allocator.free(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    return allocator.stats().peak_reserved_bytes;
  };
  EXPECT_EQ(run(), run());
}


// ---------- bfc::FreeSet against a std::set reference ----------

struct TestBlock : bfc::Node<TestBlock> {};

/// Seeded random insert / erase / take / take(size, usable) / clear
/// sequences, replayed on bfc::FreeSet and on a std::set of (size, addr)
/// keys: every take must return the block the reference names, and periodic
/// drains must list the same keys in the same order. Sizes come mostly from
/// three values, so long stretches of equal sizes order by address; growth
/// phases push the set past a thousand entries and shrink phases and drains
/// empty it again.
TEST(BfcFreeSet, MatchesAStdSetReferenceOnRandomSequences) {
  using Key = std::pair<std::int64_t, std::uint64_t>;
  constexpr std::size_t kBlocks = 3000;
  constexpr std::uint64_t kStride = 4096;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    util::Rng rng(seed);
    std::vector<TestBlock> blocks(kBlocks);
    for (std::size_t i = 0; i < kBlocks; ++i) blocks[i].addr = i * kStride;
    bfc::FreeSet<TestBlock> set;
    std::set<Key> reference;
    auto key_of = [](const TestBlock& block) {
      return Key{block.size, block.addr};
    };
    auto block_of = [&blocks](const Key& key) {
      return &blocks[key.second / kStride];
    };
    auto draw_size = [&rng]() -> std::int64_t {
      if (rng.next_bool(0.7)) return 512 << rng.next_below(3);
      return rng.next_in_range(1, 1 << 20);
    };
    // Only blocks whose index is not a multiple of three are usable.
    auto usable = [](const TestBlock& block) {
      return block.addr / kStride % 3 != 0;
    };
    std::size_t largest = 0;
    int clears = 0;
    for (int step = 0; step < 20000; ++step) {
      const double p_insert = step / 2500 % 2 == 0 ? 0.75 : 0.2;
      TestBlock& pick = blocks[rng.next_below(kBlocks)];
      const double roll = rng.next_double();
      if (roll < p_insert) {
        // A block already in the set keeps its key: inserting it again is
        // a no-op on both sides.
        if (reference.count(key_of(pick)) == 0) pick.size = draw_size();
        set.insert(&pick);
        reference.insert(key_of(pick));
      } else if (roll < p_insert + 0.1) {
        // Often a block that is not in the set: a no-op on both sides.
        set.erase(&pick);
        reference.erase(key_of(pick));
      } else if (roll < 0.9998) {
        const std::int64_t size = draw_size();
        const bool filtered = rng.next_bool(0.5);
        auto it = reference.lower_bound(Key{size, 0});
        while (filtered && it != reference.end() && !usable(*block_of(*it))) {
          ++it;
        }
        TestBlock* const expected =
            it == reference.end() ? nullptr : block_of(*it);
        if (it != reference.end()) reference.erase(it);
        TestBlock* const got = filtered ? set.take(size, usable) : set.take(size);
        ASSERT_EQ(got, expected) << "seed " << seed << " step " << step
                                 << " take(" << size << ")";
      } else {
        set.clear();
        reference.clear();
        ++clears;
      }
      largest = std::max(largest, reference.size());
      if (step % 1000 == 999) {
        // Drain in order, compare, and put everything back shuffled.
        std::vector<TestBlock*> drained;
        while (TestBlock* block = set.take(0)) drained.push_back(block);
        ASSERT_EQ(drained.size(), reference.size()) << "seed " << seed;
        std::size_t i = 0;
        for (const Key& key : reference) {
          ASSERT_EQ(drained[i++], block_of(key)) << "seed " << seed;
        }
        for (std::size_t j = drained.size(); j > 1; --j) {
          std::swap(drained[j - 1], drained[rng.next_below(j)]);
        }
        for (TestBlock* block : drained) set.insert(block);
      }
    }
    EXPECT_GT(largest, 1000u) << "seed " << seed;
    EXPECT_GT(clears, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace xmem::alloc
