// Memory Simulator tests: two-level replay semantics, the paper's Figure 3
// sequence-sensitivity effect, capacity-bound OOM, curve recording, and the
// flat live-handle table held to a std::map-keyed replay on irregular ids.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc/backend_registry.h"
#include "core/simulator.h"
#include "util/bytes.h"

namespace xmem::core {
namespace {

using util::kMiB;

OrchestratedSequence make_sequence(
    const std::vector<std::tuple<std::int64_t, util::TimeUs, util::TimeUs>>&
        blocks) {
  OrchestratedSequence seq;
  std::int64_t id = 1;
  for (const auto& [size, alloc_ts, free_ts] : blocks) {
    MemoryBlock b;
    b.id = id++;
    b.size = size;
    b.alloc_ts = alloc_ts;
    b.free_ts = free_ts;
    seq.blocks.push_back(b);
  }
  for (const auto& b : seq.blocks) {
    seq.events.push_back(OrchestratedEvent{b.alloc_ts, b.id, b.size, true});
    if (!b.persistent()) {
      seq.events.push_back(OrchestratedEvent{b.free_ts, b.id, b.size, false});
    }
  }
  std::sort(seq.events.begin(), seq.events.end(),
            [](const OrchestratedEvent& a, const OrchestratedEvent& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.is_alloc != b.is_alloc) return !a.is_alloc;
              return a.block_id < b.block_id;
            });
  return seq;
}

TEST(Simulator, SingleBlockReservesSegment) {
  const auto seq = make_sequence({{5 * kMiB, 0, 10}});
  const SimulationResult r = MemorySimulator().replay(seq);
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.peak_reserved, 20 * kMiB);  // large-pool 20 MiB buffer
  EXPECT_EQ(r.peak_allocated, 5 * kMiB);
}

TEST(Simulator, CachingReusesFreedBlocks) {
  // Two sequential 5 MiB tensors: the second reuses the cached first.
  const auto seq = make_sequence({{5 * kMiB, 0, 10}, {5 * kMiB, 20, 30}});
  const SimulationResult r = MemorySimulator().replay(seq);
  EXPECT_EQ(r.peak_reserved, 20 * kMiB);
  EXPECT_EQ(r.stats.num_segments_allocated, 1);
}

TEST(Simulator, SequenceTimingChangesPeak) {
  // The Figure 3 effect: identical tensors, different deallocation timing,
  // different segment peak. Block A (60 MiB) either dies before or after
  // blocks B and C (58 MiB each) are allocated.
  const auto early_free = make_sequence(
      {{60 * kMiB, 0, 10}, {58 * kMiB, 20, 100}, {58 * kMiB, 30, 100}});
  const auto late_free = make_sequence(
      {{60 * kMiB, 0, 50}, {58 * kMiB, 20, 100}, {58 * kMiB, 30, 100}});
  const SimulationResult early = MemorySimulator().replay(early_free);
  const SimulationResult late = MemorySimulator().replay(late_free);
  // Early free: B fits into A's released 60 MiB; C needs its own segment.
  EXPECT_LT(early.peak_reserved, late.peak_reserved);
  EXPECT_EQ(early.peak_reserved, 118 * kMiB);  // 60 + 58
  EXPECT_EQ(late.peak_reserved, 176 * kMiB);   // 60 + 58 + 58
}

TEST(Simulator, PersistentBlocksStayToTheEnd) {
  const auto seq = make_sequence({{12 * kMiB, 0, -1}, {12 * kMiB, 5, -1}});
  const SimulationResult r = MemorySimulator().replay(seq);
  EXPECT_EQ(r.stats.allocated_bytes, 24 * kMiB);
  EXPECT_EQ(r.peak_allocated, 24 * kMiB);
}

TEST(Simulator, CapacityBoundReplayReportsOom) {
  SimulationOptions options;
  options.capacity = 30 * kMiB;
  const auto seq = make_sequence({{12 * kMiB, 0, -1}, {12 * kMiB, 5, -1},
                                  {12 * kMiB, 10, -1}});
  const SimulationResult r = MemorySimulator().replay(seq, options);
  EXPECT_TRUE(r.oom);
}

TEST(Simulator, ReclamationAvoidsFalseOom) {
  SimulationOptions options;
  options.capacity = 24 * kMiB;
  // A 12 MiB tensor dies, leaving a cached 12 MiB segment; a later 14 MiB
  // tensor needs a new segment the device cannot host until the cached one
  // is reclaimed — the two-level chain a one-level simulator misses.
  const auto seq = make_sequence({{12 * kMiB, 0, 10}, {14 * kMiB, 20, -1}});
  const SimulationResult r = MemorySimulator().replay(seq, options);
  EXPECT_FALSE(r.oom);
  EXPECT_GE(r.stats.num_cache_reclaims, 1);
}

TEST(Simulator, UnboundedPeakIsUpperBoundOfBoundedRuns) {
  const auto seq = make_sequence(
      {{12 * kMiB, 0, 10}, {12 * kMiB, 20, -1}, {10 * kMiB, 30, -1}});
  const SimulationResult unbounded = MemorySimulator().replay(seq);
  SimulationOptions bounded_options;
  bounded_options.capacity = unbounded.peak_reserved;
  const SimulationResult bounded =
      MemorySimulator().replay(seq, bounded_options);
  EXPECT_FALSE(bounded.oom)
      << "provisioning the unbounded peak must always be safe";
}

TEST(Simulator, SeriesRecordsEveryEvent) {
  SimulationOptions options;
  options.record_series = true;
  const auto seq = make_sequence({{5 * kMiB, 0, 10}, {3 * kMiB, 5, 15}});
  const SimulationResult r = MemorySimulator().replay(seq, options);
  EXPECT_EQ(r.reserved_series.size(), 4u);  // 2 allocs + 2 frees
  EXPECT_EQ(r.allocated_series.back().second, 0);
  for (std::size_t i = 0; i < r.reserved_series.size(); ++i) {
    EXPECT_GE(r.reserved_series[i].second, r.allocated_series[i].second);
  }
}

TEST(Simulator, EmptySequence) {
  const SimulationResult r = MemorySimulator().replay(OrchestratedSequence{});
  EXPECT_EQ(r.peak_reserved, 0);
  EXPECT_FALSE(r.oom);
}

// ---------- the live-handle table ----------

/// The replay loop keyed by a std::map from block id to backend handle:
/// the shape the simulator's flat table replaced. Peaks and OOM only.
SimulationResult map_replay(const OrchestratedSequence& sequence,
                            const SimulationOptions& options) {
  alloc::SimulatedCudaDriver driver(options.capacity);
  const auto backend =
      alloc::make_backend(options.backend, driver, options.backend_knobs);
  std::map<std::int64_t, std::int64_t> live;
  SimulationResult result;
  for (const OrchestratedEvent& event : sequence.events) {
    if (event.is_alloc) {
      const fw::BackendAllocResult outcome =
          backend->backend_alloc(event.bytes);
      if (outcome.oom) {
        result.oom = true;
        break;
      }
      live[event.block_id] = outcome.id;
    } else {
      const auto it = live.find(event.block_id);
      if (it == live.end()) continue;
      backend->backend_free(it->second);
      live.erase(it);
    }
  }
  const fw::BackendStats stats = backend->backend_stats();
  result.peak_reserved = stats.peak_reserved_bytes;
  result.peak_device = driver.stats().num_mallocs > 0
                           ? driver.stats().peak_used_bytes
                           : result.peak_reserved;
  result.peak_allocated = stats.peak_active_bytes;
  return result;
}

OrchestratedEvent alloc_event(util::TimeUs ts, std::int64_t id,
                              std::int64_t bytes) {
  return OrchestratedEvent{ts, id, bytes, true};
}

OrchestratedEvent free_event(util::TimeUs ts, std::int64_t id,
                             std::int64_t bytes) {
  return OrchestratedEvent{ts, id, bytes, false};
}

struct HandleCase {
  std::string name;
  std::vector<OrchestratedEvent> events;
  std::int64_t capacity = SimulationOptions::kUnboundedCapacity;
  bool oom = false;  ///< what the case is built to reach
};

std::vector<HandleCase> handle_cases() {
  return {
      {"orphan free",
       {alloc_event(0, 1, 5 * kMiB), free_event(5, 42, 3 * kMiB),
        alloc_event(10, 2, 7 * kMiB), free_event(15, 1, 5 * kMiB),
        free_event(20, 2, 7 * kMiB), free_event(25, 2, 7 * kMiB)}},
      {"frees after an OOM cut-off",
       {alloc_event(0, 1, 12 * kMiB), alloc_event(5, 2, 12 * kMiB),
        alloc_event(10, 3, 12 * kMiB), free_event(15, 3, 12 * kMiB),
        free_event(20, 2, 12 * kMiB), free_event(25, 1, 12 * kMiB),
        alloc_event(30, 4, 2 * kMiB)},
       30 * kMiB,
       true},
      {"id reused after its free",
       {alloc_event(0, 1, 5 * kMiB), free_event(5, 1, 5 * kMiB),
        alloc_event(10, 1, 30 * kMiB), alloc_event(12, 2, 3 * kMiB),
        free_event(15, 1, 30 * kMiB), alloc_event(20, 1, 1 * kMiB),
        free_event(25, 2, 3 * kMiB)}},
      {"ids from 0",
       {alloc_event(0, 0, 4 * kMiB), alloc_event(1, 1, 6 * kMiB),
        free_event(2, 0, 4 * kMiB), alloc_event(3, 2, 2 * kMiB),
        free_event(4, 1, 6 * kMiB), free_event(5, 2, 2 * kMiB)}},
      {"sparse id 10^6",
       {alloc_event(0, 1, 4 * kMiB), alloc_event(1, 1000000, 25 * kMiB),
        free_event(2, 1, 4 * kMiB), alloc_event(3, 3, 8 * kMiB),
        free_event(4, 1000000, 25 * kMiB), free_event(5, 3, 8 * kMiB)}},
  };
}

TEST(SimulatorHandles, IrregularIdsReplayLikeAMapKeyedReplay) {
  // Every backend, each case fresh and through one shared scratch (whose
  // table still holds the previous case's size and handles).
  const MemorySimulator simulator;
  for (const std::string& backend : alloc::backend_names()) {
    ReplayScratch shared;
    for (const HandleCase& c : handle_cases()) {
      OrchestratedSequence sequence;
      sequence.events = c.events;
      SimulationOptions options;
      options.backend = backend;
      options.capacity = c.capacity;
      const SimulationResult expected = map_replay(sequence, options);
      if (backend == "pytorch") {
        EXPECT_EQ(expected.oom, c.oom) << c.name;
      }
      for (ReplayScratch* scratch : {static_cast<ReplayScratch*>(nullptr),
                                     &shared}) {
        const SimulationResult r = simulator.replay(sequence, options, scratch);
        const std::string where = backend + ", " + c.name +
                                  (scratch == nullptr ? "" : ", shared scratch");
        EXPECT_EQ(r.oom, expected.oom) << where;
        EXPECT_EQ(r.peak_device, expected.peak_device) << where;
        EXPECT_EQ(r.peak_reserved, expected.peak_reserved) << where;
        EXPECT_EQ(r.peak_allocated, expected.peak_allocated) << where;
      }
    }
  }
}

TEST(SimulatorHandles, NegativeBlockIdThrows) {
  OrchestratedSequence sequence;
  sequence.events = {alloc_event(0, 1, kMiB), alloc_event(1, -3, kMiB)};
  ReplayScratch scratch;
  try {
    MemorySimulator().replay(sequence, {}, &scratch);
    FAIL() << "a negative block id must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "replay: negative block id -3");
  }
  // The scratch still replays afterwards.
  sequence.events = {alloc_event(0, 1, kMiB), free_event(1, 1, kMiB)};
  EXPECT_EQ(MemorySimulator().replay(sequence, {}, &scratch).peak_allocated,
            kMiB);
}

}  // namespace
}  // namespace xmem::core
