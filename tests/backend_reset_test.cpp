// Reset-equivalence differential suite (label: parity).
//
// The backend_reset() contract (fw/backend.h) is what licenses the replay
// hot path to reuse one allocator tower across candidates instead of
// rebuilding it: a replay through a reset backend must be byte-identical to
// the same replay through a freshly constructed one — even when the reset
// instance previously replayed a completely different workload. This suite
// proves that differentially for every registry backend (default knobs and
// policy-variant knob sets), and on divergence hands the PR 2 shrinker the
// failing stream so the log shows a minimal reproducer, not a 10k-event
// haystack.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc/backend_registry.h"
#include "alloc/cuda_driver_sim.h"
#include "alloc/event_stream.h"
#include "core/orchestrator.h"
#include "core/simulator.h"
#include "util/bytes.h"

namespace xmem::alloc {
namespace {

// Parity streams replay against an effectively unbounded device.
constexpr std::int64_t kHugeCapacity = std::int64_t{1} << 50;

std::vector<StreamEvent> stream_with_seed(std::uint64_t seed,
                                          std::size_t num_events) {
  EventStreamConfig config;
  config.seed = seed;
  config.num_events = num_events;
  return generate_event_stream(config);
}

/// Knob sets every backend is exercised under: always the defaults, plus
/// documented policy variants for the configurable backends.
std::vector<BackendKnobs> knob_variants(const std::string& name) {
  std::vector<BackendKnobs> variants = {BackendKnobs{}};
  if (name == "pytorch-expandable") {
    variants.push_back(BackendKnobs{{"max_split_size_bytes", 20 * util::kMiB}});
    variants.push_back(BackendKnobs{{"page_bytes", 8 * util::kMiB}});
  } else if (name == "cub-binned") {
    // CTranslate2's shipped configuration.
    variants.push_back(BackendKnobs{{"bin_growth", 4},
                                    {"min_bin", 3},
                                    {"max_bin", 12},
                                    {"max_cached_bytes", 200 * util::kMiB}});
    variants.push_back(BackendKnobs{{"max_cached_bytes", 0}});
  } else if (name == "stream-pool") {
    variants.push_back(
        BackendKnobs{{"release_threshold_bytes", 256 * util::kMiB}});
    variants.push_back(BackendKnobs{{"chunk_bytes", 4 * util::kMiB}});
  }
  return variants;
}

bool stats_equal(const fw::BackendStats& a, const fw::BackendStats& b) {
  return a.active_bytes == b.active_bytes &&
         a.peak_active_bytes == b.peak_active_bytes &&
         a.reserved_bytes == b.reserved_bytes &&
         a.peak_reserved_bytes == b.peak_reserved_bytes &&
         a.num_allocs == b.num_allocs && a.num_frees == b.num_frees &&
         a.num_segments == b.num_segments &&
         a.num_live_blocks == b.num_live_blocks;
}

std::string stats_diff(const fw::BackendStats& fresh,
                       const fw::BackendStats& reset) {
  std::string out;
  const auto field = [&](const char* name, std::int64_t a, std::int64_t b) {
    if (a != b) {
      out += std::string(name) + ": fresh=" + std::to_string(a) +
             " reset=" + std::to_string(b) + "\n";
    }
  };
  field("active_bytes", fresh.active_bytes, reset.active_bytes);
  field("peak_active_bytes", fresh.peak_active_bytes, reset.peak_active_bytes);
  field("reserved_bytes", fresh.reserved_bytes, reset.reserved_bytes);
  field("peak_reserved_bytes", fresh.peak_reserved_bytes,
        reset.peak_reserved_bytes);
  field("num_allocs", fresh.num_allocs, reset.num_allocs);
  field("num_frees", fresh.num_frees, reset.num_frees);
  field("num_segments", fresh.num_segments, reset.num_segments);
  field("num_live_blocks", fresh.num_live_blocks, reset.num_live_blocks);
  return out;
}

/// Replay `events` through a freshly constructed (driver, backend) tower.
ReplayReport fresh_replay(const std::string& name, const BackendKnobs& knobs,
                          const std::vector<StreamEvent>& events) {
  SimulatedCudaDriver driver(kHugeCapacity);
  const auto backend = make_backend(name, driver, knobs);
  return replay_with_invariants(*backend, events);
}

/// Replay `events` through a tower that first churned through `warmup` and
/// was then reset (backend + driver) — the hot-path configuration.
ReplayReport reset_replay(const std::string& name, const BackendKnobs& knobs,
                          const std::vector<StreamEvent>& warmup,
                          const std::vector<StreamEvent>& events) {
  SimulatedCudaDriver driver(kHugeCapacity);
  const auto backend = make_backend(name, driver, knobs);
  replay_with_invariants(*backend, warmup);
  backend->backend_reset();
  driver.reset();
  return replay_with_invariants(*backend, events);
}

// ---------------------------------------------------------------------------
// The tentpole guarantee: fresh-vs-reset replays are byte-identical for
// every registered backend, under every knob variant, with the reset
// instance pre-dirtied by a different workload. On divergence the shrinker
// reduces the stream and the test log carries the reproducer.
// ---------------------------------------------------------------------------
TEST(BackendReset, FreshVsResetReplayIsByteIdenticalOnEveryBackend) {
  const auto warmup = stream_with_seed(99, 4000);
  const auto events = stream_with_seed(7, 10000);
  for (const std::string& name : backend_names()) {
    for (const BackendKnobs& knobs : knob_variants(name)) {
      const ReplayReport fresh = fresh_replay(name, knobs, events);
      const ReplayReport reset = reset_replay(name, knobs, warmup, events);
      ASSERT_TRUE(fresh.ok) << name << ": " << fresh.violation;
      ASSERT_TRUE(reset.ok) << name << ": " << reset.violation;
      if (stats_equal(fresh.final_stats, reset.final_stats) &&
          fresh.peak_reserved == reset.peak_reserved &&
          fresh.peak_active == reset.peak_active) {
        continue;
      }
      // Divergence: shrink to a minimal reproducer before failing.
      const auto still_diverges =
          [&](const std::vector<StreamEvent>& candidate) {
            const ReplayReport f = fresh_replay(name, knobs, candidate);
            const ReplayReport r = reset_replay(name, knobs, warmup, candidate);
            return !stats_equal(f.final_stats, r.final_stats) ||
                   f.peak_reserved != r.peak_reserved ||
                   f.peak_active != r.peak_active;
          };
      const auto reproducer = shrink_failing_stream(events, still_diverges);
      FAIL() << "backend '" << name << "' (knobs: {"
             << knobs_fingerprint(knobs) << "}) diverges after reset:\n"
             << stats_diff(fresh_replay(name, knobs, reproducer).final_stats,
                           reset_replay(name, knobs, warmup, reproducer)
                               .final_stats)
             << dump_stream(reproducer);
    }
  }
}

// Reset must return every observable to its post-construction value: zeroed
// counters (peaks included), no live blocks, no device reservations, and
// restarted handle numbering.
TEST(BackendReset, ResetRestoresPostConstructionObservables) {
  const auto events = stream_with_seed(21, 2000);
  for (const std::string& name : backend_names()) {
    SimulatedCudaDriver driver(kHugeCapacity);
    const auto backend = make_backend(name, driver);
    const std::int64_t first_id = backend->backend_alloc(4096).id;
    replay_with_invariants(*backend, events);
    // Reset with blocks still live: the backend itself must hand every
    // reservation back, before the driver is reset underneath it.
    ASSERT_FALSE(backend->backend_alloc(util::kMiB).oom) << name;
    ASSERT_FALSE(backend->backend_alloc(48 * util::kMiB).oom) << name;
    backend->backend_reset();
    EXPECT_EQ(driver.num_live_reservations(), 0u) << name;
    EXPECT_EQ(driver.stats().used_bytes, 0) << name;
    driver.reset();

    const fw::BackendStats after = backend->backend_stats();
    EXPECT_TRUE(stats_equal(after, fw::BackendStats{}))
        << name << ":\n" << stats_diff(fw::BackendStats{}, after);
    EXPECT_EQ(driver.num_live_reservations(), 0u) << name;
    EXPECT_EQ(driver.stats().used_bytes, 0) << name;
    EXPECT_EQ(driver.stats().peak_used_bytes, 0) << name;
    EXPECT_EQ(driver.stats().num_mallocs, 0) << name;
    // Handle numbering restarts: the first post-reset allocation gets the
    // same handle a fresh backend hands out.
    EXPECT_EQ(backend->backend_alloc(4096).id, first_id) << name;
  }
}

// Reset invalidates every handle, live or not: freeing a pre-reset handle
// is a double-free-class programming error.
TEST(BackendReset, ResetInvalidatesLiveHandles) {
  for (const std::string& name : backend_names()) {
    SimulatedCudaDriver driver(kHugeCapacity);
    const auto backend = make_backend(name, driver);
    const fw::BackendAllocResult live = backend->backend_alloc(util::kMiB);
    ASSERT_FALSE(live.oom) << name;
    backend->backend_reset();
    EXPECT_THROW(backend->backend_free(live.id), std::logic_error) << name;
  }
}

// The driver's own reset is part of the tower contract: it must also
// restart the VA space so block addresses reproduce.
TEST(BackendReset, DriverResetRestartsAddressSpace) {
  SimulatedCudaDriver driver(kHugeCapacity);
  const auto first = driver.cuda_malloc(util::kMiB);
  ASSERT_TRUE(first.has_value());
  driver.cuda_malloc(8 * util::kMiB);
  driver.reset();
  EXPECT_EQ(driver.cuda_malloc(util::kMiB), first);
}

// ---------------------------------------------------------------------------
// The consumer side: MemorySimulator::replay with a reused ReplayScratch
// (reset-instead-of-rebuild) must produce byte-identical SimulationResults
// to scratchless (fresh-tower) replays — including across backend switches,
// which force a transparent rebuild of the held tower.
// ---------------------------------------------------------------------------

core::OrchestratedSequence to_sequence(const std::vector<StreamEvent>& events) {
  core::OrchestratedSequence sequence;
  sequence.events.reserve(events.size());
  for (const StreamEvent& event : events) {
    core::OrchestratedEvent out;
    out.ts = event.ts;
    out.block_id = event.block_id;
    out.bytes = event.bytes;
    out.is_alloc = event.is_alloc;
    sequence.events.push_back(out);
  }
  return sequence;
}

TEST(BackendReset, SimulatorScratchReuseMatchesFreshReplays) {
  const std::vector<core::OrchestratedSequence> sequences = {
      to_sequence(stream_with_seed(3, 3000)),
      to_sequence(stream_with_seed(4, 3000)),
      to_sequence(stream_with_seed(5, 3000)),
  };
  core::MemorySimulator simulator;
  core::ReplayScratch scratch;
  for (const std::string& name : backend_names()) {
    core::SimulationOptions options;
    options.backend = name;
    for (const core::OrchestratedSequence& sequence : sequences) {
      const core::SimulationResult fresh = simulator.replay(sequence, options);
      // One scratch across every (backend, sequence) pair: same-backend
      // iterations hit the reset path, the backend switch hits the rebuild
      // path — both must be invisible in the results.
      const core::SimulationResult reused =
          simulator.replay(sequence, options, &scratch);
      EXPECT_EQ(fresh.peak_reserved, reused.peak_reserved) << name;
      EXPECT_EQ(fresh.peak_device, reused.peak_device) << name;
      EXPECT_EQ(fresh.peak_allocated, reused.peak_allocated) << name;
      EXPECT_EQ(fresh.oom, reused.oom) << name;
      EXPECT_TRUE(stats_equal(fresh.backend_stats, reused.backend_stats))
          << name << ":\n"
          << stats_diff(fresh.backend_stats, reused.backend_stats);
    }
  }
}

// Knob-configured towers must not be conflated with default ones by the
// scratch key: alternating configs through one scratch still matches the
// fresh replays of each config.
TEST(BackendReset, ScratchKeySeparatesKnobConfigurations) {
  const core::OrchestratedSequence sequence =
      to_sequence(stream_with_seed(11, 3000));
  core::MemorySimulator simulator;
  core::ReplayScratch scratch;
  core::SimulationOptions defaults;
  defaults.backend = "cub-binned";
  core::SimulationOptions ctranslate2 = defaults;
  ctranslate2.backend_knobs = {{"bin_growth", 4},
                               {"min_bin", 3},
                               {"max_bin", 12},
                               {"max_cached_bytes", 200 * util::kMiB}};
  const auto fresh_default = simulator.replay(sequence, defaults);
  const auto fresh_tuned = simulator.replay(sequence, ctranslate2);
  // Different binning must be visible in the results (the configs differ)…
  EXPECT_NE(fresh_default.peak_reserved, fresh_tuned.peak_reserved);
  // …and alternating them through one scratch reproduces each exactly.
  for (int round = 0; round < 2; ++round) {
    const auto reused_default = simulator.replay(sequence, defaults, &scratch);
    const auto reused_tuned = simulator.replay(sequence, ctranslate2, &scratch);
    EXPECT_EQ(reused_default.peak_reserved, fresh_default.peak_reserved);
    EXPECT_EQ(reused_default.peak_device, fresh_default.peak_device);
    EXPECT_EQ(reused_tuned.peak_reserved, fresh_tuned.peak_reserved);
    EXPECT_EQ(reused_tuned.peak_device, fresh_tuned.peak_device);
  }
}

}  // namespace
}  // namespace xmem::alloc
