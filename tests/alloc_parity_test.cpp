// Randomized differential parity harness across allocator backends.
//
// One seeded event stream is replayed through every backend registered in
// alloc/backend_registry.h; the shared fw::AllocatorBackend contract
// (conservation, reserved >= active, monotone peaks, alloc/free/live-count
// consistency) must hold event-by-event on each of them, and their peak
// reserved memory must agree within documented divergence bounds. This is
// the suite that keeps allocator refactors from silently diverging from the
// paper's numbers (ROADMAP: allocator backend parity tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/backend_registry.h"
#include "alloc/cub_allocator.h"
#include "alloc/event_stream.h"
#include "alloc/stream_pool_allocator.h"
#include "core/simulator.h"
#include "util/bytes.h"

namespace xmem::alloc {
namespace {

using util::kMiB;

constexpr std::int64_t kUnbounded = std::int64_t{1} << 50;

/// Replay one stream through one backend built fresh from the registry.
ReplayReport replay_backend(const std::string& name,
                            const std::vector<StreamEvent>& events) {
  SimulatedCudaDriver driver(kUnbounded);
  const auto backend = make_backend(name, driver);
  return replay_with_invariants(*backend, events);
}

/// The drain-to-zero teardown invariant: once a stream has freed every
/// block, backend_trim() hands every driver reservation back — except on
/// the policies that never return memory (TF's regions, DNNMem's arena),
/// where trim must leave the footprint exactly as it was.
void expect_trim_drains_to_zero(const std::string& name,
                                fw::AllocatorBackend& backend,
                                const SimulatedCudaDriver& driver) {
  const std::int64_t reserved = backend.backend_stats().reserved_bytes;
  backend.backend_trim();
  if (name == "tf-bfc" || name == "basic-bfc") {
    EXPECT_EQ(backend.backend_stats().reserved_bytes, reserved) << name;
  } else {
    EXPECT_EQ(driver.num_live_reservations(), 0u) << name;
    EXPECT_EQ(driver.stats().used_bytes, 0) << name;
    EXPECT_EQ(backend.backend_stats().reserved_bytes, 0) << name;
    EXPECT_EQ(backend.backend_stats().num_segments, 0) << name;
  }
}

// ---------- the event-stream generator itself ----------

TEST(EventStream, FixedSeedIsByteIdentical) {
  EventStreamConfig config;
  config.seed = 2024;
  config.num_events = 4000;
  const auto a = generate_event_stream(config);
  const auto b = generate_event_stream(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ts, b[i].ts);
    EXPECT_EQ(a[i].block_id, b[i].block_id);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].is_alloc, b[i].is_alloc);
    EXPECT_EQ(a[i].stream, b[i].stream);
  }
  EXPECT_EQ(stream_fingerprint(a), stream_fingerprint(b));
  config.seed = 2025;
  EXPECT_NE(stream_fingerprint(generate_event_stream(config)),
            stream_fingerprint(a));
}

TEST(EventStream, IsWellFormed) {
  EventStreamConfig config;
  config.seed = 7;
  config.num_events = 3000;
  config.num_streams = 4;
  const auto events = generate_event_stream(config);
  // Every free names a live block of its own stream; the drain empties all.
  std::unordered_map<std::int64_t, int> live_stream;
  std::int64_t last_ts = -1;
  for (const StreamEvent& e : events) {
    EXPECT_GT(e.ts, last_ts);
    last_ts = e.ts;
    EXPECT_GT(e.bytes, 0);
    if (e.is_alloc) {
      EXPECT_EQ(live_stream.count(e.block_id), 0u) << "duplicate block id";
      live_stream[e.block_id] = e.stream;
    } else {
      ASSERT_EQ(live_stream.count(e.block_id), 1u) << "free of dead block";
      EXPECT_EQ(live_stream[e.block_id], e.stream);
      live_stream.erase(e.block_id);
    }
  }
  EXPECT_TRUE(live_stream.empty()) << "drain_at_end left live blocks";
}

TEST(EventStream, DumpRendersHeaderAndEvents) {
  EventStreamConfig config;
  config.num_events = 10;
  const auto events = generate_event_stream(config);
  const std::string dump = dump_stream(events, 4);
  EXPECT_NE(dump.find("fingerprint"), std::string::npos);
  EXPECT_NE(dump.find("alloc"), std::string::npos);
  EXPECT_NE(dump.find("more events"), std::string::npos);
}

// ---------- differential parity across all registered backends ----------

TEST(AllocatorParity, TenThousandEventStreamHoldsInvariantsEverywhere) {
  EventStreamConfig config;  // defaults: 10k events, 2 streams
  config.seed = 42;
  const auto events = generate_event_stream(config);
  ASSERT_GE(events.size(), 10000u);

  std::map<std::string, ReplayReport> reports;
  for (const std::string& name : backend_names()) {
    SimulatedCudaDriver driver(kUnbounded);
    const auto backend = make_backend(name, driver);
    const ReplayReport report = replay_with_invariants(*backend, events);
    EXPECT_TRUE(report.ok) << name << " violated '" << report.violation
                           << "' at event " << report.event_index << "\n"
                           << dump_stream(events, 16);
    // The stream drains at the end: everything must come back.
    EXPECT_EQ(report.final_stats.active_bytes, 0) << name;
    EXPECT_EQ(report.final_stats.num_live_blocks, 0) << name;
    EXPECT_EQ(report.final_stats.num_allocs, report.final_stats.num_frees)
        << name;
    expect_trim_drains_to_zero(name, *backend, driver);
    // No policy can reserve less than the exact live bytes at their peak.
    EXPECT_GE(report.peak_reserved, report.peak_live_bytes) << name;
    reports[name] = report;
  }

  // Pairwise divergence bound: the policies differ (20 MiB buckets vs
  // doubling regions vs bare best-fit) but on a realistic mixed stream
  // their reserved peaks stay within a small constant factor. A backend
  // escaping this band is how an accuracy regression first shows up.
  std::int64_t min_peak = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_peak = 0;
  for (const auto& [name, report] : reports) {
    min_peak = std::min(min_peak, report.peak_reserved);
    max_peak = std::max(max_peak, report.peak_reserved);
  }
  ASSERT_GT(min_peak, 0);
  EXPECT_LE(static_cast<double>(max_peak) / static_cast<double>(min_peak),
            2.0)
      << "peak divergence across backends: min " << min_peak << ", max "
      << max_peak;
}

TEST(AllocatorParity, HoldsAcrossSeedsAndStreamMixes) {
  for (const std::uint64_t seed : {1ULL, 99ULL, 123456ULL}) {
    EventStreamConfig config;
    config.seed = seed;
    config.num_events = 2000;
    config.num_streams = static_cast<int>(1 + seed % 4);
    config.alloc_bias = 0.5 + 0.01 * static_cast<double>(seed % 10);
    const auto events = generate_event_stream(config);
    for (const std::string& name : backend_names()) {
      SimulatedCudaDriver driver(kUnbounded);
      const auto backend = make_backend(name, driver);
      const ReplayReport report = replay_with_invariants(*backend, events);
      EXPECT_TRUE(report.ok)
          << name << " seed " << seed << ": " << report.violation
          << " at event " << report.event_index;
      EXPECT_EQ(report.final_stats.active_bytes, 0) << name;
      expect_trim_drains_to_zero(name, *backend, driver);
    }
  }
}

TEST(AllocatorParity, SimulatorReplayMatchesDirectBackendReplay) {
  // The same stream through MemorySimulator (selected by registry name)
  // must report exactly the peaks the direct interface replay saw.
  EventStreamConfig config;
  config.seed = 271828;
  config.num_events = 2000;
  const auto events = generate_event_stream(config);
  core::OrchestratedSequence sequence;
  for (const StreamEvent& e : events) {
    sequence.events.push_back(
        core::OrchestratedEvent{e.ts, e.block_id, e.bytes, e.is_alloc});
  }
  for (const std::string& name : backend_names()) {
    const ReplayReport direct = replay_backend(name, events);
    core::SimulationOptions options;
    options.backend = name;
    const core::SimulationResult sim =
        core::MemorySimulator().replay(sequence, options);
    EXPECT_FALSE(sim.oom) << name;
    EXPECT_EQ(sim.peak_reserved, direct.final_stats.peak_reserved_bytes)
        << name;
    EXPECT_EQ(sim.peak_allocated, direct.final_stats.peak_active_bytes)
        << name;
  }
}

// ---------- pinned per-event replay digests ----------
//
// The differential suites above compare backends with each other and with
// themselves; these digests compare each backend with its own recorded
// behaviour. Every alloc outcome (oom, handle, charged bytes), every
// per-event BackendStats snapshot plus the driver's used bytes, and the
// post-trim footprint are folded into one FNV-1a digest per configuration,
// so any refactor of an allocator's internals that moves a single byte or
// handle fails here. Driver OOM-probe counts are deliberately left out:
// they describe how a backend searches for memory, not what it hands out.

class ReplayDigest {
 public:
  void add(std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= bits & 0xffU;
      hash_ *= 0x100000001b3ULL;
      bits >>= 8;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Replay `events` tolerating OOM (frees of blocks that never got memory
/// are skipped), folding every observable into `digest`. Returns the
/// number of allocations that hit OOM.
std::int64_t digest_replay(fw::AllocatorBackend& backend,
                   const SimulatedCudaDriver& driver,
                   const std::vector<StreamEvent>& events,
                   ReplayDigest& digest) {
  std::unordered_map<std::int64_t, std::int64_t> handles;
  std::int64_t ooms = 0;
  for (const StreamEvent& event : events) {
    if (event.is_alloc) {
      const fw::BackendAllocResult result = backend.backend_alloc(event.bytes);
      ooms += result.oom ? 1 : 0;
      digest.add(result.oom ? 1 : 0);
      digest.add(result.id);
      digest.add(result.charged_bytes);
      if (!result.oom) handles[event.block_id] = result.id;
    } else if (auto it = handles.find(event.block_id); it != handles.end()) {
      backend.backend_free(it->second);
      handles.erase(it);
    }
    const fw::BackendStats s = backend.backend_stats();
    for (const std::int64_t field :
         {s.active_bytes, s.peak_active_bytes, s.reserved_bytes,
          s.peak_reserved_bytes, s.num_allocs, s.num_frees, s.num_segments,
          s.num_live_blocks, driver.stats().used_bytes}) {
      digest.add(field);
    }
  }
  backend.backend_trim();
  digest.add(backend.backend_stats().reserved_bytes);
  digest.add(backend.backend_stats().num_segments);
  digest.add(static_cast<std::int64_t>(driver.num_live_reservations()));
  return ooms;
}

TEST(ReplayDigests, EveryBackendAndKnobSettingReplaysItsPinnedBytes) {
  struct Pin {
    std::string backend;
    BackendKnobs knobs;
    std::uint64_t digest;
  };
  const std::vector<Pin> pins = {
      {"basic-bfc", {}, 0x16b000818e07d755ULL},
      {"cub-binned", {}, 0xdf77579621b49b8dULL},
      {"pytorch", {}, 0xb8f25e89eba609ddULL},
      {"pytorch-expandable", {}, 0xf89d229336291959ULL},
      {"stream-pool", {}, 0xee0a07dffa779a91ULL},
      {"tf-bfc", {}, 0x290f588705050551ULL},
      {"pytorch-expandable", {{"max_split_size_bytes", 8 * kMiB}},
       0x8e9e2b051eee6471ULL},
      {"pytorch-expandable", {{"page_bytes", 20 * kMiB}},
       0x56cbc39b610e6dddULL},
      {"stream-pool",
       {{"release_threshold_bytes", 0}, {"chunk_bytes", 8 * kMiB}},
       0xf27277d987d1b149ULL},
      {"stream-pool",
       {{"release_threshold_bytes", 64 * kMiB}, {"chunk_bytes", 4 * kMiB}},
       0xb73bd518cd0df0a5ULL},
      {"cub-binned", {{"max_cached_bytes", 50000000}},
       0xb9d355a6d64547b1ULL},
  };
  // Every registry backend is pinned at its defaults.
  for (const std::string& name : backend_names()) {
    EXPECT_TRUE(std::any_of(pins.begin(), pins.end(), [&](const Pin& pin) {
      return pin.backend == name && pin.knobs.empty();
    })) << name << " has no pinned digest";
  }
  std::vector<std::vector<StreamEvent>> streams;
  for (const std::uint64_t seed : {5ULL, 17ULL, 2024ULL, 90210ULL}) {
    EventStreamConfig config;
    config.seed = seed;
    config.num_events = 5000;
    streams.push_back(generate_event_stream(config));
  }
  std::int64_t bounded_ooms = 0;
  for (const Pin& pin : pins) {
    ReplayDigest digest;
    // Unbounded, and at a capacity the streams' live peaks overrun.
    for (const std::int64_t capacity : {kUnbounded, 600 * kMiB}) {
      for (const auto& events : streams) {
        SimulatedCudaDriver driver(capacity);
        const auto backend = make_backend(pin.backend, driver, pin.knobs);
        const std::int64_t ooms =
            digest_replay(*backend, driver, events, digest);
        if (capacity != kUnbounded) bounded_ooms += ooms;
        // Again through the reset tower: identical bytes, same digest input.
        backend->backend_reset();
        driver.reset();
        digest_replay(*backend, driver, events, digest);
      }
    }
    EXPECT_EQ(digest.value(), pin.digest)
        << pin.backend << " {" << knobs_fingerprint(pin.knobs) << "}: 0x"
        << std::hex << digest.value();
  }
  // The bounded leg must actually exercise the OOM paths.
  EXPECT_GT(bounded_ooms, 0);
}

// ---------- knob sweeps: documented monotonicity per backend ----------
//
// Each configurable backend documents how its knobs move the reserved /
// active peaks (docs/ALLOCATORS.md). These cases pin the *direction* of
// each knob on a fixed 10k-event stream, so a refactor that silently
// inverts a policy (e.g. a split cap that starts lowering fragmentation)
// fails loudly here rather than shifting estimation numbers downstream.

std::vector<StreamEvent> knob_sweep_stream() {
  EventStreamConfig config;
  config.seed = 777;
  config.num_events = 10000;
  config.num_streams = 2;
  return generate_event_stream(config);
}

/// Replay one stream through a registry backend built with explicit knobs.
ReplayReport replay_with_knobs(const std::string& name,
                               const BackendKnobs& knobs,
                               const std::vector<StreamEvent>& events) {
  SimulatedCudaDriver driver(kUnbounded);
  const auto backend = make_backend(name, driver, knobs);
  return replay_with_invariants(*backend, events);
}

TEST(KnobSweeps, ExpandableSplitCapNeverLowersPeakReserved) {
  // max_split_size_bytes only ever *forbids* splits that the unlimited
  // policy would have made, so any finite cap can fragment more — never
  // less — than cap 0 (unlimited, the upstream default).
  const auto events = knob_sweep_stream();
  const ReplayReport unlimited =
      replay_with_knobs("pytorch-expandable", {}, events);
  ASSERT_TRUE(unlimited.ok) << unlimited.violation;
  for (const std::int64_t cap : {64 * kMiB, 16 * kMiB, 4 * kMiB}) {
    const ReplayReport capped = replay_with_knobs(
        "pytorch-expandable", {{"max_split_size_bytes", cap}}, events);
    ASSERT_TRUE(capped.ok) << "cap " << cap << ": " << capped.violation;
    EXPECT_GE(capped.peak_reserved, unlimited.peak_reserved)
        << "split cap " << cap << " reserved less than unlimited splitting";
    // A free block over the cap is handed out whole (splitting it is
    // forbidden), so the caller is charged more, never less.
    EXPECT_GE(capped.final_stats.peak_active_bytes,
              unlimited.final_stats.peak_active_bytes);
  }
}

TEST(KnobSweeps, CubCacheBoundTradesDriverTrafficForReservedPeak) {
  // Caching holds freed blocks reserved, so the reserved peak with a cache
  // dominates the uncached run — and in exchange saves driver mallocs.
  const auto events = knob_sweep_stream();
  std::int64_t uncached_peak = 0;
  std::int64_t uncached_mallocs = 0;
  {
    SimulatedCudaDriver driver(kUnbounded);
    CubConfig config;
    config.max_cached_bytes = 0;  // caching disabled entirely
    CubBinnedAllocator backend(driver, config);
    const ReplayReport report = replay_with_invariants(backend, events);
    ASSERT_TRUE(report.ok) << report.violation;
    // With no cache every allocation is a fresh driver reservation.
    EXPECT_EQ(backend.num_driver_mallocs(), report.final_stats.num_allocs);
    EXPECT_EQ(backend.cached_bytes(), 0);
    uncached_peak = report.peak_reserved;
    uncached_mallocs = backend.num_driver_mallocs();
  }
  {
    SimulatedCudaDriver driver(kUnbounded);
    CubBinnedAllocator backend(driver, CubConfig{});  // 256 MiB cache
    const ReplayReport report = replay_with_invariants(backend, events);
    ASSERT_TRUE(report.ok) << report.violation;
    EXPECT_GE(report.peak_reserved, uncached_peak);
    EXPECT_LT(backend.num_driver_mallocs(), uncached_mallocs)
        << "a 256 MiB cache must absorb some driver traffic on 10k events";
    EXPECT_LE(backend.cached_bytes(), CubConfig{}.max_cached_bytes);
  }
}

TEST(KnobSweeps, CubFinerBinsChargeNoMoreThanCoarserBins) {
  // Every power of 4 is a power of 2, so pow-2 bins (growth=2) round every
  // request to at most what pow-4 bins (growth=4) charge — pointwise on
  // backend_round and therefore on the active peak of any shared stream.
  SimulatedCudaDriver driver(kUnbounded);
  const CubConfig pow2{/*bin_growth=*/2, /*min_bin=*/9, /*max_bin=*/25,
                       /*max_cached_bytes=*/0};
  const CubConfig pow4{/*bin_growth=*/4, /*min_bin=*/5, /*max_bin=*/13,
                       /*max_cached_bytes=*/0};
  CubBinnedAllocator fine(driver, pow2);
  CubBinnedAllocator coarse(driver, pow4);
  std::int64_t previous = 0;
  for (const std::int64_t bytes :
       {std::int64_t{1}, std::int64_t{512}, std::int64_t{513},
        std::int64_t{100000}, 3 * kMiB, 33 * kMiB, 65 * kMiB, 200 * kMiB}) {
    const std::int64_t rounded = fine.backend_round(bytes);
    EXPECT_GE(rounded, bytes);
    EXPECT_GE(rounded, previous) << "rounding must be monotone";
    EXPECT_LE(rounded, coarse.backend_round(bytes)) << bytes << " bytes";
    previous = rounded;
  }
  const auto events = knob_sweep_stream();
  SimulatedCudaDriver fine_driver(kUnbounded);
  SimulatedCudaDriver coarse_driver(kUnbounded);
  CubBinnedAllocator fine_replay(fine_driver, pow2);
  CubBinnedAllocator coarse_replay(coarse_driver, pow4);
  const ReplayReport fine_report = replay_with_invariants(fine_replay, events);
  const ReplayReport coarse_report =
      replay_with_invariants(coarse_replay, events);
  ASSERT_TRUE(fine_report.ok) << fine_report.violation;
  ASSERT_TRUE(coarse_report.ok) << coarse_report.violation;
  EXPECT_LE(fine_report.final_stats.peak_active_bytes,
            coarse_report.final_stats.peak_active_bytes);
}

TEST(KnobSweeps, StreamPoolReleaseThresholdBoundsRetainedIdleMemory) {
  // What release_threshold_bytes guarantees (and what it does not): the
  // peak reserved is NOT monotone in the threshold — eager release forces
  // re-growth with request-sized chunks that can overshoot what a retained
  // chunk would have served. The contract is about idle memory held once
  // the stream drains (every chunk wholly free), about whether threshold
  // trimming fires at all, and about the driver traffic the cache saves.
  const auto events = knob_sweep_stream();
  std::int64_t eager_mallocs = 0;
  for (const std::int64_t threshold :
       {std::int64_t{0}, 64 * kMiB, 512 * kMiB, kUnbounded}) {
    SimulatedCudaDriver driver(kUnbounded);
    StreamPoolConfig config;
    config.release_threshold_bytes = threshold;
    StreamPoolAllocator backend(driver, config);
    const ReplayReport report = replay_with_invariants(backend, events);
    ASSERT_TRUE(report.ok)
        << "threshold " << threshold << ": " << report.violation;
    // After the drain every chunk is wholly free, so trimming can always
    // get idle bytes under any finite bound.
    if (threshold != kUnbounded) {
      EXPECT_LE(report.final_stats.reserved_bytes, threshold)
          << "drained pool retained more idle memory than its threshold";
    }
    if (threshold == 0) {
      // CUDA's default: everything goes back at the first opportunity.
      EXPECT_EQ(report.final_stats.reserved_bytes, 0);
      EXPECT_GT(backend.num_threshold_releases(), 0)
          << "10k events with interleaved frees never freed a whole chunk";
      eager_mallocs = driver.stats().num_mallocs;
    }
    if (threshold == kUnbounded) {
      // Nothing is ever released: reserved only grows, so the final
      // footprint IS the peak, and an unbounded pool re-serves from cache
      // instead of going back to the driver.
      EXPECT_EQ(backend.num_threshold_releases(), 0);
      EXPECT_EQ(report.final_stats.reserved_bytes, report.peak_reserved);
      EXPECT_LT(driver.stats().num_mallocs, eager_mallocs)
          << "retaining chunks must cut driver traffic vs eager release";
    }
  }
}

// ---------- failure debuggability: shrinking to a reproducer ----------

/// A deliberately broken backend: the accounting bug every allocator
/// refactor is one typo away from — free forgets to return the bytes.
class LeakyCounterBackend final : public fw::AllocatorBackend {
 public:
  std::string_view backend_name() const override { return "leaky"; }
  fw::BackendAllocResult backend_alloc(std::int64_t bytes) override {
    const std::int64_t id = next_id_++;
    live_[id] = bytes;
    active_ += bytes;
    peak_active_ = std::max(peak_active_, active_);
    ++num_allocs_;
    return fw::BackendAllocResult{id, bytes, false};
  }
  void backend_free(std::int64_t id) override {
    if (live_.erase(id) == 0) throw std::logic_error("leaky: unknown id");
    ++num_frees_;
    // BUG: active_ is never decremented.
  }
  fw::BackendStats backend_stats() const override {
    fw::BackendStats s;
    s.active_bytes = active_;
    s.peak_active_bytes = peak_active_;
    s.reserved_bytes = active_;
    s.peak_reserved_bytes = peak_active_;
    s.num_allocs = num_allocs_;
    s.num_frees = num_frees_;
    s.num_segments = 0;
    s.num_live_blocks = static_cast<std::int64_t>(live_.size());
    return s;
  }
  std::int64_t backend_round(std::int64_t bytes) const override {
    return bytes;
  }
  void backend_reset() override {
    live_.clear();
    next_id_ = 1;
    active_ = 0;
    peak_active_ = 0;
    num_allocs_ = 0;
    num_frees_ = 0;
  }

 private:
  std::int64_t next_id_ = 1;
  std::int64_t active_ = 0;
  std::int64_t peak_active_ = 0;
  std::int64_t num_allocs_ = 0;
  std::int64_t num_frees_ = 0;
  std::unordered_map<std::int64_t, std::int64_t> live_;
};

TEST(AllocatorParity, ShrinksFailingStreamToSmallReproducer) {
  EventStreamConfig config;
  config.seed = 31337;
  config.num_events = 5000;
  const auto events = generate_event_stream(config);

  const auto still_fails = [](const std::vector<StreamEvent>& candidate) {
    LeakyCounterBackend backend;  // fresh instance per attempt
    return !replay_with_invariants(backend, candidate).ok;
  };
  ASSERT_TRUE(still_fails(events)) << "leaky backend must trip the harness";

  const auto reproducer = shrink_failing_stream(events, still_fails);
  ASSERT_FALSE(reproducer.empty());
  EXPECT_TRUE(still_fails(reproducer));
  // The conservation bug needs exactly one alloc + its free to surface.
  EXPECT_LE(reproducer.size(), 2u) << dump_stream(reproducer);
  // The dump a failing parity test attaches stays readable.
  EXPECT_NE(dump_stream(reproducer).find("fingerprint"), std::string::npos);
}

TEST(AllocatorParity, ShrinkReturnsEmptyForPassingStream) {
  EventStreamConfig config;
  config.num_events = 200;
  const auto events = generate_event_stream(config);
  const auto never_fails = [](const std::vector<StreamEvent>&) {
    return false;
  };
  EXPECT_TRUE(shrink_failing_stream(events, never_fails).empty());
}

}  // namespace
}  // namespace xmem::alloc
