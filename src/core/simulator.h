// xMem Memory Simulator (paper §3.4).
//
// Replays an orchestrated memory-event sequence through the same two-level
// allocator tower the ground truth runs on (by default CachingAllocatorSim
// over SimulatedCudaDriver), reproducing round-up, segment sizing, BFC
// split/coalesce, caching, reclaim-then-retry, and the two-level OOM
// condition. The peak of the reserved-bytes series is the estimate.
//
// The framework allocator is selected by registry name (§6.4: the
// pluggable-architecture point — the BFC core generalizes, the policies
// around it must not be genericized away). Any backend registered in
// alloc/backend_registry.h can be replayed against.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc/backend_registry.h"
#include "alloc/caching_allocator.h"
#include "alloc/cuda_driver_sim.h"
#include "core/orchestrator.h"

namespace xmem::core {

struct SimulationOptions {
  /// Device capacity for the replay. The default (effectively unbounded)
  /// yields the unconstrained peak used as the estimate, and a replay that
  /// runs out of it throws ReplayCeilingError; passing a real budget
  /// turns the replay into an OOM predictor with full reclamation
  /// semantics.
  std::int64_t capacity = kUnboundedCapacity;
  bool record_series = false;
  /// Registry name of the framework allocator to replay against.
  std::string backend = alloc::kDefaultBackendName;
  /// Policy knobs for the backend (empty = its documented defaults); see
  /// alloc/backend_registry.h for the per-backend knob tables.
  alloc::BackendKnobs backend_knobs;

  static constexpr std::int64_t kUnboundedCapacity = std::int64_t{1} << 50;
};

/// What a replay at SimulationOptions::kUnboundedCapacity throws when it
/// runs out: the job has no estimate at all, which a caller packing many
/// jobs can tell apart from a malformed request.
class ReplayCeilingError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

struct SimulationResult {
  std::int64_t peak_reserved = 0;   ///< segment-level peak
  /// Driver-page-granular peak — what NVML would report for this replay and
  /// therefore the quantity the estimate is compared against.
  std::int64_t peak_device = 0;
  std::int64_t peak_allocated = 0;  ///< tensor-level peak
  bool oom = false;  ///< both allocator levels failed (capacity-bound replays)
  /// Backend-agnostic counters from the replayed allocator.
  fw::BackendStats backend_stats;
  /// Full PyTorch-port counters; populated only for the "pytorch" backend
  /// (zero-initialized otherwise).
  alloc::CachingAllocatorStats stats;
  std::vector<std::pair<util::TimeUs, std::int64_t>> reserved_series;
  std::vector<std::pair<util::TimeUs, std::int64_t>> allocated_series;
};

/// Reusable replay state for hot loops that replay many sequences back to
/// back (the planner's per-rank refine pass):
///
///   * the live-handle table (block id -> backend handle, kNotLive when the
///     block is not live) keeps its capacity across replays. Block ids are
///     dense (the analyzer numbers blocks from 1, the rank transform's
///     injected buffers follow), so each replay sizes it from the
///     sequence's largest id; a negative id throws std::invalid_argument;
///   * the driver + backend tower is kept and *reset* between replays
///     (backend_reset() / SimulatedCudaDriver::reset()) instead of being
///     rebuilt, so segment maps, block-node pools, and free-set storage
///     survive. The reset contract (fw/backend.h) makes a reset tower
///     byte-identical to a fresh one, which keeps replays
///     order-independent; tests/backend_reset_test.cpp enforces it per
///     backend.
///
/// The tower is only reused when the (backend, knobs, capacity) triple
/// matches the previous replay — a mismatch rebuilds it transparently.
///
/// The scratch also carries a bounded FIFO of finished replay verdicts
/// keyed on (sequence fingerprint, backend, knobs, capacity) — the
/// cross-candidate memoization of the planner's refine pass. Every lookup
/// is guarded by a full event-vector compare, so a fingerprint collision
/// costs one fresh replay instead of producing a wrong peak; and since a
/// hit returns exactly what the replay would have computed (the
/// backend_reset() contract makes replays order-independent), reports stay
/// byte-identical whether the cache hits or not.
struct ReplayScratch {
  static constexpr std::int64_t kNotLive = -1;
  std::vector<std::int64_t> live;
  std::unique_ptr<alloc::SimulatedCudaDriver> driver;
  std::unique_ptr<fw::AllocatorBackend> backend;
  std::string tower_key;  ///< backend|knobs|capacity of the held tower

  struct CachedReplay {
    std::uint64_t fingerprint = 0;
    std::string tower_key;
    std::vector<OrchestratedEvent> events;  ///< collision guard
    std::int64_t peak_device = 0;
  };
  /// FIFO ring of finished verdicts; 32 entries covers every stage of a
  /// refine-all search's in-flight candidates without holding more than a
  /// few MB of guard events per worker thread.
  static constexpr std::size_t kResultCacheCapacity = 32;
  std::vector<CachedReplay> results;
  std::size_t next_result_slot = 0;
};

/// Compose the (backend, knobs, capacity) scratch/tower cache key.
std::string replay_tower_key(const SimulationOptions& options);

class MemorySimulator {
 public:
  /// Throws std::invalid_argument when an event carries a negative block id,
  /// and ReplayCeilingError when a replay at kUnboundedCapacity runs out of
  /// memory.
  SimulationResult replay(const OrchestratedSequence& sequence,
                          const SimulationOptions& options = {},
                          ReplayScratch* scratch = nullptr) const;

  /// Memoized peak_device of `replay(sequence, options)`: hit the scratch's
  /// bounded result cache on (fingerprint, backend, knobs, capacity) —
  /// verified by full event compare — or replay and record. `cache_hit`
  /// (optional) reports which path ran; the returned peak is identical
  /// either way.
  std::int64_t replay_peak_memoized(const OrchestratedSequence& sequence,
                                    std::uint64_t fingerprint,
                                    const SimulationOptions& options,
                                    ReplayScratch& scratch,
                                    bool* cache_hit = nullptr) const;
};

}  // namespace xmem::core
