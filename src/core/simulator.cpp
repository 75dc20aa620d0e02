#include "core/simulator.h"

#include <algorithm>
#include <stdexcept>

namespace xmem::core {

std::string replay_tower_key(const SimulationOptions& options) {
  std::string key = options.backend;
  key += '|';
  key += alloc::knobs_fingerprint(options.backend_knobs);
  key += '|';
  key += std::to_string(options.capacity);
  return key;
}

SimulationResult MemorySimulator::replay(const OrchestratedSequence& sequence,
                                         const SimulationOptions& options,
                                         ReplayScratch* scratch) const {
  // Block ids index the live-handle table; every producer numbers them
  // densely from 0 or 1, so the largest id sizes it.
  std::int64_t max_id = -1;
  for (const OrchestratedEvent& event : sequence.events) {
    if (event.block_id < 0) {
      throw std::invalid_argument("replay: negative block id " +
                                  std::to_string(event.block_id));
    }
    max_id = std::max(max_id, event.block_id);
  }
  SimulationResult result;
  ReplayScratch local;
  ReplayScratch& workspace = scratch != nullptr ? *scratch : local;
  // Reset-instead-of-rebuild: when the scratch already holds a tower for
  // this exact (backend, knobs, capacity), reset it back to its
  // post-construction state — byte-identical to a fresh build per the
  // backend_reset() contract, but without re-growing segment maps and block
  // pools. Anything else (first use, different config) builds fresh.
  std::string tower_key = replay_tower_key(options);
  if (workspace.backend != nullptr && workspace.tower_key == tower_key) {
    workspace.backend->backend_reset();
    workspace.driver->reset();
  } else {
    workspace.backend.reset();  // must die before the driver it borrows
    workspace.driver =
        std::make_unique<alloc::SimulatedCudaDriver>(options.capacity);
    workspace.backend = alloc::make_backend(options.backend, *workspace.driver,
                                            options.backend_knobs);
    workspace.tower_key = std::move(tower_key);
  }
  alloc::SimulatedCudaDriver& driver = *workspace.driver;
  fw::AllocatorBackend* const allocator = workspace.backend.get();
  std::vector<std::int64_t>& live = workspace.live;
  live.assign(static_cast<std::size_t>(max_id) + 1, ReplayScratch::kNotLive);

  for (const OrchestratedEvent& event : sequence.events) {
    std::int64_t& handle = live[static_cast<std::size_t>(event.block_id)];
    if (event.is_alloc) {
      const fw::BackendAllocResult outcome =
          allocator->backend_alloc(event.bytes);
      if (outcome.oom) {
        // Every allocator level failed (for the PyTorch model: even after
        // reclaiming cached segments): the simulated job dies here, exactly
        // like the real one would.
        result.oom = true;
        break;
      }
      handle = outcome.id;
    } else {
      if (handle == ReplayScratch::kNotLive) continue;  // nothing live to free
      allocator->backend_free(handle);
      handle = ReplayScratch::kNotLive;
    }
    if (options.record_series) {
      const fw::BackendStats s = allocator->backend_stats();
      result.reserved_series.emplace_back(event.ts, s.reserved_bytes);
      result.allocated_series.emplace_back(event.ts, s.active_bytes);
    }
  }

  if (result.oom && options.capacity == SimulationOptions::kUnboundedCapacity) {
    // The "unbounded" replay is bounded after all: a peak cut off at the
    // ceiling is no estimate, so fail instead of reporting it.
    throw std::invalid_argument(
        "replay: the job needs more than the " +
        std::to_string(SimulationOptions::kUnboundedCapacity) +
        "-byte replay capacity (2^50); its peak cannot be estimated");
  }
  result.backend_stats = allocator->backend_stats();
  result.peak_reserved = result.backend_stats.peak_reserved_bytes;
  // Driverless backends (basic-bfc's unbounded arena) never touch the
  // device model; their reserved peak doubles as the device-level peak.
  result.peak_device = driver.stats().num_mallocs > 0
                           ? driver.stats().peak_used_bytes
                           : result.peak_reserved;
  result.peak_allocated = result.backend_stats.peak_active_bytes;
  if (const auto* caching =
          dynamic_cast<const alloc::CachingAllocatorSim*>(allocator)) {
    result.stats = caching->stats();
  }
  return result;
}

std::int64_t MemorySimulator::replay_peak_memoized(
    const OrchestratedSequence& sequence, const std::uint64_t fingerprint,
    const SimulationOptions& options, ReplayScratch& scratch,
    bool* cache_hit) const {
  const std::string tower_key = replay_tower_key(options);
  for (const ReplayScratch::CachedReplay& entry : scratch.results) {
    if (entry.fingerprint != fingerprint || entry.tower_key != tower_key) {
      continue;
    }
    // Collision guard: the fingerprint proposes, the event vector decides.
    if (entry.events != sequence.events) continue;
    if (cache_hit != nullptr) *cache_hit = true;
    return entry.peak_device;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  const std::int64_t peak = replay(sequence, options, &scratch).peak_device;
  ReplayScratch::CachedReplay record;
  record.fingerprint = fingerprint;
  record.tower_key = tower_key;
  record.events = sequence.events;
  record.peak_device = peak;
  if (scratch.results.size() < ReplayScratch::kResultCacheCapacity) {
    scratch.results.push_back(std::move(record));
  } else {
    // FIFO replacement: refine loops touch each sequence in bursts, so the
    // oldest entry is the least likely to be asked for again.
    scratch.results[scratch.next_result_slot] = std::move(record);
    scratch.next_result_slot =
        (scratch.next_result_slot + 1) % ReplayScratch::kResultCacheCapacity;
  }
  return peak;
}

}  // namespace xmem::core
