// Allocator-backend registry: construct any fw::AllocatorBackend by name.
//
// The simulator, CLI, benches, and the parity harness all select backends
// through this factory. The set is a fixed, name-sorted table in
// backend_registry.cpp: a new allocator model becomes available everywhere
// by adding one row (name, description, factory; docs/ALLOCATORS.md walks
// through it). The backends:
//
//   pytorch            — CachingAllocatorSim, the CUDACachingAllocator
//                        port (§3.4)
//   pytorch-expandable — expandable-segments + max_split_size variant of
//                        the caching allocator
//   tf-bfc             — TfBfcAllocator, TF-style growing-region BFC
//                        (§6.4(ii))
//   basic-bfc          — BasicBfcAllocator, DNNMem's single-level BFC
//   cub-binned         — CUB CachingDeviceAllocator-style geometric bins
//   stream-pool        — cudaMallocAsync-style stream-ordered pool
//
// Backends with tunable policy take *knobs*: a flat name → integer map
// (JSON surface: `"allocator_config": {"<backend>": {"knob": value}}` on
// sweep/plan requests). Every factory validates its accepted knob set and
// value ranges, throwing std::invalid_argument with an actionable message;
// backends without knobs reject any non-empty map.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc/cuda_driver_sim.h"
#include "fw/backend.h"

namespace xmem::util {
class Json;
}

namespace xmem::alloc {

/// The backend the simulator replays against unless told otherwise.
inline constexpr const char* kDefaultBackendName = "pytorch";

/// Policy knobs for a backend: flat knob name → integer value. Empty means
/// the backend's documented defaults.
using BackendKnobs = std::map<std::string, std::int64_t>;

bool is_known_backend(const std::string& name);

/// The backend names in sorted order.
std::vector<std::string> backend_names();

/// One-line description for `xmem backends` and docs tooling.
std::string backend_description(const std::string& name);

/// Construct a backend by name over `driver` (driverless models, the
/// unbounded basic-bfc arena, ignore it). Throws std::invalid_argument on
/// unknown names (the message lists the backends) and on unknown or
/// out-of-range knobs (the message names the offending knob).
std::unique_ptr<fw::AllocatorBackend> make_backend(const std::string& name,
                                                   SimulatedCudaDriver& driver,
                                                   const BackendKnobs& knobs);
std::unique_ptr<fw::AllocatorBackend> make_backend(const std::string& name,
                                                   SimulatedCudaDriver& driver);

/// Canonical "knob=value,knob=value" string (empty for default knobs) —
/// the piece of a cache/scratch key that distinguishes configurations.
std::string knobs_fingerprint(const BackendKnobs& knobs);

/// Parse a JSON object of integer knob values. Throws std::invalid_argument
/// (naming the offending key) on non-object input or non-integer values.
BackendKnobs parse_backend_knobs(const util::Json& json,
                                 const std::string& context);

}  // namespace xmem::alloc
