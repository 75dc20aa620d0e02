#include "alloc/backend_registry.h"

#include <initializer_list>
#include <stdexcept>

#include "alloc/caching_allocator.h"
#include "alloc/cub_allocator.h"
#include "alloc/expandable_allocator.h"
#include "alloc/stream_pool_allocator.h"
#include "alloc/tf_bfc_allocator.h"
#include "baselines/basic_bfc.h"
#include "util/json.h"
#include "util/name_table.h"

namespace xmem::alloc {

namespace {

/// Reject knob names the backend does not accept; the message lists what it
/// does accept (or says "takes no knobs") so a typo in a JSON config fails
/// with a fix, not a silently ignored setting.
void check_knob_names(const std::string& backend, const BackendKnobs& knobs,
                      std::initializer_list<const char*> accepted) {
  for (const auto& [name, value] : knobs) {
    bool known = false;
    for (const char* a : accepted) {
      if (name == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string list;
      for (const char* a : accepted) {
        if (!list.empty()) list += ", ";
        list += a;
      }
      throw std::invalid_argument(
          "backend '" + backend + "' does not accept knob '" + name + "' (" +
          (list.empty() ? "takes no knobs" : "accepted: " + list) + ")");
    }
  }
}

std::int64_t knob_or(const BackendKnobs& knobs, const char* name,
                     std::int64_t fallback) {
  const auto it = knobs.find(name);
  return it == knobs.end() ? fallback : it->second;
}

using Factory = std::unique_ptr<fw::AllocatorBackend> (*)(SimulatedCudaDriver&,
                                                     const BackendKnobs&);

/// The backends, sorted by name: backend_names() and the unknown-name
/// message list them in this order.
struct Entry {
  const char* name;
  const char* description;
  Factory make;
};

constexpr Entry kBackends[] = {
    {"basic-bfc",
     "DNNMem's single-level BFC over an unbounded arena: no driver, no "
     "caching policy, never OOMs",
     [](SimulatedCudaDriver&,
        const BackendKnobs& knobs) -> std::unique_ptr<fw::AllocatorBackend> {
       check_knob_names("basic-bfc", knobs, {});
       return std::make_unique<baselines::BasicBfcAllocator>();
     }},
    {"cub-binned",
     "CUB CachingDeviceAllocator-style geometric bins with a bounded "
     "block cache "
     "(knobs: bin_growth, min_bin, max_bin, max_cached_bytes)",
     [](SimulatedCudaDriver& driver,
        const BackendKnobs& knobs) -> std::unique_ptr<fw::AllocatorBackend> {
       check_knob_names("cub-binned", knobs,
                        {"bin_growth", "min_bin", "max_bin",
                         "max_cached_bytes"});
       CubConfig config;
       config.bin_growth = knob_or(knobs, "bin_growth", config.bin_growth);
       config.min_bin = knob_or(knobs, "min_bin", config.min_bin);
       config.max_bin = knob_or(knobs, "max_bin", config.max_bin);
       config.max_cached_bytes =
           knob_or(knobs, "max_cached_bytes", config.max_cached_bytes);
       return std::make_unique<CubBinnedAllocator>(driver, config);
     }},
    {"pytorch",
     "CUDACachingAllocator port: 512 B rounding, 2/20 MiB buffers, "
     "split/coalesce, cached-segment reclaim (paper §3.4)",
     [](SimulatedCudaDriver& driver,
        const BackendKnobs& knobs) -> std::unique_ptr<fw::AllocatorBackend> {
       check_knob_names("pytorch", knobs, {});
       return std::make_unique<CachingAllocatorSim>(driver);
     }},
    {"pytorch-expandable",
     "Caching allocator with expandable segments: page-granular segment "
     "growth, max_split_size splitting cap "
     "(knobs: page_bytes, max_split_size_bytes)",
     [](SimulatedCudaDriver& driver,
        const BackendKnobs& knobs) -> std::unique_ptr<fw::AllocatorBackend> {
       check_knob_names("pytorch-expandable", knobs,
                        {"page_bytes", "max_split_size_bytes"});
       ExpandableConfig config;
       config.page_bytes = knob_or(knobs, "page_bytes", config.page_bytes);
       config.max_split_size_bytes = knob_or(knobs, "max_split_size_bytes",
                                             config.max_split_size_bytes);
       return std::make_unique<ExpandableSegmentsAllocator>(driver, config);
     }},
    {"stream-pool",
     "cudaMallocAsync-style stream-ordered pool with release-threshold "
     "trimming (knobs: release_threshold_bytes, chunk_bytes)",
     [](SimulatedCudaDriver& driver,
        const BackendKnobs& knobs) -> std::unique_ptr<fw::AllocatorBackend> {
       check_knob_names("stream-pool", knobs,
                        {"release_threshold_bytes", "chunk_bytes"});
       StreamPoolConfig config;
       config.release_threshold_bytes = knob_or(
           knobs, "release_threshold_bytes", config.release_threshold_bytes);
       config.chunk_bytes = knob_or(knobs, "chunk_bytes", config.chunk_bytes);
       return std::make_unique<StreamPoolAllocator>(driver, config);
     }},
    {"tf-bfc",
     "TensorFlow-style BFC: 256 B rounding, doubling regions never "
     "returned to the device (§6.4(ii))",
     [](SimulatedCudaDriver& driver,
        const BackendKnobs& knobs) -> std::unique_ptr<fw::AllocatorBackend> {
       check_knob_names("tf-bfc", knobs, {});
       return std::make_unique<TfBfcAllocator>(driver);
     }},
};
static_assert(util::names_sorted(kBackends));

}  // namespace

bool is_known_backend(const std::string& name) {
  return util::find_name(kBackends, name) != nullptr;
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  for (const Entry& entry : kBackends) names.emplace_back(entry.name);
  return names;
}

std::string backend_description(const std::string& name) {
  const Entry* entry = util::find_name(kBackends, name);
  return entry != nullptr ? entry->description : std::string();
}

std::unique_ptr<fw::AllocatorBackend> make_backend(const std::string& name,
                                                   SimulatedCudaDriver& driver,
                                                   const BackendKnobs& knobs) {
  const Entry* entry = util::find_name(kBackends, name);
  if (entry == nullptr) {
    throw std::invalid_argument("make_backend: unknown backend '" + name +
                                "' (registered: " +
                                util::joined_names(kBackends) + ")");
  }
  return entry->make(driver, knobs);
}

std::unique_ptr<fw::AllocatorBackend> make_backend(
    const std::string& name, SimulatedCudaDriver& driver) {
  return make_backend(name, driver, BackendKnobs{});
}

std::string knobs_fingerprint(const BackendKnobs& knobs) {
  std::string fingerprint;
  for (const auto& [name, value] : knobs) {  // map order: deterministic
    if (!fingerprint.empty()) fingerprint += ",";
    fingerprint += name + "=" + std::to_string(value);
  }
  return fingerprint;
}

BackendKnobs parse_backend_knobs(const util::Json& json,
                                 const std::string& context) {
  if (!json.is_object()) {
    throw std::invalid_argument(context +
                                ": backend knobs must be a JSON object of "
                                "integer values");
  }
  BackendKnobs knobs;
  for (const auto& [name, value] : json.as_object()) {
    if (!value.is_int()) {
      throw std::invalid_argument(
          context + ": knob '" + name +
          "' must be an integer (byte/count knobs only — no strings or "
          "fractions)");
    }
    knobs[name] = value.as_int();
  }
  return knobs;
}

}  // namespace xmem::alloc
