#include "core/estimator_registry.h"

#include <stdexcept>

#include "baselines/dnnmem.h"
#include "baselines/llmem.h"
#include "baselines/schedtune.h"
#include "util/name_table.h"

namespace xmem::core {

namespace {

/// The estimators, sorted by name: estimator_names() and the unknown-name
/// message list them in this order.
struct Entry {
  const char* name;
  const char* description;
  /// Null for the session-backed engines.
  std::unique_ptr<Estimator> (*make)();
  /// Orchestrator rules for a session-backed engine.
  bool orchestrate;
};

template <typename Baseline>
std::unique_ptr<Estimator> make() {
  return std::make_unique<Baseline>();
}

constexpr Entry kEstimators[] = {
    {"DNNMem",
     "static-analysis baseline: computation-graph walk through a basic "
     "BFC allocator (§5.1 reimplementation)",
     make<baselines::DnnMemEstimator>, true},
    {"LLMem",
     "direct-GPU-measurement baseline: probe runs + linear "
     "extrapolation; CausalLM only (§5.3 reimplementation)",
     make<baselines::LLMemEstimator>, true},
    {"SchedTune",
     "data-driven baseline: boosted trees over model/hardware features, "
     "trained on pre-2021 history (§5.2 reimplementation)",
     make<baselines::SchedTuneEstimator>, true},
    {"xMem",
     "full dynamic-analysis pipeline: CPU profile -> Analyzer -> "
     "Orchestrator -> two-level simulator replay (Figure 4)",
     nullptr, true},
    {"xMem-noOrch",
     "ablation: raw CPU lifecycles straight into the simulator "
     "(Orchestrator rules off, §3.3)",
     nullptr, false},
};
static_assert(util::names_sorted(kEstimators));

}  // namespace

bool is_known_estimator(const std::string& name) {
  return util::find_name(kEstimators, name) != nullptr;
}

bool estimator_uses_session(const std::string& name) {
  const Entry* entry = util::find_name(kEstimators, name);
  return entry != nullptr && entry->make == nullptr;
}

bool estimator_orchestrates(const std::string& name) {
  const Entry* entry = util::find_name(kEstimators, name);
  return entry == nullptr || entry->orchestrate;
}

std::vector<std::string> estimator_names() {
  std::vector<std::string> names;
  for (const Entry& entry : kEstimators) names.emplace_back(entry.name);
  return names;
}

std::string estimator_description(const std::string& name) {
  const Entry* entry = util::find_name(kEstimators, name);
  return entry != nullptr ? entry->description : std::string();
}

std::unique_ptr<Estimator> make_estimator(const std::string& name) {
  const Entry* entry = util::find_name(kEstimators, name);
  if (entry == nullptr) {
    throw std::invalid_argument("make_estimator: unknown estimator '" + name +
                                "' (registered: " +
                                util::joined_names(kEstimators) + ")");
  }
  if (entry->make == nullptr) {
    throw std::invalid_argument("make_estimator: '" + name +
                                "' is answered by the EstimationService "
                                "(profile session + replay)");
  }
  return entry->make();
}

}  // namespace xmem::core
