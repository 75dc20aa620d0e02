// The estimators, by name: a fixed, name-sorted table (like
// alloc/backend_registry.h). The EstimationService, the request validator
// and xmem_cli resolve estimator names ("xMem", "DNNMem", ...) through it;
// a new estimator is one row in estimator_registry.cpp.
//
// "xMem" and "xMem-noOrch" are session-backed: the EstimationService
// answers them itself with a ProfileSession lookup and one simulator
// replay (Figure 4), so they have no Estimator class. The three baselines
// are core::Estimator implementations built by make_estimator().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/estimator_api.h"

namespace xmem::core {

bool is_known_estimator(const std::string& name);

/// Whether the service answers this estimator through the ProfileSession
/// path (false for unknown names).
bool estimator_uses_session(const std::string& name);

/// Orchestrator rules on/off for session-backed engines (true otherwise).
bool estimator_orchestrates(const std::string& name);

/// The estimator names, sorted.
std::vector<std::string> estimator_names();

std::string estimator_description(const std::string& name);

/// Construct a baseline estimator by name. Throws std::invalid_argument
/// listing the estimators when `name` is unknown, and for the
/// session-backed engines, which the EstimationService answers itself.
std::unique_ptr<Estimator> make_estimator(const std::string& name);

}  // namespace xmem::core
