// The xMem estimator: the full pipeline of Figure 4.
//
//   CPU profile (3 iterations)  ->  profiler trace  ->  Analyzer
//       ->  Memory Orchestrator  ->  two-level Memory Simulator
//       ->  estimated peak (+ optional memory curve)
//
// The profile runs in this process, so the Analyzer reads the trace in
// memory; the Chrome-trace JSON codec (trace/trace.h) is the file format
// for traces that cross a process, and reads back the same trace.
//
// Since the service-layer redesign this class is a thin adapter: the
// expensive prefix (profile -> analyze -> orchestrate) lives in a
// ProfileSession, shared with the EstimationService, and compute() is just
// a session lookup plus one simulator replay. Pass a shared session to let
// several estimators (or a service) reuse each other's profiles.
#pragma once

#include <memory>
#include <string>

#include "core/analyzer.h"
#include "core/estimator_api.h"
#include "core/orchestrator.h"
#include "core/profile_session.h"
#include "core/simulator.h"
#include "trace/trace.h"

namespace xmem::core {

struct XMemOptions {
  int profile_iterations = 3;
  /// Registry name of the allocator the simulator replays against
  /// (alloc/backend_registry.h; §6.4 framework generalization).
  std::string allocator_backend = alloc::kDefaultBackendName;
  /// Disable to ablate §3.3 (raw CPU lifecycles straight into the
  /// simulator) — the "Orchestrator off" rows of the ablation bench.
  bool orchestrate = true;
  OrchestratorConfig orchestrator_config;
};

class XMemEstimator final : public Estimator {
 public:
  explicit XMemEstimator(XMemOptions options = {},
                         std::shared_ptr<ProfileSession> session = nullptr)
      : options_(options),
        session_(session ? std::move(session)
                         : std::make_shared<ProfileSession>()) {}

  std::string name() const override {
    return options_.orchestrate ? "xMem" : "xMem-noOrch";
  }

  /// The session cache key for this estimator's view of `job`.
  ProfileKey profile_key(const TrainJob& job) const {
    return profile_key(job, options_);
  }
  /// The key an estimator built with `options` uses: every orchestrator
  /// rule off when `options.orchestrate` is false.
  static ProfileKey profile_key(const TrainJob& job,
                                const XMemOptions& options);

  ProfileSession& session() const { return *session_; }

  /// Full pipeline with intermediate artifacts exposed (tests, Fig. 6
  /// curves, the allocator-explorer example). Served from the session
  /// cache when the profile prefix is already resident.
  struct PipelineArtifacts {
    trace::Trace trace;
    Analyzer::Output analysis;
    Orchestrator::Output orchestration;
    SimulationResult simulation;
  };
  PipelineArtifacts run_pipeline(const TrainJob& job, bool record_series) const;

 protected:
  EstimateResult compute(const TrainJob& job,
                         const gpu::DeviceModel& device) override;

 private:
  XMemOptions options_;
  std::shared_ptr<ProfileSession> session_;
};

}  // namespace xmem::core
