#include "core/xmem_estimator.h"

namespace xmem::core {

ProfileKey XMemEstimator::profile_key(const TrainJob& job,
                                      const XMemOptions& options) {
  ProfileKey key;
  key.model_name = job.model_name;
  key.batch_size = job.batch_size;
  key.optimizer = job.optimizer;
  key.placement = job.placement;
  key.seed = job.seed;
  key.profile_iterations = options.profile_iterations;
  key.orchestrator_config = options.orchestrator_config;
  if (!options.orchestrate) {
    key.orchestrator_config.rule_params = false;
    key.orchestrator_config.rule_batch = false;
    key.orchestrator_config.rule_gradients = false;
    key.orchestrator_config.rule_optimizer_state = false;
  }
  return key;
}

XMemEstimator::PipelineArtifacts XMemEstimator::run_pipeline(
    const TrainJob& job, bool record_series) const {
  const ProfileSession::Lookup lookup = session_->get(profile_key(job));

  PipelineArtifacts artifacts;
  artifacts.trace = lookup.artifacts->trace;
  artifacts.analysis = lookup.artifacts->analysis;
  artifacts.orchestration = lookup.artifacts->orchestration;

  MemorySimulator simulator;
  SimulationOptions sim_options;
  sim_options.backend = options_.allocator_backend;
  sim_options.record_series = record_series;
  artifacts.simulation =
      simulator.replay(artifacts.orchestration.sequence, sim_options);
  return artifacts;
}

EstimateResult XMemEstimator::compute(const TrainJob& job,
                                      const gpu::DeviceModel& device) {
  const ProfileSession::Lookup lookup = session_->get(profile_key(job));

  MemorySimulator simulator;
  SimulationOptions sim_options;
  sim_options.backend = options_.allocator_backend;
  const SimulationResult simulation =
      simulator.replay(lookup.artifacts->orchestration.sequence, sim_options);

  EstimateResult result;
  // Predict what NVML will see: driver pages, not raw segment bytes.
  result.estimated_peak = simulation.peak_device;
  result.oom_predicted = result.estimated_peak > device.job_budget();
  return result;
}

}  // namespace xmem::core
