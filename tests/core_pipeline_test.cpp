// End-to-end xMem pipeline tests: estimates against ground truth across the
// zoo, OOM prediction consistency, the orchestrator ablation, determinism,
// and pipeline internals (filtering, address reuse on real traces).
#include <gtest/gtest.h>

#include "core/profile_runner.h"
#include "core/sequence_transform.h"
#include "core/estimation_service.h"
#include "core/simulator.h"
#include "gpu/ground_truth.h"
#include "models/zoo.h"
#include "util/bytes.h"

namespace xmem::core {
namespace {

struct PipelineCase {
  const char* model;
  int batch;
  fw::OptimizerKind optimizer;
};

core::TrainJob make_job(const PipelineCase& c,
                        fw::ZeroGradPlacement placement =
                            fw::ZeroGradPlacement::kPos1IterStart) {
  TrainJob job;
  job.model_name = c.model;
  job.batch_size = c.batch;
  job.optimizer = c.optimizer;
  job.placement = placement;
  job.seed = 5;
  return job;
}

gpu::GroundTruthResult ground_truth(const TrainJob& job,
                                    const gpu::DeviceModel& device) {
  const fw::ModelDescriptor model =
      models::build_model(job.model_name, job.batch_size);
  gpu::GroundTruthRunner runner;
  gpu::GroundTruthOptions options;
  options.placement = job.placement;
  options.seed = job.seed;
  return runner.run(model, job.optimizer, device, options);
}

/// `estimator` ("xMem" or "xMem-noOrch") on `job`, through the service.
EstimateResult estimate_with(EstimationService& service, const TrainJob& job,
                             const gpu::DeviceModel& device,
                             const std::string& estimator = "xMem") {
  return service.estimate(estimator, job, device).to_result();
}

class PipelineAccuracy : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineAccuracy, EstimateWithinTolerance) {
  const TrainJob job = make_job(GetParam());
  const gpu::DeviceModel device = gpu::rtx3060();
  const gpu::GroundTruthResult truth = ground_truth(job, device);
  EstimationService service;
  const EstimateResult estimate = estimate_with(service, job, device);

  if (truth.oom) {
    EXPECT_TRUE(estimate.oom_predicted) << job.label();
    return;
  }
  const double error =
      std::abs(static_cast<double>(estimate.estimated_peak -
                                   truth.peak_job_bytes)) /
      static_cast<double>(truth.peak_job_bytes);
  EXPECT_LT(error, 0.15) << job.label() << ": estimate "
                         << util::format_bytes(estimate.estimated_peak)
                         << " vs truth "
                         << util::format_bytes(truth.peak_job_bytes);
  EXPECT_GT(estimate.runtime_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, PipelineAccuracy,
    ::testing::Values(
        PipelineCase{"VGG16", 300, fw::OptimizerKind::kSgd},
        PipelineCase{"ResNet101", 400, fw::OptimizerKind::kAdam},
        PipelineCase{"MobileNetV2", 500, fw::OptimizerKind::kRmsprop},
        PipelineCase{"MobileNetV3Small", 700, fw::OptimizerKind::kAdagrad},
        PipelineCase{"ConvNeXtTiny", 200, fw::OptimizerKind::kAdamW},
        PipelineCase{"ConvNeXtBase", 300, fw::OptimizerKind::kSgd},
        PipelineCase{"distilgpt2", 10, fw::OptimizerKind::kAdamW},
        PipelineCase{"gpt2", 10, fw::OptimizerKind::kSgd},
        PipelineCase{"T5-small", 10, fw::OptimizerKind::kAdafactor},
        PipelineCase{"opt-125m", 15, fw::OptimizerKind::kSgd},
        PipelineCase{"Qwen3-0.6B", 2, fw::OptimizerKind::kSgd},
        PipelineCase{"pythia-1b", 1, fw::OptimizerKind::kAdafactor}),
    [](const auto& param_info) {
      std::string name = std::string(param_info.param.model) + "_b" +
                         std::to_string(param_info.param.batch) + "_" +
                         to_string(param_info.param.optimizer);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Pipeline, ErrorsAreSmallAndTwoSidedBounded) {
  // xMem's reliability comes from errors staying within a few percent in
  // either direction: small underestimates are absorbed by the allocator's
  // cache reclamation in the capped rerun, and small overestimates waste
  // little memory. Assert both tails are tight across a mixed sample.
  const std::vector<PipelineCase> cases = {
      {"VGG19", 400, fw::OptimizerKind::kSgd},
      {"ResNet152", 300, fw::OptimizerKind::kAdamW},
      {"MnasNet", 600, fw::OptimizerKind::kAdam},
      {"distilgpt2", 15, fw::OptimizerKind::kSgd},
      {"gpt2", 5, fw::OptimizerKind::kAdafactor},
      {"t5-base", 5, fw::OptimizerKind::kSgd},
  };
  EstimationService service;
  double worst_under = 0.0;
  double sum_abs = 0.0;
  for (const auto& c : cases) {
    const TrainJob job = make_job(c);
    const gpu::GroundTruthResult truth = ground_truth(job, gpu::rtx3060());
    ASSERT_FALSE(truth.oom) << job.label();
    const EstimateResult estimate =
        estimate_with(service, job, gpu::rtx3060());
    const double signed_error =
        static_cast<double>(estimate.estimated_peak - truth.peak_job_bytes) /
        static_cast<double>(truth.peak_job_bytes);
    worst_under = std::min(worst_under, signed_error);
    sum_abs += std::abs(signed_error);
  }
  EXPECT_GT(worst_under, -0.06)
      << "underestimates beyond reclamation reach would inflate PEF";
  EXPECT_LT(sum_abs / static_cast<double>(cases.size()), 0.05);
}

TEST(Pipeline, OomPredictionMatchesBudgetComparison) {
  EstimationService service;
  const TrainJob job = make_job({"pythia-1b", 8, fw::OptimizerKind::kAdam});
  const EstimateResult on_3060 = estimate_with(service, job, gpu::rtx3060());
  EXPECT_TRUE(on_3060.oom_predicted);
  EXPECT_GT(on_3060.estimated_peak, gpu::rtx3060().job_budget());
  // The same estimate against a 40 GB device flips the prediction.
  const EstimateResult on_a100 =
      estimate_with(service, job, gpu::a100_40gb());
  EXPECT_FALSE(on_a100.oom_predicted);
  EXPECT_NEAR(static_cast<double>(on_3060.estimated_peak),
              static_cast<double>(on_a100.estimated_peak),
              static_cast<double>(on_a100.estimated_peak) * 0.02);
}

TEST(Pipeline, DeterministicEstimates) {
  // Two services: each profiles and replays on its own.
  EstimationService first;
  EstimationService second;
  const TrainJob job = make_job({"gpt2", 10, fw::OptimizerKind::kAdamW});
  const EstimateResult a = estimate_with(first, job, gpu::rtx3060());
  const EstimateResult b = estimate_with(second, job, gpu::rtx3060());
  EXPECT_EQ(a.estimated_peak, b.estimated_peak);
}

/// Field-for-field trace equality, naming the first difference.
::testing::AssertionResult same_trace(const trace::Trace& a,
                                      const trace::Trace& b) {
  if (a.model_name != b.model_name || a.optimizer_name != b.optimizer_name ||
      a.batch_size != b.batch_size || a.iterations != b.iterations ||
      a.backend != b.backend || a.schema_version != b.schema_version) {
    return ::testing::AssertionFailure() << "trace metadata differs";
  }
  if (a.events.size() != b.events.size()) {
    return ::testing::AssertionFailure()
           << a.events.size() << " events vs " << b.events.size();
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const trace::TraceEvent& x = a.events[i];
    const trace::TraceEvent& y = b.events[i];
    if (!(x.kind == y.kind && x.name == y.name && x.ts == y.ts &&
          x.dur == y.dur && x.id == y.id && x.parent_id == y.parent_id &&
          x.seq == y.seq && x.addr == y.addr && x.bytes == y.bytes &&
          x.total_allocated == y.total_allocated &&
          x.device_id == y.device_id)) {
      return ::testing::AssertionFailure()
             << "event " << i << " (" << trace::to_string(y.kind) << " "
             << y.name << ") differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Pipeline, EveryZooTraceSurvivesTheFileHandoff) {
  // The pipeline analyzes the profile in memory. A trace file carries the
  // same profile: for every zoo model, writing the trace and reading it
  // back gives the profile field for field, and the read-back trace
  // orchestrates to the same sequence. The pipeline's own sequence is the
  // in-memory one.
  for (const std::string& name : models::all_model_names()) {
    SCOPED_TRACE(name);
    ProfileKey key;
    key.model_name = name;
    key.batch_size = 2;
    key.optimizer = fw::OptimizerKind::kAdamW;
    key.seed = 5;
    ProfileOptions options;
    options.iterations = key.profile_iterations;
    options.placement = key.placement;
    options.seed = key.seed;
    const trace::Trace profiled = profile_on_cpu(
        models::build_model(key.model_name, key.batch_size), key.optimizer,
        options);
    const trace::Trace read_back =
        trace::Trace::from_json_string(profiled.to_json_string());
    ASSERT_TRUE(same_trace(read_back, profiled));

    const Orchestrator::Output in_memory = Orchestrator().orchestrate(
        Analyzer().analyze(profiled).timeline, key.orchestrator_config);
    const Orchestrator::Output handed_off = Orchestrator().orchestrate(
        Analyzer().analyze(read_back).timeline, key.orchestrator_config);
    ASSERT_EQ(handed_off.sequence.events.size(),
              in_memory.sequence.events.size());
    EXPECT_EQ(sequence_fingerprint(handed_off.sequence),
              sequence_fingerprint(in_memory.sequence));

    EXPECT_TRUE(run_profile_pipeline(key).orchestration.sequence.events ==
                in_memory.sequence.events);
  }
}

TEST(Pipeline, OrchestratorAblationUnderestimates) {
  // With POS0 placement the previous iteration's gradients overlap forward;
  // the raw CPU trace frees gradients early (deferred-GC timestamps land
  // after optimizer.step but the batch/grad retiming is what models the GPU
  // timeline). Disabling the Orchestrator must lower the estimate.
  const TrainJob job = make_job({"Qwen3-0.6B", 2, fw::OptimizerKind::kSgd},
                                fw::ZeroGradPlacement::kPos0BeforeBackward);
  EstimationService service;
  const EstimateResult with_orch = estimate_with(service, job, gpu::rtx3060());
  const EstimateResult without_orch =
      estimate_with(service, job, gpu::rtx3060(), "xMem-noOrch");
  EXPECT_NE(without_orch.estimated_peak, with_orch.estimated_peak);

  const gpu::GroundTruthResult truth = ground_truth(job, gpu::rtx3060());
  ASSERT_FALSE(truth.oom);
  const auto err = [&](const EstimateResult& e) {
    return std::abs(static_cast<double>(e.estimated_peak -
                                        truth.peak_job_bytes)) /
           static_cast<double>(truth.peak_job_bytes);
  };
  EXPECT_LT(err(with_orch), err(without_orch))
      << "the Orchestrator must improve accuracy on POS0 workloads";
}

TEST(Pipeline, ArtifactsExposeInternals) {
  const TrainJob job = make_job({"distilgpt2", 6, fw::OptimizerKind::kAdamW});
  const ProfileKey key = ProfileKey::of(job);
  ProfileSession session;
  const ProfileArtifacts& artifacts = *session.get(key).artifacts;

  // The profiler trace is non-trivial and CPU-backed.
  ProfileOptions options;
  options.iterations = key.profile_iterations;
  options.placement = key.placement;
  options.seed = key.seed;
  const trace::Trace trace = profile_on_cpu(
      models::build_model(job.model_name, job.batch_size), job.optimizer,
      options);
  EXPECT_GT(trace.events.size(), 500u);
  EXPECT_EQ(trace.backend, "cpu");
  // The Analyzer filtered script noise and saw address reuse.
  EXPECT_GT(artifacts.analysis.stats.filtered_blocks, 0u);
  EXPECT_GT(artifacts.analysis.stats.address_reuses, 0u);
  EXPECT_GT(artifacts.analysis.stats.matched_pairs, 0u);
  // The Orchestrator applied its rules.
  EXPECT_GT(artifacts.orchestration.stats.gradients_retimed, 0u);
  EXPECT_GT(artifacts.orchestration.stats.batch_truncated, 0u);
  EXPECT_GT(artifacts.orchestration.stats.optimizer_states_pinned, 0u);
  // The Simulator produced curves.
  SimulationOptions sim_options;
  sim_options.record_series = true;
  const SimulationResult simulation =
      MemorySimulator().replay(artifacts.orchestration.sequence, sim_options);
  EXPECT_FALSE(simulation.reserved_series.empty());
  EXPECT_GT(simulation.peak_reserved, 0);
}

TEST(Pipeline, ThreeIterationsMatchFiveIterationGroundTruth) {
  // The paper profiles only 3 iterations; memory must have stabilized so
  // the estimate holds for longer runs.
  const TrainJob job = make_job({"MobileNetV2", 300, fw::OptimizerKind::kAdam});
  EstimationService service;
  const EstimateResult estimate = estimate_with(service, job, gpu::rtx3060());

  const fw::ModelDescriptor model = models::build_model(job.model_name, 300);
  gpu::GroundTruthRunner runner;
  gpu::GroundTruthOptions options;
  options.iterations = 8;  // much longer than the profiling window
  options.seed = job.seed;
  const auto truth = runner.run(model, job.optimizer, gpu::rtx3060(), options);
  ASSERT_FALSE(truth.oom);
  const double error =
      std::abs(static_cast<double>(estimate.estimated_peak -
                                   truth.peak_job_bytes)) /
      static_cast<double>(truth.peak_job_bytes);
  EXPECT_LT(error, 0.15);
}

}  // namespace
}  // namespace xmem::core
