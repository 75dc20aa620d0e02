// Deeper evaluation-protocol tests: the two-round validation semantics
// against hand-checkable scenarios, harness caching, ablation estimator
// wiring, Monte Carlo coverage, and whole-zoo estimate sanity at the
// smallest batch of every model.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <set>

#include "eval/harness.h"
#include "eval/metrics.h"
#include "gpu/ground_truth.h"
#include "models/zoo.h"
#include "util/bytes.h"

namespace xmem::eval {
namespace {

// ---------- harness wiring ----------

TEST(HarnessProtocol, AblationAddsSecondXmemEstimator) {
  HarnessOptions options;
  options.ablate_orchestrator = true;
  options.use_dnnmem = false;
  options.use_schedtune = false;
  options.use_llmem = false;
  EvalHarness harness(options);
  ASSERT_EQ(harness.estimator_names().size(), 2u);
  EXPECT_EQ(harness.estimator_names()[0], "xMem");
  EXPECT_EQ(harness.estimator_names()[1], "xMem-noOrch");
}

TEST(HarnessProtocol, EstimateIsCachedAcrossRepeats) {
  HarnessOptions options;
  options.repeats = 3;
  options.use_dnnmem = false;
  options.use_schedtune = false;
  options.use_llmem = false;
  EvalHarness harness(options);
  std::vector<models::TrainConfig> grid = {
      {"RegNetX400MF", fw::OptimizerKind::kAdam, 400,
       fw::ZeroGradPlacement::kPos1IterStart}};
  std::vector<RunRecord> records;
  harness.run_anova(grid, gpu::rtx3060(), records);
  ASSERT_EQ(records.size(), 3u);
  // Same deterministic estimate on every repeat; ground truth varies
  // (RegNet has many jittered conv workspaces relative to its peak).
  EXPECT_EQ(records[0].estimate, records[1].estimate);
  EXPECT_EQ(records[1].estimate, records[2].estimate);
  std::set<std::int64_t> peaks;
  for (const auto& r : records) peaks.insert(r.peak_1);
  EXPECT_GE(peaks.size(), 2u) << "repeats should see run-to-run jitter";
}

TEST(HarnessProtocol, MonteCarloCoversTheConfigurationSpace) {
  HarnessOptions options;
  options.use_dnnmem = false;
  options.use_schedtune = false;
  options.use_llmem = false;
  options.seed = 7;
  EvalHarness harness(options);
  std::vector<RunRecord> records;
  const std::vector<std::string> model_pool = {"MobileNetV2", "MnasNet",
                                               "distilgpt2", "T5-small"};
  harness.run_monte_carlo(model_pool, {gpu::rtx3060(), gpu::rtx4060()}, 40,
                          records);
  std::set<std::string> models_seen, devices_seen, placements_seen;
  for (const auto& r : records) {
    models_seen.insert(r.config.model);
    devices_seen.insert(r.device_name);
    placements_seen.insert(to_string(r.config.placement));
  }
  EXPECT_EQ(models_seen.size(), model_pool.size());
  EXPECT_EQ(devices_seen.size(), 2u);
  EXPECT_EQ(placements_seen.size(), 2u) << "POS0 and POS1 both sampled";
}

TEST(HarnessProtocol, RuntimeIsRecordedForEveryEstimator) {
  HarnessOptions options;
  options.repeats = 1;
  options.use_schedtune = false;
  EvalHarness harness(options);
  std::vector<models::TrainConfig> grid = {
      {"distilgpt2", fw::OptimizerKind::kSgd, 5,
       fw::ZeroGradPlacement::kPos1IterStart}};
  std::vector<RunRecord> records;
  harness.run_anova(grid, gpu::rtx3060(), records);
  for (const auto& r : records) {
    if (!r.supported) continue;
    EXPECT_GT(r.estimator_runtime, 0.0) << r.estimator;
  }
  // xMem (profiling + JSON + analysis) costs more than DNNMem (graph walk).
  EXPECT_GT(mean_runtime_for(records, "xMem"),
            mean_runtime_for(records, "DNNMem"));
}

// ---------- protocol semantics on a controlled boundary ----------

TEST(HarnessProtocol, OverestimatePassesRound2) {
  // An estimate safely above the real need must pass the capped rerun: the
  // direct "can the estimate be used as a safe limit" semantics.
  const fw::ModelDescriptor model = models::build_model("MobileNetV2", 300);
  gpu::GroundTruthRunner runner;
  gpu::GroundTruthOptions full;
  full.seed = 5;
  const auto round1 = runner.run(model, fw::OptimizerKind::kAdam,
                                 gpu::rtx3060(), full);
  ASSERT_FALSE(round1.oom);
  gpu::GroundTruthOptions capped = full;
  capped.seed = 6;
  capped.budget_override = round1.peak_job_bytes * 11 / 10;  // +10%
  const auto round2 = runner.run(model, fw::OptimizerKind::kAdam,
                                 gpu::rtx3060(), capped);
  EXPECT_FALSE(round2.oom);
}

TEST(HarnessProtocol, GrossUnderestimateFailsRound2) {
  const fw::ModelDescriptor model = models::build_model("MobileNetV2", 300);
  gpu::GroundTruthRunner runner;
  gpu::GroundTruthOptions full;
  full.seed = 5;
  const auto round1 = runner.run(model, fw::OptimizerKind::kAdam,
                                 gpu::rtx3060(), full);
  ASSERT_FALSE(round1.oom);
  gpu::GroundTruthOptions capped = full;
  capped.budget_override = round1.peak_job_bytes * 7 / 10;  // -30%
  const auto round2 = runner.run(model, fw::OptimizerKind::kAdam,
                                 gpu::rtx3060(), capped);
  EXPECT_TRUE(round2.oom);
}

TEST(HarnessProtocol, CapAtExactPeakSucceeds) {
  // A cap exactly at the observed NVML peak must admit the same run: the
  // estimate-as-safe-limit semantics behind PEF. (Whether a *slightly*
  // lower cap survives depends on how much cached, unsplit segment space
  // exists at the peak instant — the reclamation chain is exercised
  // deterministically in core_simulator_test and alloc_test.)
  const fw::ModelDescriptor model = models::build_model("gpt2", 10);
  gpu::GroundTruthRunner runner;
  gpu::GroundTruthOptions full;
  full.seed = 5;
  const auto round1 =
      runner.run(model, fw::OptimizerKind::kSgd, gpu::rtx3060(), full);
  ASSERT_FALSE(round1.oom);
  gpu::GroundTruthOptions capped = full;  // same seed: same demand sequence
  capped.budget_override = round1.peak_job_bytes;
  const auto round2 =
      runner.run(model, fw::OptimizerKind::kSgd, gpu::rtx3060(), capped);
  EXPECT_FALSE(round2.oom);
}

// ---------- whole-zoo estimate sanity (smallest batch, SGD) ----------

class ZooEstimate : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooEstimate, SmallestBatchSgdWithinTolerance) {
  const std::string model_name = GetParam();
  const int batch = models::batch_grid_for(model_name).front();
  core::TrainJob job;
  job.model_name = model_name;
  job.batch_size = batch;
  job.optimizer = fw::OptimizerKind::kSgd;
  job.seed = 9;

  const gpu::DeviceModel device = gpu::a100_40gb();  // fits even pythia/Qwen
  const fw::ModelDescriptor model = models::build_model(model_name, batch);
  gpu::GroundTruthRunner runner;
  gpu::GroundTruthOptions options;
  options.seed = 9;
  const auto truth = runner.run(model, job.optimizer, device, options);
  ASSERT_FALSE(truth.oom) << model_name;

  core::EstimationService service;
  const auto estimate = service.estimate("xMem", job, device);
  const double error =
      std::abs(static_cast<double>(estimate.estimated_peak -
                                   truth.peak_job_bytes)) /
      static_cast<double>(truth.peak_job_bytes);
  // Per-config tails for eager-attention models at tiny batches reach
  // ~18% (one vocabulary-sized segment of fragmentation divergence against
  // a small peak) — consistent with the paper's whiskers; medians across
  // the grid are pinned far tighter by the fig07 bench.
  EXPECT_LT(error, 0.20) << model_name << ": "
                         << util::format_bytes(estimate.estimated_peak)
                         << " vs "
                         << util::format_bytes(truth.peak_job_bytes);
  // Params + gradients are a hard floor for any training job.
  EXPECT_GE(truth.peak_job_bytes, 2 * model.param_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Rq14Models, ZooEstimate,
    ::testing::ValuesIn([] {
      std::vector<std::string> names = models::cnn_model_names();
      for (const auto& n : models::transformer_model_names()) {
        names.push_back(n);
      }
      return names;
    }()),
    [](const auto& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace xmem::eval
