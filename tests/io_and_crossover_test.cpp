// Trace file I/O, snapshot JSON export, and the OOM-crossover property:
// the batch size at which a model starts to OOM on a device is a shape
// result the estimator must reproduce, not just the per-config error.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "alloc/caching_allocator.h"
#include "core/analyzer.h"
#include "core/profile_runner.h"
#include "core/estimation_service.h"
#include "gpu/ground_truth.h"
#include "models/workload.h"
#include "models/zoo.h"
#include "util/bytes.h"
#include "util/json.h"

namespace xmem {
namespace {

// ---------- trace file I/O ----------

TEST(TraceIo, SaveLoadRoundTrip) {
  const fw::ModelDescriptor model = models::build_model("MobileNetV2", 8);
  const trace::Trace original =
      core::profile_on_cpu(model, fw::OptimizerKind::kAdam);
  const std::string path = ::testing::TempDir() + "/xmem_trace.json";
  original.save(path);
  const trace::Trace loaded = trace::Trace::load(path);
  ASSERT_EQ(loaded.events.size(), original.events.size());
  EXPECT_EQ(loaded.model_name, original.model_name);
  for (std::size_t i = 0; i < original.events.size(); i += 97) {
    EXPECT_EQ(loaded.events[i].ts, original.events[i].ts);
    EXPECT_EQ(loaded.events[i].bytes, original.events[i].bytes);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, LoadedTraceAnalyzesIdentically) {
  const fw::ModelDescriptor model = models::build_model("distilgpt2", 4);
  const trace::Trace original =
      core::profile_on_cpu(model, fw::OptimizerKind::kAdamW);
  const std::string path = ::testing::TempDir() + "/xmem_trace2.json";
  {
    // The pretty-printed form of the same document must load too.
    std::ofstream out(path);
    out << util::Json::parse(original.to_json_string()).dump(2);
  }
  const trace::Trace loaded = trace::Trace::load(path);
  const auto a = core::Analyzer().analyze(original);
  const auto b = core::Analyzer().analyze(loaded);
  EXPECT_EQ(a.timeline.blocks.size(), b.timeline.blocks.size());
  EXPECT_EQ(a.stats.filtered_blocks, b.stats.filtered_blocks);
  std::remove(path.c_str());
}

TEST(TraceIo, ErrorsAreLoud) {
  trace::Trace t;
  EXPECT_THROW(t.save("/nonexistent-dir/trace.json"), std::runtime_error);
  EXPECT_THROW(trace::Trace::load("/nonexistent-dir/trace.json"),
               std::runtime_error);
}

// ---------- snapshot JSON ----------

TEST(SnapshotJson, RoundTripsAndBalances) {
  alloc::SimulatedCudaDriver driver(util::kGiB);
  alloc::CachingAllocatorSim allocator(driver);
  allocator.allocate(100);
  const auto b = allocator.allocate(5 * util::kMiB);
  allocator.allocate(12 * util::kMiB);
  allocator.free(b.id);

  const std::string json = alloc::snapshot_to_json(allocator.snapshot(), 2);
  const util::Json doc = util::Json::parse(json);
  ASSERT_TRUE(doc.is_array());
  std::int64_t total = 0, active = 0;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const util::Json& segment = doc[i];
    total += segment.at("total_size").as_int();
    active += segment.at("allocated_size").as_int();
    std::int64_t block_sum = 0;
    for (std::size_t j = 0; j < segment.at("blocks").size(); ++j) {
      block_sum += segment.at("blocks")[j].at("size").as_int();
    }
    EXPECT_EQ(block_sum, segment.at("total_size").as_int());
    EXPECT_TRUE(segment.at("segment_type").as_string() == "small" ||
                segment.at("segment_type").as_string() == "large");
  }
  EXPECT_EQ(total, allocator.stats().reserved_bytes);
  EXPECT_EQ(active, allocator.stats().allocated_bytes);
}

// ---------- OOM crossover ----------

class OomCrossover : public ::testing::TestWithParam<const char*> {};

TEST_P(OomCrossover, PredictedCrossoverMatchesActualWithinOneStep) {
  // Walk the model's Table-2 batch grid on the RTX 3060 with AdamW and find
  // the first batch size that OOMs, per ground truth and per xMem. The two
  // crossovers must agree within one grid step — "where crossovers fall" is
  // the deployable content of the estimate.
  const std::string model_name = GetParam();
  const gpu::DeviceModel device = gpu::rtx3060();
  const auto grid = models::batch_grid_for(model_name);

  int actual_crossover = -1, predicted_crossover = -1;
  gpu::GroundTruthRunner runner;
  core::EstimationService service;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const int batch = grid[i];
    const fw::ModelDescriptor model = models::build_model(model_name, batch);
    gpu::GroundTruthOptions options;
    options.seed = 31;
    const auto truth =
        runner.run(model, fw::OptimizerKind::kAdamW, device, options);
    if (truth.oom && actual_crossover < 0) {
      actual_crossover = static_cast<int>(i);
    }
    core::TrainJob job;
    job.model_name = model_name;
    job.batch_size = batch;
    job.optimizer = fw::OptimizerKind::kAdamW;
    job.seed = 31;
    const auto estimate = service.estimate("xMem", job, device);
    if (estimate.oom_predicted && predicted_crossover < 0) {
      predicted_crossover = static_cast<int>(i);
    }
    if (actual_crossover >= 0 && predicted_crossover >= 0) break;
  }
  ASSERT_GE(actual_crossover, 0)
      << model_name << " never OOMs on this grid; pick a bigger model";
  ASSERT_GE(predicted_crossover, 0)
      << model_name << ": xMem never predicts OOM on this grid";
  EXPECT_LE(std::abs(actual_crossover - predicted_crossover), 1)
      << model_name << ": actual crossover at grid index " << actual_crossover
      << ", predicted at " << predicted_crossover;
}

INSTANTIATE_TEST_SUITE_P(Models, OomCrossover,
                         ::testing::Values("distilgpt2", "gpt2", "t5-base",
                                           "Qwen3-0.6B"));

}  // namespace
}  // namespace xmem
