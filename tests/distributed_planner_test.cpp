// DistributedPlanner tests: the §6.2 multi-GPU planner suite.
//
//   * each pure dimension is a slice of plan_hybrid: (1, 1, p) for the
//     pipeline, (d, 1, 1) and (1, t, 1) with one micro-batch for DP/TP;
//   * contiguous-partition optimality on hand-computable component
//     sequences (brute force over every partition agrees with the solver);
//   * monotonicity — more stages never raises the max-stage peak on
//     divisible (uniform) inputs;
//   * DP/TP shard arithmetic (ZeRO stages, replicated components,
//     activation replication) checked against hand-computed bytes and a
//     shard sum restated independently of the planner;
//   * the EstimationService plan search over a >= 8 GPU budget runs
//     exactly ONE CPU profile and is byte-identical serial vs threaded.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "alloc/backend_registry.h"
#include "core/distributed_planner.h"
#include "core/estimation_service.h"
#include "core/sequence_transform.h"
#include "core/simulator.h"
#include "util/json.h"

namespace xmem {
namespace {

using core::ComponentProfile;
using core::Decomposition;
using core::DistributedPlanner;
using core::HybridOptions;
using core::PipelineSchedule;
using core::ZeroStage;

/// A component with the stage-model convention baked in: persistent bytes a
/// stage holds = params + gradients (mirror) + optimizer state.
ComponentProfile component(const std::string& name, std::int64_t params,
                           std::int64_t optimizer, std::int64_t activations,
                           std::int64_t transient) {
  return ComponentProfile{name, params, optimizer, activations, transient};
}

/// The planner's per-stage peak model, restated independently for the
/// brute-force checks: persistent + in-flight micro-batch activations +
/// the largest workspace.
std::int64_t model_peak(const std::vector<ComponentProfile>& profiles,
                        std::size_t first, std::size_t last, std::size_t index,
                        std::size_t num_stages, int micro_batches) {
  std::int64_t persistent = 0, activations = 0, transient = 0;
  for (std::size_t i = first; i <= last; ++i) {
    persistent += 2 * profiles[i].param_bytes + profiles[i].optimizer_bytes;
    activations += profiles[i].activation_bytes;
    transient = std::max(transient, profiles[i].transient_peak);
  }
  const int in_flight = std::min<int>(
      static_cast<int>(num_stages - index), micro_batches);
  return persistent + (activations / micro_batches) * in_flight + transient;
}

/// Minimum max-stage peak over every contiguous partition into at most
/// `num_stages` stages (exponential; test inputs are tiny).
std::int64_t brute_force_min_max(const std::vector<ComponentProfile>& profiles,
                                 std::size_t num_stages, int micro_batches) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  // A bitmask over the n-1 possible stage boundaries.
  const std::size_t n = profiles.size();
  for (std::size_t mask = 0; mask < (std::size_t{1} << (n - 1)); ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) + 1 > num_stages) {
      continue;
    }
    std::int64_t worst = 0;
    std::size_t begin = 0, stage = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool boundary = i + 1 == n || ((mask >> i) & 1) != 0;
      if (!boundary) continue;
      worst = std::max(worst, model_peak(profiles, begin, i, stage, num_stages,
                                         micro_batches));
      begin = i + 1;
      ++stage;
    }
    best = std::min(best, worst);
  }
  return best;
}

std::vector<ComponentProfile> uneven_sequence() {
  return {
      component("Embedding.0", 400, 800, 600, 40),
      component("SelfAttention.1", 900, 1800, 1200, 80),
      component("MLP.2", 1600, 3200, 2000, 120),
      component("InputNorm.3", 8, 16, 300, 4),
      component("SelfAttention.4", 900, 1800, 1200, 80),
      component("MLP.5", 1600, 3200, 2000, 120),
      component("LMHead.6", 400, 800, 2400, 200),
  };
}

std::vector<ComponentProfile> uniform_sequence(std::size_t n) {
  std::vector<ComponentProfile> profiles;
  for (std::size_t i = 0; i < n; ++i) {
    profiles.push_back(
        component("Layer." + std::to_string(i), 1000, 2000, 1200, 64));
  }
  return profiles;
}

/// The pure data-parallel byte sum, restated independently of
/// plan_hybrid: per-component ZeRO shards of params, gradients (mirroring
/// params) and optimizer state, batch-sharded activations, the largest
/// workspace, and `bucket_bytes` of DDP staging.
std::int64_t pure_data_parallel_peak(
    const std::vector<ComponentProfile>& profiles, std::int64_t d,
    ZeroStage zero, std::int64_t bucket_bytes) {
  std::int64_t sum = 0, transient = 0;
  for (const ComponentProfile& c : profiles) {
    sum += zero >= ZeroStage::kFull ? core::ceil_div(c.param_bytes, d)
                                    : c.param_bytes;
    sum += zero >= ZeroStage::kOptimizerGradient
               ? core::ceil_div(c.param_bytes, d)
               : c.param_bytes;
    sum += zero >= ZeroStage::kOptimizer ? core::ceil_div(c.optimizer_bytes, d)
                                         : c.optimizer_bytes;
    sum += core::ceil_div(c.activation_bytes, d);
    transient = std::max(transient, c.transient_peak);
  }
  return sum + transient + bucket_bytes;
}

/// The pure tensor-parallel byte sum, restated independently of
/// plan_hybrid: every component's shard (shard_tensor_parallel has its own
/// hand-value test), with gradients mirroring the sharded parameters.
std::int64_t pure_tensor_parallel_peak(
    const std::vector<ComponentProfile>& profiles,
    const core::TensorParallelOptions& options) {
  DistributedPlanner planner;
  std::int64_t sum = 0, transient = 0;
  for (const ComponentProfile& c : profiles) {
    const ComponentProfile shard = planner.shard_tensor_parallel(c, options);
    sum += 2 * shard.param_bytes + shard.optimizer_bytes +
           shard.activation_bytes;
    transient = std::max(transient, shard.transient_peak);
  }
  return sum + transient;
}

/// The (1, 1, p) slice: pure pipeline parallelism.
HybridOptions pipeline_slice(int stages, int micro_batches) {
  HybridOptions options;
  options.pipeline_stages = stages;
  options.micro_batches = micro_batches;
  return options;
}

/// uneven_sequence() on one device, by hand: 2 x 5808 params (gradients
/// mirror them) + 11616 optimizer + 9700 activations + the 200-byte
/// LMHead workspace.
constexpr std::int64_t kUnevenSingleDevicePeak =
    2 * 5808 + 11616 + 9700 + 200;

// ---------- pipeline slice (1, 1, p) ----------

TEST(PipelinePartition, MatchesBruteForceOptimumOnHandSequences) {
  DistributedPlanner planner;
  for (const int stages : {2, 3, 4}) {
    for (const int micro_batches : {1, 2, 4}) {
      const auto plan = planner.plan_hybrid(
          uneven_sequence(), pipeline_slice(stages, micro_batches));
      EXPECT_EQ(plan.per_rank_peak,
                brute_force_min_max(uneven_sequence(),
                                    static_cast<std::size_t>(stages),
                                    micro_batches))
          << "stages=" << stages << " mb=" << micro_batches;
    }
  }
}

TEST(PipelinePartition, MoreStagesNeverRaiseMaxPeakOnDivisibleInputs) {
  DistributedPlanner planner;
  const auto profiles = uniform_sequence(12);
  std::int64_t previous = std::numeric_limits<std::int64_t>::max();
  for (int stages = 1; stages <= 6; ++stages) {
    const auto plan = planner.plan_hybrid(profiles, pipeline_slice(stages, 4));
    EXPECT_EQ(plan.per_rank_peak,
              brute_force_min_max(profiles, static_cast<std::size_t>(stages),
                                  4))
        << "stages=" << stages;
    EXPECT_LE(plan.per_rank_peak, previous) << "stages=" << stages;
    previous = plan.per_rank_peak;
  }
}

TEST(PipelinePartition, StagesAreContiguousCompleteAndBounded) {
  DistributedPlanner planner;
  const auto profiles = uneven_sequence();
  const auto plan = planner.plan_hybrid(profiles, pipeline_slice(3, 4));
  ASSERT_EQ(plan.stages.size(), 3u);
  ASSERT_EQ(plan.rank_peaks.size(), 3u);
  EXPECT_EQ(plan.stages.front().first_component, 0u);
  EXPECT_EQ(plan.stages.back().last_component, profiles.size() - 1);
  for (std::size_t s = 1; s < plan.stages.size(); ++s) {
    EXPECT_EQ(plan.stages[s].first_component,
              plan.stages[s - 1].last_component + 1);
  }
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    // 1F1B: one chunk per rank and no DP bucket, so rank peaks are the
    // stage peaks, each the restated stage model of its span.
    EXPECT_EQ(plan.rank_peaks[s], plan.stages[s].estimated_peak);
    EXPECT_EQ(plan.stages[s].estimated_peak,
              model_peak(profiles, plan.stages[s].first_component,
                         plan.stages[s].last_component, s, 3, 4));
    EXPECT_LE(plan.stages[s].estimated_peak, plan.per_rank_peak);
  }
}

TEST(PipelinePartition, SingleStageWithoutMicroBatchingIsTheSingleDevicePeak) {
  DistributedPlanner planner;
  const auto plan = planner.plan_hybrid(uneven_sequence(), pipeline_slice(1, 1));
  EXPECT_EQ(plan.per_rank_peak, kUnevenSingleDevicePeak);
  EXPECT_EQ(plan.single_device_peak, kUnevenSingleDevicePeak);
  EXPECT_EQ(planner.single_device_peak(uneven_sequence()),
            kUnevenSingleDevicePeak);
}

TEST(PipelinePartition, InterleavedWithOneChunkPerRankMatchesOneFOneB) {
  DistributedPlanner planner;
  const HybridOptions flat = pipeline_slice(3, 4);
  HybridOptions interleaved = flat;
  interleaved.schedule = PipelineSchedule::kInterleaved;
  interleaved.virtual_stages = 1;
  const auto a = planner.plan_hybrid(uneven_sequence(), flat);
  const auto b = planner.plan_hybrid(uneven_sequence(), interleaved);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  EXPECT_EQ(a.per_rank_peak, b.per_rank_peak);
  EXPECT_EQ(a.rank_peaks, b.rank_peaks);
}

TEST(PipelinePartition, InterleavedSplitsIntoVirtualStagesPerRank) {
  DistributedPlanner planner;
  HybridOptions options = pipeline_slice(2, 4);
  options.schedule = PipelineSchedule::kInterleaved;
  options.virtual_stages = 3;
  const auto profiles = uniform_sequence(12);
  const auto plan = planner.plan_hybrid(profiles, options);
  ASSERT_EQ(plan.stages.size(), 6u);  // 2 ranks x 3 chunks
  ASSERT_EQ(plan.rank_peaks.size(), 2u);
  EXPECT_EQ(plan.stages.front().first_component, 0u);
  EXPECT_EQ(plan.stages.back().last_component, profiles.size() - 1);
  // Every rank holds v chunks whose resident bytes add up; the max rank
  // peak bounds every single chunk's peak from above.
  for (const auto& stage : plan.stages) {
    EXPECT_LE(stage.estimated_peak, plan.per_rank_peak);
  }
  const std::int64_t max_rank =
      *std::max_element(plan.rank_peaks.begin(), plan.rank_peaks.end());
  EXPECT_EQ(plan.per_rank_peak, max_rank);
}

// ---------- data-parallel slice (d, 1, 1), one micro-batch ----------

TEST(DataParallelSlice, ShardArithmeticPerZeroStage) {
  DistributedPlanner planner;
  const std::vector<ComponentProfile> profiles = {
      component("MLP.0", 100, 200, 400, 50),
      component("MLP.1", 300, 600, 800, 70),
  };
  HybridOptions options;
  options.data_parallel = 4;
  options.micro_batches = 1;
  options.ddp_bucket_bytes = 1000;
  // Per rank: activations ceil(400/4) + ceil(800/4) = 300, workspace 70,
  // two 1000-byte buckets; persistent = params + gradients + optimizer.
  const struct {
    ZeroStage zero;
    std::int64_t persistent;
  } cases[] = {
      {ZeroStage::kNone, 400 + 400 + 800},
      {ZeroStage::kOptimizer, 400 + 400 + (50 + 150)},        // ZeRO-1
      {ZeroStage::kOptimizerGradient, 400 + (25 + 75) + 200},  // ZeRO-2
      {ZeroStage::kFull, (25 + 75) + (25 + 75) + 200},         // ZeRO-3
  };
  for (const auto& c : cases) {
    options.zero = c.zero;
    const auto plan = planner.plan_hybrid(profiles, options);
    ASSERT_EQ(plan.stages.size(), 1u);
    EXPECT_EQ(plan.stages[0].persistent_bytes, c.persistent)
        << to_string(c.zero);
    EXPECT_EQ(plan.stages[0].activation_bytes, 300);
    EXPECT_EQ(plan.stages[0].transient_peak, 70);
    EXPECT_EQ(plan.per_rank_peak, c.persistent + 300 + 70 + 2000)
        << to_string(c.zero);
  }
}

TEST(DataParallelSlice, OneRankIsTheSingleDevicePeakWithNoOverhead) {
  DistributedPlanner planner;
  HybridOptions options;
  options.micro_batches = 1;
  options.ddp_bucket_bytes = 1000;
  options.ddp_bucket_count = 5;
  const auto plan = planner.plan_hybrid(uneven_sequence(), options);
  EXPECT_EQ(plan.per_rank_peak, kUnevenSingleDevicePeak);  // no bucket at d=1
  EXPECT_EQ(plan.per_rank_peak, plan.single_device_peak);
}

TEST(DataParallelSlice, MatchesTheRestatedShardSumPerZeroStage) {
  DistributedPlanner planner;
  const auto profiles = uneven_sequence();
  for (const int d : {2, 3, 4, 8}) {
    for (const auto zero : {ZeroStage::kNone, ZeroStage::kOptimizer,
                            ZeroStage::kOptimizerGradient, ZeroStage::kFull}) {
      HybridOptions hybrid;
      hybrid.data_parallel = d;
      hybrid.micro_batches = 1;
      hybrid.zero = zero;
      EXPECT_EQ(planner.plan_hybrid(profiles, hybrid).per_rank_peak,
                pure_data_parallel_peak(profiles, d, zero,
                                        2 * hybrid.ddp_bucket_bytes))
          << "d=" << d << " " << to_string(zero);
    }
  }
}

// ---------- tensor-parallel slice (1, t, 1), one micro-batch ----------

TEST(TensorParallelSlice, ShardsDivisibleComponentsAndReplicatesNorms) {
  DistributedPlanner planner;
  core::TensorParallelOptions options;
  options.ways = 4;
  options.activation_replication_pct = 20;

  const auto sharded = planner.shard_tensor_parallel(
      component("MLP.1", 1000, 2000, 1000, 100), options);
  EXPECT_EQ(sharded.param_bytes, 250);
  EXPECT_EQ(sharded.optimizer_bytes, 500);
  // 20% of activations replicate; the remaining 800 divide across 4 ranks.
  EXPECT_EQ(sharded.activation_bytes, 200 + 200);
  EXPECT_EQ(sharded.transient_peak, 25);

  const auto replicated = planner.shard_tensor_parallel(
      component("InputNorm.2", 64, 128, 500, 10), options);
  EXPECT_EQ(replicated.param_bytes, 64);
  EXPECT_EQ(replicated.optimizer_bytes, 128);
  EXPECT_EQ(replicated.activation_bytes, 500);
  EXPECT_EQ(replicated.transient_peak, 10);
}

TEST(TensorParallelSlice, SumsShardsAndKeepsNormsWhole) {
  DistributedPlanner planner;
  HybridOptions options;
  options.tensor_parallel = 2;
  options.micro_batches = 1;
  options.tensor.activation_replication_pct = 0;
  const std::vector<ComponentProfile> profiles = {
      component("SelfAttention.0", 1000, 2000, 600, 40),
      component("InputNorm.1", 100, 200, 300, 8),
  };
  const auto plan = planner.plan_hybrid(profiles, options);
  EXPECT_EQ(plan.gpus, 2);
  ASSERT_EQ(plan.stages.size(), 1u);
  // Params 500 + 100 (the norm stays whole), gradients mirror them,
  // optimizer 1000 + 200.
  EXPECT_EQ(plan.stages[0].persistent_bytes,
            (500 + 100) + (500 + 100) + (1000 + 200));
  EXPECT_EQ(plan.stages[0].activation_bytes, 300 + 300);
  EXPECT_EQ(plan.stages[0].transient_peak, 20);
  EXPECT_EQ(plan.per_rank_peak, 600 + 600 + 1200 + 600 + 20);
  EXPECT_LT(plan.per_rank_peak, plan.single_device_peak);
}

TEST(TensorParallelSlice, MatchesTheRestatedShardSum) {
  DistributedPlanner planner;
  const auto profiles = uneven_sequence();
  for (const int t : {2, 3, 4}) {
    for (const int pct : {0, 25, 100}) {
      HybridOptions hybrid;
      hybrid.tensor_parallel = t;
      hybrid.micro_batches = 1;
      hybrid.tensor.activation_replication_pct = pct;
      core::TensorParallelOptions tp = hybrid.tensor;
      tp.ways = t;
      EXPECT_EQ(planner.plan_hybrid(profiles, hybrid).per_rank_peak,
                pure_tensor_parallel_peak(profiles, tp))
          << "t=" << t << " pct=" << pct;
    }
  }
}

// ---------- hybrid composition ----------

TEST(HybridPlan, GpuCountMultipliesAndBucketChargesOnlyDataParallel) {
  DistributedPlanner planner;
  const auto profiles = uneven_sequence();
  HybridOptions options;
  options.data_parallel = 2;
  options.tensor_parallel = 2;
  options.pipeline_stages = 2;
  options.ddp_bucket_bytes = 1 << 20;
  const auto plan = planner.plan_hybrid(profiles, options);
  EXPECT_EQ(plan.gpus, 8);
  ASSERT_EQ(plan.rank_peaks.size(), 2u);

  HybridOptions no_dp = options;
  no_dp.data_parallel = 1;
  const auto base = planner.plan_hybrid(profiles, no_dp);
  // d=2 shrinks (ceil-halves) activations before packing, so the worst
  // rank can cost at most the d=1 worst rank plus two in-flight buckets.
  EXPECT_LE(plan.per_rank_peak,
            base.per_rank_peak + 2 * options.ddp_bucket_bytes);
}

TEST(HybridPlan, EnumerationCoversEveryDecompositionOfTheBudget) {
  const auto all = DistributedPlanner::enumerate_decompositions(8, 64);
  EXPECT_EQ(all.size(), 38u);  // sum over n<=8 of ordered (d,t,p) triples
  for (const Decomposition& decomposition : all) {
    EXPECT_GE(decomposition.data_parallel, 1);
    EXPECT_GE(decomposition.tensor_parallel, 1);
    EXPECT_GE(decomposition.pipeline_stages, 1);
    EXPECT_LE(decomposition.gpus(), 8);
  }
  // The pipeline cap prunes deep-pipeline candidates only.
  const auto capped = DistributedPlanner::enumerate_decompositions(8, 2);
  for (const Decomposition& decomposition : capped) {
    EXPECT_LE(decomposition.pipeline_stages, 2);
  }
  EXPECT_LT(capped.size(), all.size());
}

// ---------- plan search through the EstimationService ----------

core::PlanRequest small_plan_request() {
  core::PlanRequest request;
  request.job.model_name = "distilgpt2";
  request.job.batch_size = 5;
  request.job.optimizer = fw::OptimizerKind::kAdamW;
  request.job.seed = 7;
  request.devices = {gpu::rtx3060(), gpu::rtx4060(), gpu::a100_40gb()};
  request.max_gpus = 8;
  return request;
}

TEST(PlanSearch, EightGpuBudgetRunsExactlyOneProfile) {
  core::EstimationService service;
  const core::PlanReport report = service.plan(small_plan_request());

  EXPECT_GE(report.candidates_evaluated, 8u);  // the acceptance bar
  EXPECT_EQ(report.candidates.size(), report.candidates_evaluated);
  EXPECT_EQ(report.profiles_run, 1u);
  EXPECT_EQ(report.replays_run, 1u);  // every device reads one replay
  ASSERT_EQ(report.single_device_entries.size(), 3u);
  EXPECT_GT(report.single_device_peak, 0);
  for (const auto& entry : report.single_device_entries) {
    EXPECT_TRUE(entry.supported);
    EXPECT_GT(entry.estimated_peak, 0);
  }
}

TEST(PlanSearch, SerialAndThreadedSearchesAreByteIdentical) {
  core::ServiceOptions serial_options;
  serial_options.threads = 1;
  core::EstimationService serial(serial_options);
  core::ServiceOptions threaded_options;
  threaded_options.threads = 4;
  core::EstimationService threaded(threaded_options);

  const core::PlanRequest request = small_plan_request();
  const core::PlanReport a = serial.plan(request);
  const core::PlanReport b = threaded.plan(request);
  EXPECT_EQ(a.to_json(/*include_timings=*/false).dump(2),
            b.to_json(/*include_timings=*/false).dump(2));
  EXPECT_EQ(a.profiles_run, 1u);
  EXPECT_EQ(b.profiles_run, 1u);
}

TEST(PlanSearch, CandidatesAreRankedBestFirst) {
  core::EstimationService service;
  const core::PlanReport report = service.plan(small_plan_request());
  ASSERT_GT(report.candidates.size(), 1u);
  for (std::size_t i = 1; i < report.candidates.size(); ++i) {
    const auto& prev = report.candidates[i - 1];
    const auto& next = report.candidates[i];
    EXPECT_GE(prev.fits_count, next.fits_count);
    if (prev.fits_count == next.fits_count) {
      EXPECT_LE(prev.plan.gpus, next.plan.gpus);
    }
  }
  for (const auto& candidate : report.candidates) {
    ASSERT_EQ(candidate.device_fits.size(), report.devices.size());
    for (std::size_t d = 0; d < report.devices.size(); ++d) {
      EXPECT_EQ(candidate.device_fits[d],
                candidate.plan.per_rank_peak <=
                    report.devices[d].job_budget());
    }
    EXPECT_EQ(candidate.splitting_helps,
              candidate.plan.per_rank_peak < report.single_device_peak);
  }
}

TEST(PlanSearch, MaxCandidatesCapsTheReportNotTheSearch) {
  core::EstimationService service;
  core::PlanRequest request = small_plan_request();
  request.max_candidates = 3;
  const core::PlanReport report = service.plan(request);
  EXPECT_EQ(report.candidates.size(), 3u);
  EXPECT_GT(report.candidates_evaluated, 3u);
}

TEST(PlanSearch, RejectsUnknownNames) {
  core::EstimationService service;
  core::PlanRequest request = small_plan_request();
  request.job.model_name = "not-a-model";
  EXPECT_THROW(service.plan(request), std::invalid_argument);

  request = small_plan_request();
  request.allocator = "not-an-allocator";
  EXPECT_THROW(service.plan(request), std::invalid_argument);

  request = small_plan_request();
  request.devices.clear();
  EXPECT_THROW(service.plan(request), std::invalid_argument);
}

// ---------- phase-2 refinement: replay through the allocator tower ----------

TEST(PlanRefine, TopKCandidatesReplayPerRankWithOneProfile) {
  core::EstimationService service;
  core::PlanRequest request = small_plan_request();
  request.refine_top_k = 3;
  const core::PlanReport report = service.plan(request);

  EXPECT_EQ(report.profiles_run, 1u);
  EXPECT_EQ(report.replayed_candidates, 3u);
  EXPECT_GE(report.rank_replays_run, 3u);
  ASSERT_GE(report.candidates.size(), 4u);
  for (std::size_t i = 0; i < report.candidates.size(); ++i) {
    const core::PlanCandidate& candidate = report.candidates[i];
    if (i < 3) {
      EXPECT_TRUE(candidate.replayed) << "candidate " << i;
      // One replayed peak per deployment rank (d*t*p), stage-major: the
      // symmetric-rank collapse replays once per stage but still reports
      // every rank.
      ASSERT_EQ(candidate.replayed_rank_peaks.size(),
                static_cast<std::size_t>(candidate.plan.gpus));
      EXPECT_GT(candidate.replayed_per_rank_peak, 0);
      for (const std::int64_t peak : candidate.replayed_rank_peaks) {
        EXPECT_GT(peak, 0);
        EXPECT_LE(peak, candidate.replayed_per_rank_peak);
      }
      ASSERT_EQ(candidate.replayed_device_fits.size(),
                report.devices.size());
    } else {
      EXPECT_FALSE(candidate.replayed) << "candidate " << i;
      EXPECT_TRUE(candidate.replayed_rank_peaks.empty());
    }
  }
}

TEST(PlanRefine, SerialAndThreadedRefinesAreByteIdentical) {
  core::ServiceOptions serial_options;
  serial_options.threads = 1;
  core::EstimationService serial(serial_options);
  core::ServiceOptions threaded_options;
  threaded_options.threads = 4;
  core::EstimationService threaded(threaded_options);

  core::PlanRequest request = small_plan_request();
  request.refine_top_k = 4;
  const core::PlanReport a = serial.plan(request);
  const core::PlanReport b = threaded.plan(request);
  EXPECT_EQ(a.to_json(/*include_timings=*/false).dump(2),
            b.to_json(/*include_timings=*/false).dump(2));
  EXPECT_EQ(a.replayed_candidates, 4u);
  EXPECT_EQ(a.profiles_run, 1u);
  EXPECT_EQ(b.profiles_run, 1u);
}

TEST(PlanRefine, ReplayedVerdictCanDifferFromTheAnalyticOne) {
  // Pass 1: learn the analytic and replayed peaks of the best candidate.
  // Replay prices round-up, caching, and the blocks the component model
  // never sees (batch data, script-side survivors), so the two differ.
  core::EstimationService service;
  core::PlanRequest request = small_plan_request();
  request.refine_top_k = 1;
  const core::PlanReport first = service.plan(request);
  ASSERT_FALSE(first.candidates.empty());
  const core::PlanCandidate& best = first.candidates.front();
  ASSERT_TRUE(best.replayed);
  ASSERT_NE(best.replayed_per_rank_peak, best.plan.per_rank_peak);

  // Pass 2: a device whose budget lies strictly between the two peaks must
  // flip that candidate's verdict — the fidelity gain of the replay phase.
  gpu::DeviceModel straddle;
  straddle.name = "straddle";
  straddle.capacity =
      (best.replayed_per_rank_peak + best.plan.per_rank_peak) / 2;
  core::PlanRequest crafted = small_plan_request();
  crafted.devices = {straddle};
  crafted.refine_top_k = 1000;  // refine every candidate
  core::EstimationService fresh;
  const core::PlanReport second = fresh.plan(crafted);
  EXPECT_EQ(second.replayed_candidates, second.candidates.size());

  bool found = false;
  for (const core::PlanCandidate& candidate : second.candidates) {
    if (candidate.plan.data_parallel != best.plan.data_parallel ||
        candidate.plan.tensor_parallel != best.plan.tensor_parallel ||
        candidate.plan.pipeline_stages != best.plan.pipeline_stages) {
      continue;
    }
    found = true;
    // Deterministic: the same profile yields the same peaks either pass.
    EXPECT_EQ(candidate.plan.per_rank_peak, best.plan.per_rank_peak);
    EXPECT_EQ(candidate.replayed_per_rank_peak, best.replayed_per_rank_peak);
    ASSERT_EQ(candidate.device_fits.size(), 1u);
    EXPECT_NE(candidate.device_fits[0], candidate.replayed_device_fits[0]);
    EXPECT_TRUE(candidate.verdict_changed);
  }
  EXPECT_TRUE(found);
}

TEST(PlanRefine, OverlapWindowReplayRanksADifferentWinner) {
  // Overlap-window mode re-ranks the refined prefix by the window-replayed
  // peaks instead of leaving the analytic order in place. Pass 1 learns
  // both peaks of a refined candidate whose analytic estimate undershoots
  // its window replay; pass 2 crafts a straddle device (the whatif-2g
  // idiom) whose budget lies strictly between them, so the analytic
  // ranking admits that candidate while the window replay rejects it —
  // the two modes must crown different winners.
  core::PlanRequest request = small_plan_request();
  request.refine_top_k = 3;
  request.comm_overlap = true;
  core::EstimationService probe;
  const core::PlanReport learned = probe.plan(request);
  EXPECT_EQ(learned.profiles_run, 1u);
  EXPECT_GT(learned.rerank_changed, 0u);

  const core::PlanCandidate* straddled = nullptr;
  for (const core::PlanCandidate& candidate : learned.candidates) {
    if (!candidate.replayed) continue;
    ASSERT_TRUE(candidate.window_mode);
    // The event-level dominance invariant, echoed at report level.
    EXPECT_LE(candidate.replayed_per_rank_peak,
              candidate.resident_per_rank_peak);
    if (straddled == nullptr &&
        candidate.plan.per_rank_peak < candidate.replayed_per_rank_peak) {
      straddled = &candidate;
    }
  }
  ASSERT_NE(straddled, nullptr)
      << "no refined candidate with analytic < window-replayed peak";

  gpu::DeviceModel straddle;
  straddle.name = "straddle";
  straddle.capacity =
      (straddled->plan.per_rank_peak + straddled->replayed_per_rank_peak) / 2;
  core::PlanRequest crafted = small_plan_request();
  crafted.devices = {straddle};
  crafted.refine_top_k = 3;

  core::EstimationService resident_service;
  const core::PlanReport resident = resident_service.plan(crafted);
  crafted.comm_overlap = true;
  core::ServiceOptions serial_options;
  serial_options.threads = 1;
  core::EstimationService serial(serial_options);
  const core::PlanReport window = serial.plan(crafted);

  EXPECT_EQ(resident.profiles_run, 1u);
  EXPECT_EQ(window.profiles_run, 1u);
  EXPECT_GT(window.rerank_changed, 0u);
  ASSERT_FALSE(resident.candidates.empty());
  ASSERT_FALSE(window.candidates.empty());
  const core::PlanCandidate& resident_winner = resident.candidates.front();
  const core::PlanCandidate& window_winner = window.candidates.front();
  EXPECT_FALSE(
      resident_winner.plan.data_parallel == window_winner.plan.data_parallel &&
      resident_winner.plan.tensor_parallel ==
          window_winner.plan.tensor_parallel &&
      resident_winner.plan.pipeline_stages ==
          window_winner.plan.pipeline_stages)
      << "window replay must crown a different winner on the straddle device";

  // Resident-mode reports stay byte-free of every window-mode key.
  const std::string resident_json =
      resident.to_json(/*include_timings=*/false).dump(2);
  EXPECT_EQ(resident_json.find("comm_overlap"), std::string::npos);
  EXPECT_EQ(resident_json.find("rerank_changed"), std::string::npos);
  EXPECT_EQ(resident_json.find("window_vs_resident_pct"), std::string::npos);

  // Determinism: a thread-pool-fanned window search byte-matches serial.
  core::ServiceOptions threaded_options;
  threaded_options.threads = 4;
  core::EstimationService threaded(threaded_options);
  EXPECT_EQ(window.to_json(/*include_timings=*/false).dump(2),
            threaded.plan(crafted).to_json(/*include_timings=*/false).dump(2));
}

TEST(PlanRefine, RefineCountersAppearInTheReportJson) {
  core::EstimationService service;
  core::PlanRequest request = small_plan_request();
  request.refine_top_k = 2;
  request.max_candidates = 4;
  const util::Json json =
      service.plan(request).to_json(/*include_timings=*/false);
  EXPECT_EQ(json.at("stage_counters").at("replayed_candidates").as_int(), 2);
  EXPECT_GE(json.at("stage_counters").at("rank_replays").as_int(), 2);
  const util::Json& refined = json.at("candidates")[0];
  ASSERT_TRUE(refined.at("replayed").as_bool());
  const util::Json& replay = refined.at("replay");
  for (const char* key : {"rank_peaks_bytes", "per_rank_peak_bytes",
                          "analytic_vs_replayed_pct", "fits",
                          "verdict_changed"}) {
    EXPECT_TRUE(replay.contains(key)) << key;
  }
  EXPECT_FALSE(json.at("candidates")[3].at("replayed").as_bool());
}

TEST(PlanRefine, NewBackendsRefineTheStraddleFixtureDeterministically) {
  // The CI whatif-2g straddle fixture, replayed through each of the three
  // policy-variant backends: one profile total, threaded refinement
  // byte-identical to serial, and the scratch-reuse replay path (second
  // plan() on the same thread resets the pooled tower instead of
  // rebuilding it) byte-identical to the rebuild path (first plan() after
  // the backend switch, which misses the scratch key).
  std::ifstream in(std::string(XMEM_FIXTURE_DIR) + "/plan_request.json");
  ASSERT_TRUE(in) << "missing ci/fixtures/plan_request.json";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  core::PlanRequest request =
      core::PlanRequest::from_json(util::Json::parse(buffer.str()));
  ASSERT_GT(request.refine_top_k, 0);

  core::ServiceOptions serial_options;
  serial_options.threads = 1;
  core::ServiceOptions threaded_options;
  threaded_options.threads = 4;

  for (const char* backend :
       {"pytorch-expandable", "cub-binned", "stream-pool"}) {
    request.allocator = backend;
    core::EstimationService serial(serial_options);
    core::EstimationService threaded(threaded_options);
    const core::PlanReport report = serial.plan(request);
    EXPECT_EQ(report.profiles_run, 1u) << backend;
    EXPECT_EQ(report.replayed_candidates,
              static_cast<std::size_t>(request.refine_top_k))
        << backend;
    const std::string stable =
        report.to_json(/*include_timings=*/false).dump(2);
    EXPECT_EQ(stable,
              threaded.plan(request).to_json(/*include_timings=*/false).dump(2))
        << backend << ": threaded refine diverged from serial";
    // Scratch reuse vs rebuild: the first plan() built each worker's tower
    // from scratch, the repeat resets and reuses it (the stage counters
    // legitimately differ — the repeat hits the profile/result caches —
    // but every rank replay re-runs, and every candidate byte matches).
    const core::PlanReport repeat = serial.plan(request);
    EXPECT_EQ(repeat.rank_replays_run, report.rank_replays_run) << backend;
    EXPECT_EQ(report.to_json(/*include_timings=*/false).at("candidates").dump(2),
              repeat.to_json(/*include_timings=*/false).at("candidates").dump(2))
        << backend << ": scratch-reuse replay diverged from rebuild";
  }
}

TEST(PlanRefine, BackendSwitchesStillRunExactlyOneProfile) {
  // The one-profile-per-job guarantee holds across the whole registry: a
  // fleet service asked to refine the same job under every new backend
  // profiles once and replays everything else from the cached profile.
  core::EstimationService service;
  core::PlanRequest request = small_plan_request();
  request.refine_top_k = 2;
  std::size_t profiles = 0;
  for (const char* backend :
       {"pytorch-expandable", "cub-binned", "stream-pool"}) {
    request.allocator = backend;
    const core::PlanReport report = service.plan(request);
    profiles += report.profiles_run;
    EXPECT_EQ(report.replayed_candidates, 2u) << backend;
  }
  EXPECT_EQ(profiles, 1u);
}

TEST(PlanRefine, AllocatorConfigKnobsReachTheReplayTower) {
  // allocator_config must change what phase 2 replays — CTranslate2's
  // coarser cub bins price the same ranks differently than the defaults —
  // and an unknown knob must fail up front, naming itself.
  core::EstimationService service;
  core::PlanRequest request = small_plan_request();
  request.refine_top_k = 2;
  request.allocator = "cub-binned";
  const core::PlanReport defaults = service.plan(request);
  request.allocator_config["cub-binned"] = {{"bin_growth", 4},
                                            {"min_bin", 3},
                                            {"max_bin", 12},
                                            {"max_cached_bytes", 200000000}};
  const core::PlanReport tuned = service.plan(request);
  // New knobs, same job: the cached profile serves the tuned pass.
  EXPECT_EQ(defaults.profiles_run, 1u);
  EXPECT_EQ(tuned.profiles_run, 0u);
  ASSERT_TRUE(defaults.candidates.front().replayed);
  ASSERT_TRUE(tuned.candidates.front().replayed);
  EXPECT_NE(tuned.candidates.front().replayed_per_rank_peak,
            defaults.candidates.front().replayed_per_rank_peak)
      << "cub knobs did not reach the replay tower";
  // Analytic phase 1 is allocator-free: its peaks must not move.
  EXPECT_EQ(tuned.candidates.front().plan.per_rank_peak,
            defaults.candidates.front().plan.per_rank_peak);

  request.allocator_config["cub-binned"] = {{"bin_grow", 4}};
  try {
    service.plan(request);
    FAIL() << "unknown knob accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("bin_grow"), std::string::npos)
        << error.what();
  }
}

/// Replay every deployment rank of a refined candidate from scratch: the
/// test builds each rank's sequence itself and simulates it through a
/// fresh allocator tower (no ReplayScratch, no memo cache, no symmetric
/// collapse) — an oracle independent of the service's refine pass.
std::vector<std::int64_t> independent_rank_peaks(
    const core::PlanRequest& request, const core::PlanCandidate& candidate,
    const core::SequenceTransformer& transformer, bool comm_overlap) {
  core::RankTransformOptions transform;
  transform.data_parallel = candidate.plan.data_parallel;
  transform.tensor_parallel = candidate.plan.tensor_parallel;
  transform.micro_batches = request.micro_batches;
  transform.zero = request.zero;
  transform.ddp_bucket_bytes = request.ddp_bucket_bytes;
  transform.ddp_bucket_count = request.ddp_bucket_count;
  transform.tensor.activation_replication_pct =
      request.activation_replication_pct;
  transform.comm_overlap = comm_overlap;
  core::SimulationOptions sim_options;
  sim_options.backend = request.allocator;
  const auto knobs = request.allocator_config.find(request.allocator);
  if (knobs != request.allocator_config.end()) {
    sim_options.backend_knobs = knobs->second;
  }

  const std::size_t stages =
      std::max<std::size_t>(candidate.plan.rank_peaks.size(), 1);
  const std::size_t ranks = stages *
                            static_cast<std::size_t>(
                                candidate.plan.data_parallel *
                                candidate.plan.tensor_parallel);
  std::vector<std::int64_t> peaks;
  for (std::size_t rank = 0; rank < ranks; ++rank) {
    // Stage-major rank order: stage s owns ranks [s*d*t, (s+1)*d*t).
    const std::size_t stage = rank / (ranks / stages);
    core::RankScratch scratch;
    const core::OrchestratedSequence& sequence = transformer.rank_sequence(
        transform, candidate.plan.stages, stages, stage, scratch);
    peaks.push_back(
        core::MemorySimulator().replay(sequence, sim_options).peak_device);
  }
  return peaks;
}

TEST(PlanRefine, ReplayedPeaksMatchAnIndependentPerRankReplay) {
  // The symmetric-rank collapse and the cross-candidate memo cache must be
  // invisible: on both CI straddle fixtures (resident and overlap-window),
  // for every registry backend, every refined candidate's rank peaks equal
  // an independent fresh replay of every deployment rank. Serial and
  // threaded searches stay byte-identical, counters included.
  for (const char* fixture :
       {"plan_request.json", "plan_request_overlap.json"}) {
    std::ifstream in(std::string(XMEM_FIXTURE_DIR) + "/" + fixture);
    ASSERT_TRUE(in) << "missing ci/fixtures/" << fixture;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    core::PlanRequest request =
        core::PlanRequest::from_json(util::Json::parse(buffer.str()));

    // The profile the service refines from, looked up under the key the
    // "xMem" engine uses (default orchestrator rules).
    const auto session = std::make_shared<core::ProfileSession>();
    core::ProfileKey key;
    key.model_name = request.job.model_name;
    key.batch_size = request.job.batch_size;
    key.optimizer = request.job.optimizer;
    key.placement = request.job.placement;
    key.seed = request.job.seed;
    key.profile_iterations = request.profile_iterations;
    const core::ProfileSession::Lookup lookup = session->get(key);
    const std::vector<core::ComponentProfile> profiles =
        core::per_component_profile(lookup.artifacts->analysis.timeline);
    const core::SequenceTransformer transformer(
        lookup.artifacts->orchestration.sequence, profiles);

    core::ServiceOptions serial_options;
    serial_options.threads = 1;
    serial_options.session = session;
    core::ServiceOptions threaded_options = serial_options;
    threaded_options.threads = 4;

    for (const std::string& backend : alloc::backend_names()) {
      request.allocator = backend;
      core::EstimationService serial(serial_options);
      const core::PlanReport report = serial.plan(request);
      EXPECT_EQ(report.profiles_run, 0u)
          << fixture << ": the service did not reuse the test's profile key";
      ASSERT_GT(report.replayed_candidates, 0u);
      for (std::size_t i = 0; i < report.replayed_candidates; ++i) {
        const core::PlanCandidate& candidate = report.candidates[i];
        ASSERT_TRUE(candidate.replayed);
        EXPECT_EQ(candidate.replayed_rank_peaks,
                  independent_rank_peaks(request, candidate, transformer,
                                         request.comm_overlap))
            << fixture << " " << backend << " candidate " << i;
        if (request.comm_overlap) {
          EXPECT_EQ(candidate.resident_rank_peaks,
                    independent_rank_peaks(request, candidate, transformer,
                                           /*comm_overlap=*/false))
              << fixture << " " << backend << " candidate " << i;
        }
      }

      core::EstimationService threaded(threaded_options);
      EXPECT_EQ(report.to_json(/*include_timings=*/false).dump(2),
                threaded.plan(request).to_json(false).dump(2))
          << fixture << " " << backend
          << ": threaded report diverged from serial";
    }
  }
}

TEST(PlanRefine, RefineAllReplaysEveryRankedDecomposition) {
  core::EstimationService service;
  core::PlanRequest request = small_plan_request();
  request.refine_all = true;
  const core::PlanReport report = service.plan(request);
  EXPECT_EQ(report.profiles_run, 1u);
  EXPECT_EQ(report.replayed_candidates, report.candidates.size());
  for (const core::PlanCandidate& candidate : report.candidates) {
    EXPECT_TRUE(candidate.replayed);
  }
  // A >= 8 GPU budget always ranks pure-DP and hybrid candidates whose
  // symmetric ranks collapse, and distinct candidates that share stage
  // sequences cross-candidate.
  EXPECT_GT(report.replays_deduped, 0u);
  EXPECT_GT(report.rank_replays_run, 0u);
  const util::Json json = report.to_json(/*include_timings=*/false);
  EXPECT_EQ(json.at("stage_counters").at("rank_replays").as_int(),
            static_cast<std::int64_t>(report.rank_replays_run));
  EXPECT_EQ(json.at("stage_counters").at("replays_deduped").as_int(),
            static_cast<std::int64_t>(report.replays_deduped));
  EXPECT_TRUE(json.at("stage_counters").contains("replay_cache_hits"));
}

// ---------- metamorphic relations ----------

TEST(PlanMetamorphic, OneGpuCandidateIsTheSingleDeviceJob) {
  // Relation: the (1, 1, 1) candidate with one micro-batch is the
  // single-device job. Its analytic peak is the report's single-device
  // analytic peak, and its replayed peak is what a plain sweep estimates
  // for the job alone — on every backend, for ZeRO 0 and 3 (nothing
  // shards at d = 1), with and without overlap windows (no collective at
  // d = 1). No golden is involved.
  std::ifstream in(std::string(XMEM_FIXTURE_DIR) + "/plan_request.json");
  ASSERT_TRUE(in) << "missing ci/fixtures/plan_request.json";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  core::PlanRequest request =
      core::PlanRequest::from_json(util::Json::parse(buffer.str()));
  request.max_gpus = 1;
  request.micro_batches = 1;
  request.refine_top_k = 1;

  for (const char* model : {"distilgpt2", "MobileNetV2"}) {
    request.job.model_name = model;
    const bool transformer = request.job.model_name == "distilgpt2";
    for (const std::string& backend : alloc::backend_names()) {
      request.allocator = backend;
      core::EstimateRequest sweep;
      sweep.job = request.job;
      sweep.devices = request.devices;
      sweep.allocators = {backend};
      sweep.profile_iterations = request.profile_iterations;
      const core::EstimateReport single =
          core::EstimationService().sweep(sweep);
      const std::int64_t estimate = single.entries.at(0).estimated_peak;

      for (const auto zero : {ZeroStage::kNone, ZeroStage::kFull}) {
        for (const bool overlap : {false, true}) {
          if (overlap && !transformer) continue;
          request.zero = zero;
          request.comm_overlap = overlap;
          const std::string label = std::string(model) + " " + backend +
                                    " " + to_string(zero) +
                                    (overlap ? " overlap" : "");
          const core::PlanReport report =
              core::EstimationService().plan(request);
          ASSERT_EQ(report.candidates.size(), 1u) << label;
          const core::PlanCandidate& candidate = report.candidates.front();
          EXPECT_EQ(candidate.plan.gpus, 1) << label;
          EXPECT_EQ(candidate.plan.per_rank_peak, report.single_device_peak)
              << label;
          ASSERT_TRUE(candidate.replayed) << label;
          EXPECT_EQ(candidate.replayed_per_rank_peak, estimate) << label;
          for (const core::EstimateEntry& entry :
               report.single_device_entries) {
            EXPECT_EQ(entry.estimated_peak, estimate) << label;
          }
        }
      }
    }
  }
}

// ---------- DDP bucket knob ----------

TEST(DataParallelSlice, BucketCountIsConfigurableWithTwoAsDefault) {
  DistributedPlanner planner;
  const auto profiles = uneven_sequence();
  HybridOptions options;
  options.data_parallel = 2;
  options.micro_batches = 1;
  options.ddp_bucket_bytes = 1000;
  // Per rank without buckets: the 23232 persistent bytes stay whole, the
  // activations halve per component to 4850, plus the 200-byte workspace.
  constexpr std::int64_t kBase = 23232 + 4850 + 200;
  EXPECT_EQ(planner.plan_hybrid(profiles, options).per_rank_peak,
            kBase + 2000);  // the old hard-coded behavior stays the default
  options.ddp_bucket_count = 5;
  EXPECT_EQ(planner.plan_hybrid(profiles, options).per_rank_peak,
            kBase + 5000);
  options.ddp_bucket_count = 0;
  EXPECT_EQ(planner.plan_hybrid(profiles, options).per_rank_peak, kBase);
}

// ---------- plan request / report JSON ----------

TEST(PlanRequestJson, RoundTripsThroughJson) {
  core::PlanRequest request = small_plan_request();
  request.schedule = PipelineSchedule::kInterleaved;
  request.virtual_stages = 2;
  request.zero = ZeroStage::kOptimizerGradient;
  request.max_candidates = 5;
  request.refine_top_k = 7;
  request.ddp_bucket_count = 3;
  const core::PlanRequest parsed =
      core::PlanRequest::from_json(request.to_json());
  EXPECT_EQ(parsed.job.model_name, request.job.model_name);
  EXPECT_EQ(parsed.job.batch_size, request.job.batch_size);
  ASSERT_EQ(parsed.devices.size(), 3u);
  EXPECT_EQ(parsed.max_gpus, 8);
  EXPECT_EQ(parsed.schedule, PipelineSchedule::kInterleaved);
  EXPECT_EQ(parsed.virtual_stages, 2);
  EXPECT_EQ(parsed.zero, ZeroStage::kOptimizerGradient);
  EXPECT_EQ(parsed.max_candidates, 5u);
  EXPECT_EQ(parsed.refine_top_k, 7);
  EXPECT_EQ(parsed.ddp_bucket_count, 3);
  EXPECT_EQ(parsed.allocator, request.allocator);
}

TEST(PlanRequestJson, RejectsMalformedDocuments) {
  const auto parse = [](const char* text) {
    return core::PlanRequest::from_json(util::Json::parse(text));
  };
  EXPECT_THROW(parse(R"({"devices": ["rtx3060"]})"), std::exception);
  EXPECT_THROW(
      parse(R"({"job": {"model": "distilgpt2", "batch": 5}})"),
      std::invalid_argument);  // missing devices
  EXPECT_THROW(parse(R"({"job": {"model": "distilgpt2", "batch": 5},
                         "devices": ["rtx3060"], "max_gpus": 0})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"job": {"model": "distilgpt2", "batch": 5},
                         "devices": ["rtx3060"], "zero_stage": 4})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"job": {"model": "distilgpt2", "batch": 5},
                         "devices": ["rtx3060"], "schedule": "gpipe"})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"job": {"model": "distilgpt2", "batch": 5},
                         "devices": ["rtx3060"],
                         "activation_replication_pct": 120})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"job": {"model": "distilgpt2", "batch": 5},
                         "devices": ["rtx3060"], "max_candidates": -3})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"job": {"model": "distilgpt2", "batch": 5},
                         "devices": ["rtx3060"], "profile_iterations": 0})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"job": {"model": "distilgpt2", "batch": 5},
                         "devices": ["rtx3060"], "refine_top_k": -1})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"job": {"model": "distilgpt2", "batch": 5},
                         "devices": ["rtx3060"], "ddp_bucket_count": -1})"),
               std::invalid_argument);
  // Out of int range: rejected, not wrapped to a small count.
  EXPECT_THROW(parse(R"({"job": {"model": "distilgpt2", "batch": 5},
                         "devices": ["rtx3060"], "max_gpus": 4294967297})"),
               std::invalid_argument);
  // The rejection must name the offending field (actionable message).
  try {
    parse(R"({"job": {"model": "distilgpt2", "batch": 5},
              "devices": ["rtx3060"], "refine_top_k": -1})");
    FAIL() << "negative refine_top_k accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("refine_top_k"),
              std::string::npos);
  }
}

TEST(PlanRequestJson, RefineAllRoundTrip) {
  core::PlanRequest request = small_plan_request();
  request.refine_all = true;
  const util::Json json = request.to_json();
  EXPECT_EQ(json.at("refine_top_k").as_string(), "all");
  const core::PlanRequest parsed = core::PlanRequest::from_json(json);
  EXPECT_TRUE(parsed.refine_all);

  // Defaults round-trip too: top-K mode emits the integer.
  const util::Json plain = small_plan_request().to_json();
  EXPECT_TRUE(plain.at("refine_top_k").is_int());

  // Only the string "all" is a valid non-integer value, and the rejection
  // must say so.
  try {
    core::PlanRequest::from_json(
        util::Json::parse(R"({"job": {"model": "distilgpt2", "batch": 5},
                              "devices": ["rtx3060"],
                              "refine_top_k": "everything"})"));
    FAIL() << "bogus refine_top_k string accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("refine_top_k"), std::string::npos) << what;
    EXPECT_NE(what.find("\"all\""), std::string::npos) << what;
  }
}

TEST(PlanRequestJson, BadRefineFixtureFailsNamingTheField) {
  std::ifstream in(std::string(XMEM_FIXTURE_DIR) + "/bad_refine.json");
  ASSERT_TRUE(in) << "missing ci/fixtures/bad_refine.json";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    core::PlanRequest::from_json(util::Json::parse(buffer.str()));
    FAIL() << "bad_refine.json parsed successfully";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("refine_top_k"),
              std::string::npos);
  }
}

TEST(PlanReportJson, SchemaFieldsPresentAndTimingFree) {
  core::EstimationService service;
  core::PlanRequest request = small_plan_request();
  request.max_candidates = 2;
  const core::PlanReport report = service.plan(request);

  const util::Json json = report.to_json();
  EXPECT_EQ(json.at("schema_version").as_int(), 1);
  EXPECT_EQ(json.at("job").at("model").as_string(), "distilgpt2");
  EXPECT_TRUE(json.at("single_device").contains("analytic_peak_bytes"));
  EXPECT_EQ(json.at("single_device").at("entries").size(), 3u);
  ASSERT_EQ(json.at("candidates").size(), 2u);
  const util::Json& candidate = json.at("candidates")[0];
  for (const char* key :
       {"data_parallel", "tensor_parallel", "pipeline_stages", "gpus",
        "per_rank_peak_bytes", "savings_pct", "splitting_helps",
        "rank_peaks_bytes", "stages", "fits"}) {
    EXPECT_TRUE(candidate.contains(key)) << key;
  }
  EXPECT_EQ(candidate.at("fits").size(), 3u);
  EXPECT_EQ(json.at("stage_counters").at("profiles_run").as_int(), 1);
  EXPECT_TRUE(json.contains("wall_seconds"));

  const util::Json stable = report.to_json(/*include_timings=*/false);
  EXPECT_FALSE(stable.contains("wall_seconds"));
  EXPECT_FALSE(
      stable.at("single_device").at("entries")[0].contains("timings"));
}

TEST(PlanRequestJson, CiFixtureParses) {
  // The CI plan-smoke fixture must stay parseable with >= 8 candidates'
  // worth of GPU budget — the acceptance sweep `xmem plan` runs in CI.
  std::ifstream in(std::string(XMEM_FIXTURE_DIR) + "/plan_request.json");
  ASSERT_TRUE(in) << "missing ci/fixtures/plan_request.json";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const core::PlanRequest request =
      core::PlanRequest::from_json(util::Json::parse(buffer.str()));
  EXPECT_GE(request.max_gpus, 8);
  EXPECT_FALSE(request.devices.empty());
  // The CI smoke must exercise phase-2 refinement (nonzero
  // replayed_candidates is grepped from the report).
  EXPECT_GT(request.refine_top_k, 0);
}

}  // namespace
}  // namespace xmem
