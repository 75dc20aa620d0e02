// Distributed-training planner — the §6.2 / §6.4(i) extension the paper's
// architecture is "deliberately prepared" for.
//
// The Analyzer's per-layer attribution yields a component-level memory
// profile from a single-node CPU trace; plan_hybrid consumes it to answer
// the questions distributed deployment asks *before* any multi-GPU run.
// One (d, t, p) decomposition composes three dimensions:
//
//   * tensor parallelism (t) — per-component divisible/replicated byte
//     split with an activation-replication model (norms/embeddings stay
//     whole on every rank, matmul shards divide);
//   * data parallelism (d) — batch-sharded activations, replicated (or
//     ZeRO-1/2/3-sharded) persistent state, and the extra resident bytes
//     DDP's gradient-bucket staging adds per rank;
//   * pipeline parallelism (p) — split the sharded layer sequence into
//     contiguous stages so the worst stage's peak memory is minimized,
//     modelling the 1F1B schedule's in-flight micro-batch activations
//     (plus an interleaved-schedule variant with several virtual stages
//     per rank).
//
// A pure dimension is the slice with the other two at 1. The
// EstimationService's plan search enumerates every decomposition of a GPU
// budget and ranks them against candidate devices from ONE cached CPU
// profile.
//
// Everything here is integer arithmetic over a component profile — cheap,
// deterministic, and thread-safe (the planner holds no state), which is
// what lets the hybrid search fan out on a thread pool and still produce
// byte-identical reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/analyzer.h"

namespace xmem::core {

/// Memory footprint of one model component (layer/module), extracted from
/// an analyzed single-node timeline.
struct ComponentProfile {
  std::string component;
  std::int64_t param_bytes = 0;       ///< Module.to persistent blocks
  std::int64_t optimizer_bytes = 0;   ///< persistent step-phase share
  std::int64_t activation_bytes = 0;  ///< saved activations per iteration
  std::int64_t transient_peak = 0;    ///< largest short-lived block

  std::int64_t persistent_bytes() const {
    return param_bytes + optimizer_bytes;
  }
};

/// Ceil integer division — the shard arithmetic every planner dimension
/// (and the rank-sequence transform layer) divides bytes with.
inline std::int64_t ceil_div(std::int64_t value, std::int64_t divisor) {
  return (value + divisor - 1) / divisor;
}

/// Extract per-component profiles (in forward order of first appearance).
/// Optimizer state is apportioned to components proportionally to their
/// parameter bytes (state tensors are parameter-shaped but their trace
/// attribution is the optimizer step, not the layer).
std::vector<ComponentProfile> per_component_profile(
    const MemoryTimeline& timeline);

/// ZeRO-style sharding of the persistent bytes across data-parallel ranks.
/// Each stage shards one more class of per-parameter state by 1/d:
/// kOptimizer = ZeRO-1 (optimizer states), kOptimizerGradient = ZeRO-2
/// (+ gradients), kFull = ZeRO-3 (+ the parameters themselves).
enum class ZeroStage : std::uint8_t {
  kNone = 0,
  kOptimizer = 1,
  kOptimizerGradient = 2,
  kFull = 3,
};
const char* to_string(ZeroStage stage);
/// Map the conventional 0..3 stage number; throws std::invalid_argument.
ZeroStage zero_stage_from_int(int stage);

/// Pipeline schedule. kOneFOneB: stage s of S holds min(S - s, m) in-flight
/// micro-batch activation copies. kInterleaved: each rank holds
/// `virtual_stages` interleaved model chunks; chunk k of rank r behaves
/// like virtual stage r + k*S of an (S * virtual_stages)-deep 1F1B
/// pipeline, and the rank's peak sums its chunks.
enum class PipelineSchedule : std::uint8_t { kOneFOneB, kInterleaved };
const char* to_string(PipelineSchedule schedule);
/// Parse "1f1b" / "interleaved"; throws std::invalid_argument.
PipelineSchedule pipeline_schedule_from_string(const std::string& name);

struct PipelineStage {
  std::size_t first_component = 0;  ///< inclusive index into the profile
  std::size_t last_component = 0;   ///< inclusive
  std::int64_t persistent_bytes = 0;
  std::int64_t activation_bytes = 0;  ///< per full batch
  std::int64_t transient_peak = 0;    ///< largest op workspace in the stage
  std::int64_t estimated_peak = 0;
};

struct TensorParallelOptions {
  int ways = 2;
  /// Percent of a sharded component's activation bytes replicated on every
  /// rank (residual stream, dropout masks) instead of divided.
  int activation_replication_pct = 25;
  /// Components whose name contains any of these substrings are fully
  /// replicated (Megatron keeps norms and embeddings whole per rank).
  std::vector<std::string> replicated_substrings = {"Norm", "Embedding"};
};

/// One point of the hybrid search space: d × t × p GPUs.
struct HybridOptions {
  int data_parallel = 1;
  int tensor_parallel = 1;
  int pipeline_stages = 1;
  int micro_batches = 4;
  PipelineSchedule schedule = PipelineSchedule::kOneFOneB;
  int virtual_stages = 1;
  ZeroStage zero = ZeroStage::kNone;
  std::int64_t ddp_bucket_bytes = std::int64_t{25} * 1024 * 1024;
  int ddp_bucket_count = 2;
  /// TP shard model; `ways` is ignored (taken from tensor_parallel).
  TensorParallelOptions tensor;
};

/// Per-rank memory of one (d, t, p) decomposition. The model composes the
/// three parallelism dimensions: TP shards each component, DP shards the
/// batch (activations) and optionally the persistent state (ZeRO), PP
/// partitions the sharded sequence into stages with in-flight micro-batch
/// accounting. `per_rank_peak` is the worst rank including DDP bucket
/// staging — the number a candidate device must fit.
struct HybridPlan {
  int data_parallel = 1;
  int tensor_parallel = 1;
  int pipeline_stages = 1;
  int gpus = 1;
  /// Contiguous chunks in forward order: one per pipeline rank under
  /// kOneFOneB, `virtual_stages` per rank (round-robin: chunk c lives on
  /// rank c % pipeline_stages) under kInterleaved.
  std::vector<PipelineStage> stages;
  std::vector<std::int64_t> rank_peaks;  ///< per pipeline rank
  std::int64_t per_rank_peak = 0;
  std::int64_t single_device_peak = 0;
};

/// One (d, t, p) decomposition of a GPU budget.
struct Decomposition {
  int data_parallel = 1;
  int tensor_parallel = 1;
  int pipeline_stages = 1;
  int gpus() const { return data_parallel * tensor_parallel * pipeline_stages; }
};

class DistributedPlanner {
 public:
  /// Shard one component across `options.ways` tensor-parallel ranks.
  /// Replicated components (name matches `replicated_substrings`) are
  /// returned unchanged; divisible ones split params/optimizer/transients
  /// by ceil(x / ways) and activations by the replication model.
  ComponentProfile shard_tensor_parallel(
      const ComponentProfile& component,
      const TensorParallelOptions& options) const;

  /// Evaluate one (d, t, p) decomposition. The stage split minimizes the
  /// maximum per-stage peak (binary search over the peak + greedy packing —
  /// optimal for contiguous partitioning of a nonnegative sequence).
  /// Deterministic integer arithmetic: safe to call concurrently from a
  /// sweep fan-out.
  HybridPlan plan_hybrid(const std::vector<ComponentProfile>& profiles,
                         const HybridOptions& options) const;

  /// Single-device reference peak of the component model (one stage, no
  /// micro-batching): params + gradients + optimizer + activations + the
  /// largest transient.
  std::int64_t single_device_peak(
      const std::vector<ComponentProfile>& profiles) const;

  /// All (d, t, p) with d*t*p <= max_gpus and p <= max_pipeline_stages, in
  /// deterministic order (total GPUs, then d, then t).
  static std::vector<Decomposition> enumerate_decompositions(
      int max_gpus, int max_pipeline_stages);
};

}  // namespace xmem::core
