#include "core/distributed_planner.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace xmem::core {

namespace {

/// A block is "transient" when its lifetime is a sliver of its iteration —
/// operator workspaces and chain temporaries, not activations.
bool is_transient(const MemoryBlock& block, util::TimeUs iteration_span) {
  if (block.persistent()) return false;
  return (block.free_ts - block.alloc_ts) < iteration_span / 20;
}

}  // namespace

const char* to_string(ZeroStage stage) {
  switch (stage) {
    case ZeroStage::kNone: return "none";
    case ZeroStage::kOptimizer: return "zero1";
    case ZeroStage::kOptimizerGradient: return "zero2";
    case ZeroStage::kFull: return "zero3";
  }
  return "none";
}

ZeroStage zero_stage_from_int(int stage) {
  if (stage < 0 || stage > 3) {
    throw std::invalid_argument("zero_stage must be 0..3, got " +
                                std::to_string(stage));
  }
  return static_cast<ZeroStage>(stage);
}

const char* to_string(PipelineSchedule schedule) {
  switch (schedule) {
    case PipelineSchedule::kOneFOneB: return "1f1b";
    case PipelineSchedule::kInterleaved: return "interleaved";
  }
  return "1f1b";
}

PipelineSchedule pipeline_schedule_from_string(const std::string& name) {
  if (name == "1f1b" || name == "1F1B") return PipelineSchedule::kOneFOneB;
  if (name == "interleaved") return PipelineSchedule::kInterleaved;
  throw std::invalid_argument("unknown pipeline schedule '" + name +
                              "' (1f1b | interleaved)");
}

std::vector<ComponentProfile> per_component_profile(
    const MemoryTimeline& timeline) {
  std::vector<ComponentProfile> profiles;
  std::map<std::string, std::size_t> index_of;
  auto profile_for = [&](const std::string& component) -> ComponentProfile& {
    auto it = index_of.find(component);
    if (it == index_of.end()) {
      it = index_of.emplace(component, profiles.size()).first;
      profiles.push_back(ComponentProfile{component, 0, 0, 0, 0});
    }
    return profiles[it->second];
  };

  const util::TimeUs iteration_span =
      timeline.iterations.empty()
          ? 1
          : timeline.iterations.front().end - timeline.iterations.front().start;

  std::int64_t optimizer_total = 0;
  for (const MemoryBlock& block : timeline.blocks) {
    switch (block.phase) {
      case Phase::kModelLoad:
        profile_for(block.component).param_bytes += block.size;
        break;
      case Phase::kOptimizerStep:
        if (block.persistent()) optimizer_total += block.size;
        break;
      case Phase::kForward: {
        // Count each component's activations once (first iteration with
        // stabilized memory is iteration >= 1; iteration 0 matches it for
        // activations, so restrict to one iteration to avoid double count).
        if (block.iteration == 1 || timeline.iterations.size() == 1) {
          ComponentProfile& p = profile_for(block.component);
          if (is_transient(block, iteration_span)) {
            p.transient_peak = std::max(p.transient_peak, block.size);
          } else {
            p.activation_bytes += block.size;
          }
        }
        break;
      }
      default:
        break;
    }
  }

  // Apportion optimizer state by parameter share.
  std::int64_t param_total = 0;
  for (const ComponentProfile& p : profiles) param_total += p.param_bytes;
  if (param_total > 0 && optimizer_total > 0) {
    for (ComponentProfile& p : profiles) {
      p.optimizer_bytes =
          static_cast<std::int64_t>(static_cast<double>(optimizer_total) *
                                    static_cast<double>(p.param_bytes) /
                                    static_cast<double>(param_total));
    }
  }
  return profiles;
}

namespace {

/// Per-component byte weights the stage solver packs: everything resident
/// per stage (params + gradients + optimizer after any sharding), the
/// per-replica activation bytes, and the largest op workspace.
struct StageWeight {
  std::int64_t persistent = 0;
  std::int64_t activation = 0;
  std::int64_t transient = 0;
};

std::int64_t span_peak(const std::vector<StageWeight>& weights,
                       std::size_t first, std::size_t last, std::size_t index,
                       std::size_t num_stages, int micro_batches) {
  std::int64_t persistent = 0;
  std::int64_t activations = 0;
  std::int64_t transient = 0;
  for (std::size_t i = first; i <= last; ++i) {
    persistent += weights[i].persistent;
    activations += weights[i].activation;
    transient = std::max(transient, weights[i].transient);
  }
  const int in_flight =
      std::min<int>(static_cast<int>(num_stages - index), micro_batches);
  const std::int64_t per_micro = activations / std::max(1, micro_batches);
  return persistent + per_micro * in_flight + transient;
}

/// Can the sequence be packed into `num_stages` contiguous stages with every
/// stage's peak <= `budget`? Fills `out` when it can. Greedy: extend the
/// current stage while it stays under budget. Because later stages hold
/// fewer in-flight micro-batches, we conservatively evaluate each stage with
/// its actual index.
bool try_pack(const std::vector<StageWeight>& weights, std::int64_t budget,
              std::size_t num_stages, int micro_batches,
              std::vector<PipelineStage>* out) {
  std::vector<PipelineStage> stages;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < num_stages && begin < weights.size(); ++s) {
    std::size_t end = begin;
    // The last stage must absorb everything left.
    if (s + 1 == num_stages) {
      end = weights.size() - 1;
      if (span_peak(weights, begin, end, s, num_stages, micro_batches) >
          budget) {
        return false;
      }
    } else {
      while (end + 1 < weights.size() &&
             span_peak(weights, begin, end + 1, s, num_stages,
                       micro_batches) <= budget) {
        ++end;
      }
      if (span_peak(weights, begin, end, s, num_stages, micro_batches) >
          budget) {
        return false;  // a single component exceeds the budget
      }
    }
    PipelineStage stage;
    stage.first_component = begin;
    stage.last_component = end;
    stage.estimated_peak =
        span_peak(weights, begin, end, s, num_stages, micro_batches);
    for (std::size_t i = begin; i <= end; ++i) {
      stage.persistent_bytes += weights[i].persistent;
      stage.activation_bytes += weights[i].activation;
      stage.transient_peak = std::max(stage.transient_peak,
                                      weights[i].transient);
    }
    stages.push_back(stage);
    begin = end + 1;
  }
  if (begin < weights.size()) return false;
  if (out != nullptr) *out = std::move(stages);
  return true;
}

/// Minimize the maximum per-stage peak over contiguous partitions: binary
/// search the budget, then pack at the minimal feasible one.
std::vector<PipelineStage> pack_min_max(const std::vector<StageWeight>& weights,
                                        std::size_t num_stages,
                                        int micro_batches) {
  // Everything in stage 0 with the deepest in-flight count bounds any
  // partition's worst stage from above — and is itself feasible.
  std::int64_t low = 1;
  std::int64_t high = span_peak(weights, 0, weights.size() - 1, 0, num_stages,
                                micro_batches);
  while (low < high) {
    const std::int64_t mid = low + (high - low) / 2;
    if (try_pack(weights, mid, num_stages, micro_batches, nullptr)) {
      high = mid;
    } else {
      low = mid + 1;
    }
  }
  std::vector<PipelineStage> stages;
  try_pack(weights, low, num_stages, micro_batches, &stages);
  return stages;
}

/// Per-rank peaks of a packed (virtual-)stage sequence: rank r owns chunks
/// r, r + p, r + 2p, … — summing their resident bytes, sharing the largest
/// workspace (ops of co-located chunks never overlap in time).
std::vector<std::int64_t> rank_peaks_of(const std::vector<PipelineStage>& chunks,
                                        std::size_t pipeline_stages) {
  const std::size_t ranks =
      std::min(pipeline_stages, std::max<std::size_t>(chunks.size(), 1));
  std::vector<std::int64_t> resident(ranks, 0);
  std::vector<std::int64_t> transient(ranks, 0);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::size_t rank = c % ranks;
    resident[rank] +=
        chunks[c].estimated_peak - chunks[c].transient_peak;
    transient[rank] = std::max(transient[rank], chunks[c].transient_peak);
  }
  std::vector<std::int64_t> peaks(ranks, 0);
  for (std::size_t r = 0; r < ranks; ++r) {
    peaks[r] = resident[r] + transient[r];
  }
  return peaks;
}

}  // namespace

ComponentProfile DistributedPlanner::shard_tensor_parallel(
    const ComponentProfile& component,
    const TensorParallelOptions& options) const {
  const std::int64_t t = std::max(1, options.ways);
  if (t == 1) return component;
  for (const std::string& marker : options.replicated_substrings) {
    if (component.component.find(marker) != std::string::npos) {
      return component;  // norms/embeddings stay whole on every rank
    }
  }
  ComponentProfile sharded = component;
  sharded.param_bytes = ceil_div(component.param_bytes, t);
  sharded.optimizer_bytes = ceil_div(component.optimizer_bytes, t);
  const std::int64_t replicated =
      component.activation_bytes *
      std::clamp(options.activation_replication_pct, 0, 100) / 100;
  sharded.activation_bytes =
      replicated + ceil_div(component.activation_bytes - replicated, t);
  sharded.transient_peak = ceil_div(component.transient_peak, t);
  return sharded;
}

HybridPlan DistributedPlanner::plan_hybrid(
    const std::vector<ComponentProfile>& profiles,
    const HybridOptions& options) const {
  HybridPlan plan;
  plan.data_parallel = std::max(1, options.data_parallel);
  plan.tensor_parallel = std::max(1, options.tensor_parallel);
  plan.pipeline_stages = std::max(1, options.pipeline_stages);
  plan.gpus = plan.data_parallel * plan.tensor_parallel * plan.pipeline_stages;
  if (profiles.empty() || options.micro_batches < 1 ||
      options.virtual_stages < 1) {
    return plan;
  }
  plan.single_device_peak = single_device_peak(profiles);

  // 1) TP shards every component; 2) DP shards the batch (activations) and,
  // under ZeRO, the persistent state; 3) PP packs the resulting weights.
  TensorParallelOptions tensor = options.tensor;
  tensor.ways = plan.tensor_parallel;
  const std::int64_t d = plan.data_parallel;
  std::vector<StageWeight> weights(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const ComponentProfile sharded =
        shard_tensor_parallel(profiles[i], tensor);
    const std::int64_t params =
        options.zero >= ZeroStage::kFull ? ceil_div(sharded.param_bytes, d)
                                         : sharded.param_bytes;
    const std::int64_t gradients =
        options.zero >= ZeroStage::kOptimizerGradient
            ? ceil_div(sharded.param_bytes, d)
            : sharded.param_bytes;
    const std::int64_t optimizer =
        options.zero >= ZeroStage::kOptimizer
            ? ceil_div(sharded.optimizer_bytes, d)
            : sharded.optimizer_bytes;
    weights[i].persistent = params + gradients + optimizer;
    weights[i].activation = ceil_div(sharded.activation_bytes, d);
    weights[i].transient = sharded.transient_peak;
  }

  const auto ranks = static_cast<std::size_t>(plan.pipeline_stages);
  const std::size_t chunks_per_rank =
      options.schedule == PipelineSchedule::kInterleaved
          ? static_cast<std::size_t>(options.virtual_stages)
          : 1;
  plan.stages =
      pack_min_max(weights, ranks * chunks_per_rank, options.micro_batches);
  plan.rank_peaks = rank_peaks_of(plan.stages, ranks);
  const std::int64_t bucket_overhead =
      d > 1 ? options.ddp_bucket_count * options.ddp_bucket_bytes : 0;
  for (std::int64_t& peak : plan.rank_peaks) {
    peak += bucket_overhead;
    plan.per_rank_peak = std::max(plan.per_rank_peak, peak);
  }
  return plan;
}

std::int64_t DistributedPlanner::single_device_peak(
    const std::vector<ComponentProfile>& profiles) const {
  // Gradients mirror parameters; every activation is resident at once.
  std::int64_t resident = 0;
  std::int64_t transient = 0;
  for (const ComponentProfile& c : profiles) {
    resident += c.persistent_bytes() + c.param_bytes + c.activation_bytes;
    transient = std::max(transient, c.transient_peak);
  }
  return resident + transient;
}

std::vector<Decomposition> DistributedPlanner::enumerate_decompositions(
    int max_gpus, int max_pipeline_stages) {
  std::vector<Decomposition> decompositions;
  for (int n = 1; n <= max_gpus; ++n) {
    for (int d = 1; d <= n; ++d) {
      if (n % d != 0) continue;
      const int td = n / d;
      for (int t = 1; t <= td; ++t) {
        if (td % t != 0) continue;
        const int p = td / t;
        if (p > std::max(1, max_pipeline_stages)) continue;
        decompositions.push_back(Decomposition{d, t, p});
      }
    }
  }
  return decompositions;
}

}  // namespace xmem::core
