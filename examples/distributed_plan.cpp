// Multi-GPU planning walkthrough (§6.2/§6.4(i)): one CPU profile answers
// the questions a cluster operator asks before reserving hardware —
//
//   1. does the job fit one card at all (single-device replay entries)?
//   2. if not (or not comfortably), which DP x TP x PP decomposition of an
//      N-GPU budget makes it fit, and at what per-rank peak?
//   3. what do the best candidates cost once their per-rank sequences are
//      replayed through the real allocator tower (phase-2 refinement) —
//      and does any verdict flip versus the analytic arithmetic?
//   4. how do ZeRO stages change the data-parallel memory bill?
//
// The whole two-phase search — every decomposition of the budget plus the
// top-K per-rank replays, judged against every candidate card — runs
// exactly ONE profile through the shared ProfileSession; the report's
// stage counters prove it.
//
//   ./distributed_plan [model] [batch] [max_gpus]
#include <cstdio>
#include <cstdlib>

#include "core/distributed_planner.h"
#include "core/estimation_service.h"
#include "models/zoo.h"
#include "util/bytes.h"

int main(int argc, char** argv) {
  using namespace xmem;
  core::PlanRequest request;
  request.job.model_name = argc > 1 ? argv[1] : "gpt2";
  request.job.batch_size = argc > 2 ? std::atoi(argv[2]) : 8;
  request.job.optimizer = fw::OptimizerKind::kAdamW;
  request.max_gpus = argc > 3 ? std::atoi(argv[3]) : 8;
  request.devices = {gpu::rtx3060(), gpu::rtx4060(), gpu::a100_40gb()};
  request.zero = core::ZeroStage::kOptimizer;
  request.max_candidates = 8;
  request.refine_top_k = 3;

  if (!models::is_known_model(request.job.model_name)) {
    std::fprintf(stderr, "unknown model '%s'\n",
                 request.job.model_name.c_str());
    return 1;
  }

  std::printf("Plan search: %s, budget %d GPUs, ZeRO-%d, %d micro-batches\n\n",
              request.job.label().c_str(), request.max_gpus,
              static_cast<int>(request.zero), request.micro_batches);

  core::EstimationService service;
  const core::PlanReport report = service.plan(request);

  std::printf("single-device analytic peak: %s\n",
              util::format_bytes(report.single_device_peak).c_str());
  for (const core::EstimateEntry& entry : report.single_device_entries) {
    std::printf("  %-20s replay peak %-10s -> %s\n", entry.device.c_str(),
                util::format_bytes(entry.estimated_peak).c_str(),
                entry.oom_predicted ? "DOES NOT FIT" : "fits");
  }

  std::printf("\nranked decompositions (best first):\n");
  std::printf("%4s %4s %4s %5s %14s %8s  %s\n", "dp", "tp", "pp", "gpus",
              "per-rank peak", "savings", "fits");
  for (const core::PlanCandidate& candidate : report.candidates) {
    std::string verdicts;
    for (std::size_t d = 0; d < report.devices.size(); ++d) {
      verdicts += candidate.device_fits[d] ? 'Y' : 'n';
    }
    std::printf("%4d %4d %4d %5d %14s %7d%%  %s\n",
                candidate.plan.data_parallel, candidate.plan.tensor_parallel,
                candidate.plan.pipeline_stages, candidate.plan.gpus,
                util::format_bytes(candidate.plan.per_rank_peak).c_str(),
                candidate.savings_pct, verdicts.c_str());
  }

  std::printf("\nphase-2 refinement (top %d candidates, allocator '%s'):\n",
              request.refine_top_k, request.allocator.c_str());
  for (const core::PlanCandidate& candidate : report.candidates) {
    if (!candidate.replayed) continue;
    std::printf("  d%d t%d p%d: analytic %-10s replayed %-10s (%+d%%)%s\n",
                candidate.plan.data_parallel, candidate.plan.tensor_parallel,
                candidate.plan.pipeline_stages,
                util::format_bytes(candidate.plan.per_rank_peak).c_str(),
                util::format_bytes(candidate.replayed_per_rank_peak).c_str(),
                candidate.analytic_vs_replayed_pct,
                candidate.verdict_changed ? "  << verdict changed" : "");
  }

  // The analytic slices the hybrid model composes, for context: what pure
  // DP costs per ZeRO stage at the full budget.
  const core::ProfileSession::Lookup lookup =
      service.session().get(core::ProfileKey::of(request.job));
  const auto profiles =
      core::per_component_profile(lookup.artifacts->analysis.timeline);
  core::DistributedPlanner planner;
  std::printf("\npure data parallelism at d=%d:\n", request.max_gpus);
  for (int zero = 0; zero <= 3; ++zero) {
    core::HybridOptions dp;
    dp.data_parallel = request.max_gpus;
    dp.micro_batches = 1;
    dp.zero = core::zero_stage_from_int(zero);
    const core::HybridPlan plan = planner.plan_hybrid(profiles, dp);
    std::printf("  ZeRO-%d: per-rank %-10s (persistent %s, activations %s)\n",
                zero, util::format_bytes(plan.per_rank_peak).c_str(),
                util::format_bytes(plan.stages[0].persistent_bytes).c_str(),
                util::format_bytes(plan.stages[0].activation_bytes).c_str());
  }

  std::printf("\nprofiles run for the whole search: %zu (profile-once)\n",
              report.profiles_run);
  return 0;
}
