// Ablation bench (DESIGN.md §5): quantify each design choice the paper
// motivates but does not isolate numerically.
//
//   1. Orchestrator off  — raw CPU lifecycles straight into the Simulator
//                          (is §3.3 necessary?)
//   2. cuDNN benchmark   — a GPU-only divergence (iteration-1 algorithm
//                          search) invisible to any CPU trace: how much
//                          error does it add when users enable it?
//   3. One-level vs two-level allocator — DNNMem is effectively the
//                          one-level ablation (compare its row in fig07);
//                          the tensor-sum bound appears in fig06.
#include <cstdio>
#include <vector>

#include "core/estimation_service.h"
#include "eval_scope.h"
#include "eval/report.h"
#include "gpu/ground_truth.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace xmem;
  const auto scope = benchutil::EvalScope::from_args(argc, argv);

  // ---- Ablation 1: Orchestrator off, POS0 workloads (where lifecycle
  // re-timing matters most) ----
  std::printf("Ablation 1: Memory Orchestrator on/off (POS0 placement)\n\n");
  struct Case {
    const char* model;
    int batch;
    fw::OptimizerKind optimizer;
  };
  const std::vector<Case> cases = {
      {"Qwen3-0.6B", 2, fw::OptimizerKind::kSgd},
      {"pythia-1b", 1, fw::OptimizerKind::kAdafactor},
      {"ConvNeXtBase", 400, fw::OptimizerKind::kSgd},
      {"gpt2", 10, fw::OptimizerKind::kSgd},
      {"ResNet152", 300, fw::OptimizerKind::kAdamW},
      {"opt-350m", 5, fw::OptimizerKind::kSgd},
  };
  core::EstimationService service;
  gpu::GroundTruthRunner runner;

  std::vector<double> errors_on, errors_off;
  std::printf("%-16s %6s %-9s %10s %12s %12s\n", "model", "batch", "optim",
              "truth(MB)", "orch err%", "no-orch err%");
  for (const Case& c : cases) {
    core::TrainJob job;
    job.model_name = c.model;
    job.batch_size = c.batch;
    job.optimizer = c.optimizer;
    job.placement = fw::ZeroGradPlacement::kPos0BeforeBackward;
    job.seed = 11;

    const fw::ModelDescriptor model = models::build_model(c.model, c.batch);
    gpu::GroundTruthOptions gt;
    gt.placement = job.placement;
    gt.seed = 11;
    const auto truth = runner.run(model, c.optimizer, gpu::rtx3060(), gt);
    if (truth.oom) continue;

    const auto est_on = service.estimate("xMem", job, gpu::rtx3060());
    const auto est_off = service.estimate("xMem-noOrch", job, gpu::rtx3060());
    const auto err = [&](std::int64_t estimate) {
      return 100.0 *
             std::abs(static_cast<double>(estimate - truth.peak_job_bytes)) /
             static_cast<double>(truth.peak_job_bytes);
    };
    errors_on.push_back(err(est_on.estimated_peak));
    errors_off.push_back(err(est_off.estimated_peak));
    std::printf("%-16s %6d %-9s %10.0f %12.2f %12.2f\n", c.model, c.batch,
                to_string(c.optimizer),
                static_cast<double>(truth.peak_job_bytes) / 1048576.0,
                errors_on.back(), errors_off.back());
  }
  std::printf("\nmedian error: Orchestrator ON %.2f%%  |  OFF %.2f%%\n\n",
              util::median(errors_on), util::median(errors_off));

  // ---- Ablation 2: cuDNN benchmark mode (GPU-only divergence) ----
  std::printf("Ablation 2: cudnn.benchmark=True ground truth vs xMem "
              "(CPU traces cannot see iteration-1 algorithm search)\n\n");
  std::printf("%-16s %6s %14s %14s %10s\n", "model", "batch", "GT off (MB)",
              "GT bench (MB)", "residue");
  for (const Case& c : {Case{"VGG19", 400, fw::OptimizerKind::kSgd},
                        Case{"ResNet152", 300, fw::OptimizerKind::kSgd},
                        Case{"RegNetX400MF", 600, fw::OptimizerKind::kSgd}}) {
    const fw::ModelDescriptor model = models::build_model(c.model, c.batch);
    gpu::GroundTruthOptions gt_off;
    gt_off.seed = 11;
    gpu::GroundTruthOptions gt_bench = gt_off;
    gt_bench.cudnn_benchmark = true;
    const auto off_run = runner.run(model, c.optimizer, gpu::rtx3060(), gt_off);
    const auto bench_run =
        runner.run(model, c.optimizer, gpu::rtx3060(), gt_bench);
    if (off_run.oom || bench_run.oom) continue;
    std::printf("%-16s %6d %14.0f %14.0f %9.1f%%\n", c.model, c.batch,
                static_cast<double>(off_run.peak_job_bytes) / 1048576.0,
                static_cast<double>(bench_run.peak_job_bytes) / 1048576.0,
                100.0 *
                    static_cast<double>(bench_run.peak_job_bytes -
                                        off_run.peak_job_bytes) /
                    static_cast<double>(off_run.peak_job_bytes));
  }
  std::printf("\nAt CIFAR-scale inputs the trial workspaces are largely "
              "covered by the later backward workspaces, so the residue "
              "stays small; it grows with input resolution. Either way it "
              "is invisible to a CPU trace, which is why the substrate "
              "keeps benchmark mode off by default (PyTorch's default "
              "too).\n");
  (void)scope;
  return 0;
}
