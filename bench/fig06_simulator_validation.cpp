// Figure 6 reproduction: compare the real segment usage over time (from the
// ground-truth run's snapshot-style series — the paper uses the PyTorch
// Snapshot Profiler) against xMem's simulated segment usage, for the same
// three models the paper plots.
//
// Also reports the Horus-style "sum of live tensors" lower bound (the
// no-allocator ablation from DESIGN.md §5) to show why allocator modelling
// matters.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/profile_session.h"
#include "core/simulator.h"
#include "gpu/ground_truth.h"
#include "models/zoo.h"
#include "util/bytes.h"

int main() {
  using namespace xmem;
  struct Workload {
    const char* model;
    int batch;
    fw::OptimizerKind optimizer;
  };
  const Workload workloads[] = {
      {"distilgpt2", 10, fw::OptimizerKind::kAdamW},
      {"gpt-neo-125M", 10, fw::OptimizerKind::kAdamW},
      {"ConvNeXtBase", 500, fw::OptimizerKind::kAdamW},
  };
  const gpu::DeviceModel device = gpu::rtx3060();
  core::ProfileSession session;
  std::printf("Figure 6: real vs simulated segment usage (device: %s)\n\n",
              device.name.c_str());

  for (const Workload& w : workloads) {
    // Real: ground-truth run with series recording.
    const fw::ModelDescriptor model = models::build_model(w.model, w.batch);
    gpu::GroundTruthRunner runner;
    gpu::GroundTruthOptions gt_options;
    gt_options.record_series = true;
    gt_options.seed = 33;
    const gpu::GroundTruthResult real =
        runner.run(model, w.optimizer, device, gt_options);

    // Simulated: the xMem profile prefix, replayed with curve output.
    core::TrainJob job;
    job.model_name = w.model;
    job.batch_size = w.batch;
    job.optimizer = w.optimizer;
    job.seed = 33;
    core::SimulationOptions sim_options;
    sim_options.record_series = true;
    const core::SimulationResult simulation = core::MemorySimulator().replay(
        session.get(core::ProfileKey::of(job)).artifacts->orchestration.sequence,
        sim_options);

    std::printf("%s (batch %d, %s):\n", w.model, w.batch,
                to_string(w.optimizer));
    if (real.oom) {
      std::printf("  ground truth OOM; skipping curve comparison\n\n");
      continue;
    }
    // Tensor-sum lower bound (Horus-style): peak of live tensor bytes.
    const std::int64_t tensor_sum_peak = simulation.peak_allocated;

    std::printf("  real  segment curve |%s| peak %s\n",
                benchutil::sparkline(
                    benchutil::downsample_max(real.reserved_series, 72))
                    .c_str(),
                util::format_bytes(real.peak_reserved_exact).c_str());
    std::printf("  sim   segment curve |%s| peak %s\n",
                benchutil::sparkline(benchutil::downsample_max(
                                         simulation.reserved_series,
                                         72))
                    .c_str(),
                util::format_bytes(simulation.peak_reserved).c_str());
    const double correlation = benchutil::curve_correlation(
        real.reserved_series, simulation.reserved_series);
    const double peak_error =
        100.0 *
        std::abs(static_cast<double>(simulation.peak_reserved -
                                     real.peak_reserved_exact)) /
        static_cast<double>(real.peak_reserved_exact);
    std::printf("  curve correlation %.3f; segment-peak error %.2f%%\n",
                correlation, peak_error);
    std::printf("  tensor-sum-only estimate (no allocator model): %s "
                "(misses %s of segment memory)\n\n",
                util::format_bytes(tensor_sum_peak).c_str(),
                util::format_bytes(real.peak_reserved_exact - tensor_sum_peak)
                    .c_str());
  }
  std::printf("Paper shape: simulated segment curves track the snapshot "
              "profiler's real curves closely for all three models.\n");
  return 0;
}
