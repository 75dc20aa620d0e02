// Distributed-planning example (§6.2): a model that does not fit one GPU is
// profiled on CPU (abundant RAM — the core argument for CPU-side analysis),
// the Analyzer produces per-layer memory data, and the DistributedPlanner
// splits the layer sequence into pipeline stages whose peaks fit the target
// card, modelling 1F1B in-flight micro-batch activations. Also reports the
// DDP gradient-bucket overhead of adding data parallelism per stage.
//
//   ./pipeline_planning [model] [batch] [stages] [micro_batches]
#include <cstdio>
#include <cstdlib>

#include "core/analyzer.h"
#include "core/distributed_planner.h"
#include "core/profile_runner.h"
#include "gpu/device_model.h"
#include "models/zoo.h"
#include "util/bytes.h"

int main(int argc, char** argv) {
  using namespace xmem;
  const std::string model_name = argc > 1 ? argv[1] : "pythia-1b";
  const int batch = argc > 2 ? std::atoi(argv[2]) : 4;
  core::HybridOptions options;
  options.pipeline_stages = argc > 3 ? std::atoi(argv[3]) : 4;
  options.micro_batches = argc > 4 ? std::atoi(argv[4]) : 4;

  if (!models::is_known_model(model_name)) {
    std::fprintf(stderr, "unknown model '%s'\n", model_name.c_str());
    return 1;
  }
  const gpu::DeviceModel device = gpu::rtx3060();

  std::printf("Pipeline planning: %s, batch %d -> %d stages, %d "
              "micro-batches (target: %s)\n\n",
              model_name.c_str(), batch, options.pipeline_stages,
              options.micro_batches, device.name.c_str());

  // CPU-side profile (this is the whole point: the model may not fit any
  // single GPU, but the profiling host has RAM to spare).
  const fw::ModelDescriptor model = models::build_model(model_name, batch);
  const trace::Trace trace =
      core::profile_on_cpu(model, fw::OptimizerKind::kAdamW);
  const auto analysis = core::Analyzer().analyze(trace);

  const auto profiles = core::per_component_profile(analysis.timeline);
  std::printf("per-layer profile: %zu components, e.g.:\n", profiles.size());
  for (std::size_t i = 0; i < profiles.size() && i < 4; ++i) {
    std::printf("  %-34s params %-10s act %-10s transient %s\n",
                profiles[i].component.c_str(),
                util::format_bytes(profiles[i].param_bytes).c_str(),
                util::format_bytes(profiles[i].activation_bytes).c_str(),
                util::format_bytes(profiles[i].transient_peak).c_str());
  }

  core::DistributedPlanner planner;
  const core::HybridPlan plan = planner.plan_hybrid(profiles, options);

  std::printf("\nsingle-device footprint: %s (%s on a %s)\n",
              util::format_bytes(plan.single_device_peak).c_str(),
              plan.single_device_peak > device.job_budget() ? "DOES NOT FIT"
                                                            : "fits",
              device.name.c_str());
  std::printf("\n%-6s %-22s %14s %14s %14s\n", "stage", "components",
              "persistent", "activations", "est. peak");
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    const core::PipelineStage& stage = plan.stages[s];
    char range[32];
    std::snprintf(range, sizeof(range), "[%zu .. %zu]", stage.first_component,
                  stage.last_component);
    std::printf("%-6zu %-22s %14s %14s %14s%s\n", s, range,
                util::format_bytes(stage.persistent_bytes).c_str(),
                util::format_bytes(stage.activation_bytes).c_str(),
                util::format_bytes(stage.estimated_peak).c_str(),
                stage.estimated_peak > device.job_budget() ? "  [too big]"
                                                           : "");
  }
  std::printf("\nmax stage peak %s -> pipeline %s on %d x %s\n",
              util::format_bytes(plan.per_rank_peak).c_str(),
              plan.per_rank_peak > device.job_budget() ? "DOES NOT FIT"
                                                       : "fits",
              options.pipeline_stages, device.name.c_str());
  std::printf("adding data parallelism costs a further %s per rank "
              "(gradient-bucket staging)\n",
              util::format_bytes(options.ddp_bucket_count *
                                 options.ddp_bucket_bytes)
                  .c_str());
  return 0;
}
