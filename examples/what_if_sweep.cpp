// What-if sweep: the profile-once/estimate-many workflow the service layer
// exists for. One training job is profiled on CPU a single time; the
// EstimationService then replays it once per allocator, concurrently, and
// answers every (device, allocator) combination a scheduler could ask about
// from those replays: the replay has no capacity limit, so each card's
// verdict is just its allocator's peak against the card's budget. The stage
// counters in the report prove the profile ran exactly once.
//
//   ./what_if_sweep [model] [batch] [optimizer]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "alloc/backend_registry.h"
#include "core/estimation_service.h"
#include "models/zoo.h"
#include "util/bytes.h"

int main(int argc, char** argv) {
  using namespace xmem;

  core::EstimateRequest request;
  request.job.model_name = argc > 1 ? argv[1] : "gpt2";
  request.job.batch_size = argc > 2 ? std::atoi(argv[2]) : 16;
  request.job.optimizer = argc > 3 ? fw::optimizer_from_string(argv[3])
                                   : fw::OptimizerKind::kAdamW;
  if (!models::is_known_model(request.job.model_name)) {
    std::fprintf(stderr, "unknown model '%s'\n",
                 request.job.model_name.c_str());
    return 1;
  }
  request.devices = gpu::all_devices();
  request.allocators = alloc::backend_names();

  std::printf("What-if sweep: %s across %zu devices x %zu allocators\n\n",
              request.job.label().c_str(), request.devices.size(),
              request.allocators.size());

  core::EstimationService service;
  const core::EstimateReport report = service.sweep(request);

  // The entry that ran its allocator's replay carries the replay time; the
  // other devices read that replay's peak ("shared").
  std::printf("%-20s %-18s %14s %10s %12s\n", "device", "allocator",
              "est. peak", "verdict", "replay(ms)");
  for (const core::EstimateEntry& entry : report.entries) {
    char replay[32] = "shared";
    if (entry.timings.simulate_seconds > 0.0) {
      std::snprintf(replay, sizeof(replay), "%.2f",
                    entry.timings.simulate_seconds * 1e3);
    }
    std::printf("%-20s %-18s %14s %10s %12s\n", entry.device.c_str(),
                entry.allocator.c_str(),
                util::format_bytes(entry.estimated_peak).c_str(),
                entry.oom_predicted ? "OOM" : "fits", replay);
  }

  std::printf("\nstage counters: %zu CPU profile(s), %zu session hits, %zu "
              "replays (one per allocator), wall %.1f ms\n",
              report.profiles_run, report.profile_cache_hits,
              report.replays_run, report.wall_seconds * 1e3);
  std::printf("The profile ran %zu time(s) and the simulator %zu time(s) for "
              "%zu answers: every device's verdict reads its allocator's "
              "one unbounded peak.\n",
              report.profiles_run, report.replays_run,
              report.entries.size());
  return report.profiles_run == 1 ? 0 : 1;
}
