#include "gpu/ground_truth.h"

#include <algorithm>

namespace xmem::gpu {

GroundTruthResult GroundTruthRunner::run(const fw::ModelDescriptor& model,
                                         fw::OptimizerKind optimizer,
                                         const DeviceModel& device,
                                         const GroundTruthOptions& options) const {
  std::int64_t budget = options.budget_override >= 0 ? options.budget_override
                                                     : device.job_budget();
  budget = std::max(budget, alloc::SimulatedCudaDriver::kPageSize);

  alloc::SimulatedCudaDriver driver(budget);
  alloc::CachingAllocatorSim allocator(driver);
  util::SimClock clock;
  NvmlSampler sampler(clock, driver, /*interval=*/1000,
                      /*record_series=*/false);

  GroundTruthResult result;
  GpuMemoryEnv env(allocator, sampler, &clock,
                   options.record_series ? &result : nullptr);

  fw::ExecOptions exec_options;
  exec_options.iterations = options.iterations;
  exec_options.placement = options.placement;
  exec_options.seed = options.seed;
  exec_options.cudnn_benchmark = options.cudnn_benchmark;

  fw::TrainingExecutor executor(model, optimizer, fw::Backend::kCuda, env,
                                clock, /*profiler=*/nullptr, exec_options);
  try {
    executor.run();
  } catch (const fw::OomError&) {
    result.oom = true;
  }
  sampler.final_sample();

  result.peak_job_bytes = sampler.peak();
  result.peak_reserved_exact = allocator.stats().peak_reserved_bytes;
  result.peak_allocated_exact = allocator.stats().peak_allocated_bytes;
  result.allocator_stats = allocator.stats();
  result.final_snapshot = allocator.snapshot();
  return result;
}

}  // namespace xmem::gpu
