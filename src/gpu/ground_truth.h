// Ground-truth runner: executes a training job on the simulated CUDA stack
// (TrainingExecutor -> CachingAllocatorSim -> SimulatedCudaDriver) under a
// real capacity limit, with NVML-style sampling. This plays the role of the
// paper's actual GPU runs — every number the evaluation calls "actual"
// (OOM_jd, M^peak_jid) comes from here.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "alloc/caching_allocator.h"
#include "alloc/cuda_driver_sim.h"
#include "fw/executor.h"
#include "fw/memory_env.h"
#include "gpu/device_model.h"
#include "gpu/nvml_sampler.h"

namespace xmem::gpu {

struct GroundTruthOptions {
  int iterations = 5;
  fw::ZeroGradPlacement placement = fw::ZeroGradPlacement::kPos1IterStart;
  std::uint64_t seed = 1;
  /// Model cuDNN benchmark-mode algorithm search (ablation only; PyTorch's
  /// default is off).
  bool cudnn_benchmark = false;
  /// Override the allocator budget (bytes); < 0 means the device's full
  /// job_budget(). Round-2 validation passes the estimator's prediction.
  std::int64_t budget_override = -1;
  /// Record the reserved/allocated time series (Fig. 1 / Fig. 6 curves).
  bool record_series = false;
};

struct GroundTruthResult {
  bool oom = false;
  /// NVML-sampled peak of the job's driver usage (excludes m_init/m_fm —
  /// the paper subtracts those constants; see DeviceModel).
  std::int64_t peak_job_bytes = 0;
  /// Exact (not sampled) peaks from the allocator, for diagnostics.
  std::int64_t peak_reserved_exact = 0;
  std::int64_t peak_allocated_exact = 0;
  alloc::CachingAllocatorStats allocator_stats;
  /// (time, reserved bytes) and (time, tensor bytes) curves when requested.
  std::vector<std::pair<util::TimeUs, std::int64_t>> reserved_series;
  std::vector<std::pair<util::TimeUs, std::int64_t>> allocated_series;
  /// Segment map at the end of the run (memory_snapshot equivalent).
  std::vector<alloc::SegmentInfo> final_snapshot;
};

/// MemoryEnv running on the two-level CUDA allocator tower. Given a clock
/// and a `series` target, it also records (time, reserved) and (time,
/// allocated) after every alloc/free: the event-granularity Fig. 1 / Fig. 6
/// curves, which the paper draws from the snapshot profiler. The NVML
/// sampler stays the source of the metric peak either way.
class GpuMemoryEnv final : public fw::MemoryEnv {
 public:
  GpuMemoryEnv(alloc::CachingAllocatorSim& allocator, NvmlSampler& sampler,
               const util::SimClock* clock = nullptr,
               GroundTruthResult* series = nullptr)
      : allocator_(allocator),
        sampler_(sampler),
        clock_(clock),
        series_(series) {}

  std::uint64_t alloc(std::int64_t bytes) override {
    const alloc::AllocOutcome outcome = allocator_.allocate(bytes);
    if (outcome.oom) throw fw::OomError(bytes);
    sampler_.poll();
    record();
    return static_cast<std::uint64_t>(outcome.id);
  }

  void free(std::uint64_t handle) override {
    allocator_.free(static_cast<alloc::BlockId>(handle));
    sampler_.poll();
    record();
  }

  std::int64_t total_allocated() const override {
    return allocator_.stats().allocated_bytes;
  }

  void tick() override { sampler_.poll(); }

 private:
  void record() {
    if (clock_ == nullptr || series_ == nullptr) return;
    series_->reserved_series.emplace_back(clock_->now(),
                                          allocator_.stats().reserved_bytes);
    series_->allocated_series.emplace_back(clock_->now(),
                                           allocator_.stats().allocated_bytes);
  }

  alloc::CachingAllocatorSim& allocator_;
  NvmlSampler& sampler_;
  const util::SimClock* clock_;
  GroundTruthResult* series_;
};

class GroundTruthRunner {
 public:
  GroundTruthResult run(const fw::ModelDescriptor& model,
                        fw::OptimizerKind optimizer, const DeviceModel& device,
                        const GroundTruthOptions& options) const;
};

}  // namespace xmem::gpu
