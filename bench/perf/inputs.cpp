// Seeded inputs shared by the workloads. A job's own seed (its profiling
// jitter stream) is a hash of its config label, never of the run seed, so a
// config gets the same answer in every run and the output digest of two
// commits can be compared for any run seed.
#include <algorithm>
#include <map>

#include "models/workload.h"
#include "models/zoo.h"
#include "perf.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace xmem::perf {

namespace {

core::TrainJob job_of(const models::TrainConfig& config) {
  core::TrainJob job;
  job.model_name = config.model;
  job.batch_size = config.batch_size;
  job.optimizer = config.optimizer;
  job.placement = config.placement;
  job.seed = fnv1a(config.label());
  return job;
}

template <typename T>
void shuffle(std::vector<T>& values, util::Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.next_below(i)]);
  }
}

std::vector<std::string> grid_model_names() {
  std::vector<std::string> names = models::cnn_model_names();
  for (const std::string& name : models::transformer_model_names()) {
    names.push_back(name);
  }
  return names;
}

}  // namespace

std::size_t models_per_round() { return grid_model_names().size(); }

std::vector<core::TrainJob> stratified_grid_jobs(std::uint64_t seed) {
  const std::vector<std::string> names = grid_model_names();
  util::Rng rng(util::derive_seed(seed, 0xC01D));
  // Per model and optimizer, the batch sizes in a seeded order.
  std::map<std::string, std::vector<std::vector<int>>> batches;
  for (const std::string& name : names) {
    for (std::size_t k = 0; k < models::optimizers_for(name).size(); ++k) {
      std::vector<int> grid = models::batch_grid_for(name);
      shuffle(grid, rng);
      batches[name].push_back(std::move(grid));
    }
  }

  std::vector<core::TrainJob> jobs;
  for (std::size_t round = 0;; ++round) {
    std::vector<std::string> order = names;
    shuffle(order, rng);
    const std::size_t before = jobs.size();
    for (const std::string& name : order) {
      const std::vector<fw::OptimizerKind> optimizers =
          models::optimizers_for(name);
      const std::size_t k = round % optimizers.size();
      const std::vector<int>& grid = batches[name][k];
      const std::size_t b = round / optimizers.size();
      if (b >= grid.size()) continue;
      jobs.push_back(job_of(models::TrainConfig{
          name, optimizers[k], grid[b], fw::ZeroGradPlacement::kPos1IterStart}));
    }
    // Stop at the first round some model has no config left for.
    if (jobs.size() - before < names.size()) {
      jobs.resize(before);
      break;
    }
  }
  return jobs;
}

std::vector<core::TrainJob> archetypes(const std::vector<std::string>& names) {
  std::vector<core::TrainJob> jobs;
  for (const std::string& name : names) {
    const std::vector<int> grid = models::batch_grid_for(name);
    jobs.push_back(job_of(models::TrainConfig{
        name, fw::OptimizerKind::kAdamW, grid[grid.size() / 2],
        fw::ZeroGradPlacement::kPos1IterStart}));
  }
  return jobs;
}

std::map<std::string, alloc::BackendKnobs> seeded_knobs(
    std::uint64_t seed, std::size_t stream_pool_setting) {
  util::Rng rng(seed);
  const std::int64_t mib = util::kMiB;
  std::map<std::string, alloc::BackendKnobs> config;
  config["pytorch-expandable"] = {
      {"page_bytes", pick<std::int64_t>({1, 2, 4}, rng) * mib},
      {"max_split_size_bytes", pick<std::int64_t>({0, 64, 256}, rng) * mib}};
  // Bin ladders that keep growth^max_bin inside 64 bits and start near 512 B.
  const std::int64_t growth = pick<std::int64_t>({2, 4, 8}, rng);
  const std::int64_t min_bin = growth == 2 ? 7 + rng.next_in_range(0, 3)
                               : growth == 4 ? 4 + rng.next_in_range(0, 1)
                                             : 3 + rng.next_in_range(0, 1);
  const std::int64_t max_bin = growth == 2 ? rng.next_in_range(20, 28)
                               : growth == 4 ? rng.next_in_range(10, 14)
                                             : rng.next_in_range(7, 9);
  config["cub-binned"] = {
      {"bin_growth", growth},
      {"min_bin", min_bin},
      {"max_bin", max_bin},
      {"max_cached_bytes", pick<std::int64_t>({0, 64, 256, 1024}, rng) * mib}};
  const std::size_t setting = stream_pool_setting % 9;
  config["stream-pool"] = {
      {"release_threshold_bytes",
       std::vector<std::int64_t>{0, 256, 2048}[setting / 3] * mib},
      {"chunk_bytes", std::vector<std::int64_t>{8, 32, 128}[setting % 3] * mib}};
  return config;
}

gpu::DeviceModel seeded_device(const std::string& name, std::size_t band,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  gpu::DeviceModel device;
  device.name = name;
  device.capacity = (4 + 19 * static_cast<std::int64_t>(band % 4)) * util::kGiB +
                    rng.next_in_range(0, 19 * 1024 - 1) * util::kMiB;
  device.m_init = (256 + rng.next_in_range(0, 255)) * util::kMiB;
  device.m_fm = (512 + rng.next_in_range(0, 255)) * util::kMiB;
  return device;
}

Question sweep_question(const core::TrainJob& job,
                        std::vector<gpu::DeviceModel> devices,
                        std::vector<std::string> allocators) {
  Question question;
  question.kind = Kind::kSweep;
  question.sweep.job = job;
  question.sweep.devices = std::move(devices);
  question.sweep.allocators = std::move(allocators);
  question.sweep.estimators = {"xMem"};
  return question;
}

}  // namespace xmem::perf
