#include "core/profile_session.h"

#include <chrono>
#include <utility>

#include "core/profile_runner.h"
#include "models/zoo.h"

namespace xmem::core {

ProfileKey ProfileKey::of(const TrainJob& job, int profile_iterations,
                          bool orchestrate) {
  ProfileKey key;
  key.model_name = job.model_name;
  key.batch_size = job.batch_size;
  key.optimizer = job.optimizer;
  key.placement = job.placement;
  key.seed = job.seed;
  key.profile_iterations = profile_iterations;
  if (!orchestrate) key.orchestrator_config = {false, false, false, false};
  return key;
}

std::string ProfileKey::cache_string() const {
  std::string key = model_name;
  key += '/';
  key += to_string(optimizer);
  key += "/b";
  key += std::to_string(batch_size);
  key += '/';
  key += to_string(placement);
  key += "/s";
  key += std::to_string(seed);
  key += "/it";
  key += std::to_string(profile_iterations);
  key += "/rules";
  key += orchestrator_config.rule_params ? '1' : '0';
  key += orchestrator_config.rule_batch ? '1' : '0';
  key += orchestrator_config.rule_gradients ? '1' : '0';
  key += orchestrator_config.rule_optimizer_state ? '1' : '0';
  return key;
}

ProfileArtifacts run_profile_pipeline(const ProfileKey& key) {
  ProfileArtifacts artifacts;

  const auto profile_start = std::chrono::steady_clock::now();
  const fw::ModelDescriptor model =
      models::build_model(key.model_name, key.batch_size);

  ProfileOptions profile_options;
  profile_options.iterations = key.profile_iterations;
  profile_options.placement = key.placement;
  profile_options.seed = key.seed;
  // The profile runs in this process, so the analyzer reads it in memory;
  // the Chrome-trace codec is for traces that cross a process.
  artifacts.trace = profile_on_cpu(model, key.optimizer, profile_options);
  const auto analyze_start = std::chrono::steady_clock::now();

  Analyzer analyzer;
  artifacts.analysis = analyzer.analyze(artifacts.trace);

  Orchestrator orchestrator;
  artifacts.orchestration = orchestrator.orchestrate(
      artifacts.analysis.timeline, key.orchestrator_config);

  const auto end = std::chrono::steady_clock::now();
  artifacts.profile_seconds =
      std::chrono::duration<double>(analyze_start - profile_start).count();
  artifacts.analyze_seconds =
      std::chrono::duration<double>(end - analyze_start).count();
  return artifacts;
}

ProfileSession::ProfileSession(std::size_t capacity, SessionQuota quota)
    : capacity_(capacity == 0 ? 1 : capacity), quota_(quota) {}

std::size_t ProfileSession::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t ProfileSession::tenant_resident(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenant_counts_.find(tenant);
  return it == tenant_counts_.end() ? 0 : it->second;
}

std::map<std::string, std::size_t> ProfileSession::resident_by_tenant() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenant_counts_;
}

void ProfileSession::erase_entry_locked(
    std::map<std::string, Entry>::iterator it) {
  const auto count_it = tenant_counts_.find(it->second.tenant);
  if (count_it != tenant_counts_.end()) {
    if (count_it->second <= 1) {
      tenant_counts_.erase(count_it);
    } else {
      --count_it->second;
    }
  }
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

ProfileSession::Lookup ProfileSession::get(const ProfileKey& key,
                                           const std::string& tenant) {
  const std::string cache_key = key.cache_string();
  std::shared_future<ArtifactsPtr> future;
  std::promise<ArtifactsPtr> promise;
  bool miss = false;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(cache_key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      future = it->second.future;
    } else {
      // Quota gate before the insert: the quota path only ever touches the
      // requesting tenant's own entries, so tenant A saturating its share
      // can never evict tenant B this way. The untenanted "" is exempt.
      const bool quota_applies = quota_.max_resident_per_tenant > 0 &&
                                 !tenant.empty();
      const auto tenant_count_it = tenant_counts_.find(tenant);
      if (quota_applies && tenant_count_it != tenant_counts_.end() &&
          tenant_count_it->second >= quota_.max_resident_per_tenant) {
        if (quota_.reject_over_quota) {
          quota_rejections_.fetch_add(1);
          throw QuotaExceededError(tenant, quota_.max_resident_per_tenant);
        }
        // Soft mode: make room with the tenant's own least-recently-used
        // entry (scan the global LRU from the cold end).
        for (auto victim = lru_.rbegin(); victim != lru_.rend(); ++victim) {
          auto victim_it = entries_.find(*victim);
          if (victim_it != entries_.end() &&
              victim_it->second.tenant == tenant) {
            erase_entry_locked(victim_it);
            quota_evictions_.fetch_add(1);
            break;
          }
        }
      }
      miss = true;
      future = promise.get_future().share();
      lru_.push_front(cache_key);
      entries_.emplace(cache_key, Entry{future, lru_.begin(), tenant});
      ++tenant_counts_[tenant];
      // Evict least-recently-used entries beyond capacity. Waiters holding
      // their shared_future copies are unaffected by eviction.
      while (entries_.size() > capacity_) {
        erase_entry_locked(entries_.find(lru_.back()));
      }
    }
  }

  if (!miss) {
    hits_.fetch_add(1);
    return Lookup{future.get(), /*cache_hit=*/true};
  }

  misses_.fetch_add(1);
  try {
    auto artifacts = std::make_shared<const ProfileArtifacts>(
        run_profile_pipeline(key));
    promise.set_value(artifacts);
    return Lookup{std::move(artifacts), /*cache_hit=*/false};
  } catch (...) {
    // Do not cache failures: unblock waiters with the exception, then drop
    // the entry so a later request can retry.
    promise.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(cache_key);
      if (it != entries_.end()) erase_entry_locked(it);
    }
    throw;
  }
}

}  // namespace xmem::core
