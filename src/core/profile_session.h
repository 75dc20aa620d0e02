// ProfileSession: the profile-once half of the estimation service.
//
// The expensive prefix of the xMem pipeline (Figure 4) — CPU profile,
// Analyzer, Orchestrator — depends only on the job
// configuration, never on the target device or the allocator backend the
// simulator replays against. A ProfileSession caches that prefix per
// ProfileKey behind a bounded LRU (keyed like the old EvalHarness cache),
// so a what-if sweep over N devices x M allocators costs one profile plus
// N*M cheap simulator replays.
//
// Thread-safe with in-flight deduplication: concurrent requests for the
// same key block on one shared profiling run instead of each profiling.
//
// Multi-tenant: every get() carries an (optional) tenant name, and a
// SessionQuota bounds how many resident cache entries one tenant may hold —
// either by evicting that tenant's own least-recently-used entry (soft
// mode, the server default) or by rejecting the request with a
// QuotaExceededError naming the tenant and the limit (hard mode). Either
// way a tenant saturating its share can never evict another tenant's
// entries through the quota path.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/analyzer.h"
#include "core/estimator_api.h"
#include "core/orchestrator.h"
#include "fw/types.h"
#include "trace/trace.h"

namespace xmem::core {

/// Everything that changes the orchestrated sequence. Two jobs with equal
/// keys share one cached profile.
struct ProfileKey {
  std::string model_name;
  int batch_size = 0;
  fw::OptimizerKind optimizer = fw::OptimizerKind::kSgd;
  fw::ZeroGradPlacement placement = fw::ZeroGradPlacement::kPos1IterStart;
  std::uint64_t seed = 1;
  int profile_iterations = 3;
  /// Orchestrator rule set actually applied (all-false = the §3.3 ablation).
  OrchestratorConfig orchestrator_config;

  /// The key the service files `job` under: every Orchestrator rule on
  /// ("xMem") or every rule off ("xMem-noOrch").
  static ProfileKey of(const TrainJob& job, int profile_iterations = 3,
                       bool orchestrate = true);

  /// Canonical cache-key string, e.g.
  /// "gpt2/AdamW/b8/POS1/s1/it3/rules1111".
  std::string cache_string() const;
};

/// The cached pipeline prefix plus how long each stage took to build it.
struct ProfileArtifacts {
  trace::Trace trace;
  Analyzer::Output analysis;
  Orchestrator::Output orchestration;
  double profile_seconds = 0.0;  ///< model build + CPU execution
  double analyze_seconds = 0.0;  ///< Analyzer + Orchestrator
};

/// Per-tenant bound on the profile LRU. `max_resident_per_tenant == 0`
/// disables the quota; the untenanted name ("") is always exempt.
struct SessionQuota {
  std::size_t max_resident_per_tenant = 0;
  /// false: a tenant at its limit evicts its own least-recently-used entry
  /// (bounded share, keeps serving). true: the request is rejected with a
  /// QuotaExceededError instead — the admission-control posture.
  bool reject_over_quota = false;
};

/// Thrown (hard-quota mode) when a tenant at its resident limit asks for a
/// profile that is not already cached. The message names the tenant and the
/// limit so a client can act on it.
class QuotaExceededError : public std::runtime_error {
 public:
  QuotaExceededError(const std::string& tenant, std::size_t limit)
      : std::runtime_error("tenant '" + tenant +
                           "' over profile quota: at most " +
                           std::to_string(limit) +
                           " resident profiles allowed"),
        tenant_(tenant),
        limit_(limit) {}
  const std::string& tenant() const { return tenant_; }
  std::size_t limit() const { return limit_; }

 private:
  std::string tenant_;
  std::size_t limit_;
};

class ProfileSession {
 public:
  static constexpr std::size_t kDefaultCapacity = 16;

  explicit ProfileSession(std::size_t capacity = kDefaultCapacity,
                          SessionQuota quota = {});

  struct Lookup {
    std::shared_ptr<const ProfileArtifacts> artifacts;
    /// True when this call reused a cached (or in-flight) profile rather
    /// than running one itself.
    bool cache_hit = false;
  };

  /// Return the artifacts for `key`, profiling on a miss. Throws (and does
  /// not cache) if the profile fails, e.g. unknown model name. `tenant`
  /// attributes a miss's cache entry for quota accounting; a hit is free
  /// regardless of who first profiled the key. Throws QuotaExceededError
  /// in hard-quota mode when `tenant` is at its resident limit and the key
  /// is cold.
  Lookup get(const ProfileKey& key, const std::string& tenant = std::string());

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  const SessionQuota& quota() const { return quota_; }
  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  /// Entries evicted because their OWN tenant hit its quota (soft mode).
  std::uint64_t quota_evictions() const { return quota_evictions_.load(); }
  /// Requests rejected with QuotaExceededError (hard mode).
  std::uint64_t quota_rejections() const { return quota_rejections_.load(); }
  /// Resident entry count currently attributed to `tenant`.
  std::size_t tenant_resident(const std::string& tenant) const;
  /// Snapshot of every tenant's resident entry count (tenants with zero
  /// resident entries are omitted; the untenanted "" is included if any).
  std::map<std::string, std::size_t> resident_by_tenant() const;

 private:
  using ArtifactsPtr = std::shared_ptr<const ProfileArtifacts>;

  struct Entry {
    std::shared_future<ArtifactsPtr> future;
    std::list<std::string>::iterator lru_it;
    std::string tenant;
  };

  /// Drop one cache entry (mutex held). Waiters holding shared_future
  /// copies are unaffected.
  void erase_entry_locked(std::map<std::string, Entry>::iterator it);

  mutable std::mutex mutex_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::map<std::string, Entry> entries_;
  std::map<std::string, std::size_t> tenant_counts_;
  std::size_t capacity_;
  SessionQuota quota_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> quota_evictions_{0};
  std::atomic<std::uint64_t> quota_rejections_{0};
};

/// Run the pipeline prefix once, uncached (what a session miss executes).
ProfileArtifacts run_profile_pipeline(const ProfileKey& key);

}  // namespace xmem::core
