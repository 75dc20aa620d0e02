// ProfileSession tests: direct coverage of the profile-once cache, beyond
// what service_test exercises through the EstimationService.
//
//   * the LRU evicts at capacity and an evicted key re-profiles (misses —
//     i.e. profiles actually run — go up again);
//   * in-flight deduplication: N threads racing the same cold key run ONE
//     profile and all observe the same artifacts;
//   * distinct keys do not dedup against each other;
//   * cache keys distinguish every field that changes the orchestrated
//     sequence;
//   * per-tenant quotas (SessionQuota): a tenant saturating its share
//     self-evicts its own entries (soft) or is rejected with an actionable
//     QuotaExceededError (hard) — and can never evict another tenant's
//     entries through the quota path.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/profile_session.h"

namespace xmem {
namespace {

core::ProfileKey key_for_batch(int batch) {
  core::TrainJob job;
  job.model_name = "distilgpt2";
  job.batch_size = batch;
  job.optimizer = fw::OptimizerKind::kAdamW;
  job.seed = 7;
  return core::ProfileKey::of(job);
}

TEST(ProfileSessionLru, EvictsAtCapacityAndReprofilesEvictedKeys) {
  core::ProfileSession session(/*capacity=*/2);

  session.get(key_for_batch(1));
  session.get(key_for_batch(2));
  EXPECT_EQ(session.size(), 2u);
  EXPECT_EQ(session.misses(), 2u);

  session.get(key_for_batch(3));  // evicts batch=1 (least recently used)
  EXPECT_EQ(session.size(), 2u);
  EXPECT_EQ(session.misses(), 3u);

  // Resident keys are hits and refresh recency.
  session.get(key_for_batch(2));
  EXPECT_EQ(session.hits(), 1u);

  // The evicted key is gone: asking again re-runs the profile.
  const auto relookup = session.get(key_for_batch(1));
  EXPECT_FALSE(relookup.cache_hit);
  EXPECT_EQ(session.misses(), 4u);
  // batch=2 was touched above, so batch=3 was the eviction victim now.
  session.get(key_for_batch(2));
  EXPECT_EQ(session.hits(), 2u);
}

TEST(ProfileSessionLru, RecencyNotInsertionOrderDecidesTheVictim) {
  core::ProfileSession session(/*capacity=*/2);
  session.get(key_for_batch(1));
  session.get(key_for_batch(2));
  session.get(key_for_batch(1));  // bump 1: now 2 is least recent
  session.get(key_for_batch(3));  // must evict 2, not 1
  EXPECT_EQ(session.misses(), 3u);
  session.get(key_for_batch(1));
  EXPECT_EQ(session.hits(), 2u);  // still resident
  session.get(key_for_batch(2));
  EXPECT_EQ(session.misses(), 4u);  // was evicted: re-profiled
}

TEST(ProfileSessionDedup, ConcurrentRequestsForOneKeyRunOneProfile) {
  core::ProfileSession session;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const core::ProfileArtifacts>> artifacts(
      kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&session, &artifacts, i] {
      artifacts[static_cast<std::size_t>(i)] =
          session.get(key_for_batch(4)).artifacts;
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Exactly one CPU profile ran; whoever arrived mid-profile blocked on the
  // shared future instead of profiling again.
  EXPECT_EQ(session.misses(), 1u);
  EXPECT_EQ(session.hits() + session.misses(),
            static_cast<std::uint64_t>(kThreads));
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(artifacts[static_cast<std::size_t>(i)].get(),
              artifacts[0].get());
  }
  ASSERT_NE(artifacts[0], nullptr);
  EXPECT_FALSE(artifacts[0]->analysis.timeline.blocks.empty());
}

TEST(ProfileSessionDedup, DistinctKeysDoNotDedupAgainstEachOther) {
  core::ProfileSession session;
  constexpr int kKeys = 4;
  std::vector<std::thread> threads;
  threads.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    threads.emplace_back(
        [&session, i] { session.get(key_for_batch(i + 1)); });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(session.misses(), static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(session.hits(), 0u);
  EXPECT_EQ(session.size(), static_cast<std::size_t>(kKeys));
}

TEST(ProfileSessionCacheKeys, DistinguishEveryPipelineInput) {
  // Two keys that differ in any sequence-changing field must never share a
  // cache slot.
  std::set<std::string> cache_strings;
  core::ProfileKey base = key_for_batch(2);
  cache_strings.insert(base.cache_string());

  core::ProfileKey variant = base;
  variant.batch_size = 3;
  cache_strings.insert(variant.cache_string());

  variant = base;
  variant.optimizer = fw::OptimizerKind::kSgd;
  cache_strings.insert(variant.cache_string());

  variant = base;
  variant.placement = fw::ZeroGradPlacement::kPos0BeforeBackward;
  cache_strings.insert(variant.cache_string());

  variant = base;
  variant.seed = 99;
  cache_strings.insert(variant.cache_string());

  variant = base;
  variant.profile_iterations = 5;
  cache_strings.insert(variant.cache_string());

  variant = base;
  variant.orchestrator_config.rule_gradients = false;
  cache_strings.insert(variant.cache_string());

  EXPECT_EQ(cache_strings.size(), 7u);
}

TEST(ProfileSessionLru, ZeroCapacityIsClampedToOne) {
  core::ProfileSession session(/*capacity=*/0);
  EXPECT_EQ(session.capacity(), 1u);
  session.get(key_for_batch(1));
  session.get(key_for_batch(2));
  EXPECT_EQ(session.size(), 1u);
  EXPECT_EQ(session.misses(), 2u);
}

TEST(ProfileSessionLru, HitsServeTheIdenticalArtifacts) {
  core::ProfileSession session;
  const auto first = session.get(key_for_batch(5));
  const auto second = session.get(key_for_batch(5));
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.artifacts.get(), second.artifacts.get());
}

TEST(ProfileSessionQuota, SoftQuotaEvictsTheTenantsOwnEntriesOnly) {
  core::SessionQuota quota;
  quota.max_resident_per_tenant = 2;
  core::ProfileSession session(/*capacity=*/8, quota);

  session.get(key_for_batch(1), "alice");
  session.get(key_for_batch(2), "alice");
  session.get(key_for_batch(3), "bob");
  EXPECT_EQ(session.tenant_resident("alice"), 2u);
  EXPECT_EQ(session.tenant_resident("bob"), 1u);

  // Alice is at her limit: her next cold key evicts HER least-recently-used
  // entry (batch 1), never Bob's — even though the global LRU has room.
  session.get(key_for_batch(4), "alice");
  EXPECT_EQ(session.tenant_resident("alice"), 2u);
  EXPECT_EQ(session.tenant_resident("bob"), 1u);
  EXPECT_EQ(session.quota_evictions(), 1u);
  EXPECT_EQ(session.size(), 3u);

  // Bob's entry survived Alice's saturation: re-asking is a hit.
  const std::uint64_t hits_before = session.hits();
  EXPECT_TRUE(session.get(key_for_batch(3), "bob").cache_hit);
  EXPECT_EQ(session.hits(), hits_before + 1);

  // Alice's evicted key is cold again; her resident keys are hits.
  EXPECT_TRUE(session.get(key_for_batch(2), "alice").cache_hit);
  EXPECT_FALSE(session.get(key_for_batch(1), "alice").cache_hit);
}

TEST(ProfileSessionQuota, HardQuotaRejectsNamingTenantAndLimit) {
  core::SessionQuota quota;
  quota.max_resident_per_tenant = 1;
  quota.reject_over_quota = true;
  core::ProfileSession session(/*capacity=*/8, quota);

  session.get(key_for_batch(1), "alice");
  try {
    session.get(key_for_batch(2), "alice");
    FAIL() << "expected QuotaExceededError";
  } catch (const core::QuotaExceededError& error) {
    EXPECT_EQ(error.tenant(), "alice");
    EXPECT_EQ(error.limit(), 1u);
    const std::string message = error.what();
    EXPECT_NE(message.find("alice"), std::string::npos) << message;
    EXPECT_NE(message.find('1'), std::string::npos) << message;
  }
  EXPECT_EQ(session.quota_rejections(), 1u);

  // The rejection left no residue: Alice's resident entry still serves
  // hits, and another tenant profiles the rejected key unimpeded.
  EXPECT_TRUE(session.get(key_for_batch(1), "alice").cache_hit);
  EXPECT_FALSE(session.get(key_for_batch(2), "bob").cache_hit);
  EXPECT_EQ(session.tenant_resident("alice"), 1u);
  EXPECT_EQ(session.tenant_resident("bob"), 1u);
}

TEST(ProfileSessionQuota, HitsOnAnotherTenantsEntryAreFreeAtTheLimit) {
  core::SessionQuota quota;
  quota.max_resident_per_tenant = 1;
  quota.reject_over_quota = true;
  core::ProfileSession session(/*capacity=*/8, quota);

  session.get(key_for_batch(1), "alice");
  session.get(key_for_batch(2), "bob");  // bob now at his limit
  // A hit costs no residency, so bob reading alice's entry must not throw.
  EXPECT_TRUE(session.get(key_for_batch(1), "bob").cache_hit);
  EXPECT_EQ(session.quota_rejections(), 0u);
  EXPECT_EQ(session.tenant_resident("bob"), 1u);
}

TEST(ProfileSessionQuota, UntenantedRequestsAreExempt) {
  core::SessionQuota quota;
  quota.max_resident_per_tenant = 1;
  quota.reject_over_quota = true;
  core::ProfileSession session(/*capacity=*/8, quota);

  // No tenant name: the quota never applies, hard mode or not.
  session.get(key_for_batch(1));
  session.get(key_for_batch(2));
  session.get(key_for_batch(3));
  EXPECT_EQ(session.quota_rejections(), 0u);
  EXPECT_EQ(session.quota_evictions(), 0u);
  EXPECT_EQ(session.size(), 3u);
  const auto by_tenant = session.resident_by_tenant();
  ASSERT_EQ(by_tenant.size(), 1u);
  EXPECT_EQ(by_tenant.at(""), 3u);
}

}  // namespace
}  // namespace xmem
