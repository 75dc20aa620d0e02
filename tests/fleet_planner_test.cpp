// FleetPlanner tests: the fleet packing contract (docs/SCHEDULER.md).
//
//   * packing invariants — every admitted placement fits its slot budget,
//     multi-rank jobs land on distinct GPUs, verdict counts add up, and
//     fleet percentages stay in range on 2^50-byte cards up to the
//     kMaxFleetGpus limit;
//   * best-fit-decreasing admits at least as many jobs as first-fit on an
//     identical fleet (and whole-gpu admits at most as many as either);
//   * profile-once at fleet scale: a 200-job queue drawn from 5 archetypes
//     runs exactly 5 CPU profiles;
//   * serial and ThreadPool-fanned packs render byte-identical reports;
//   * a planner reused across requests packs each as a fresh planner would:
//     no archetype leaks from one request into the next;
//   * what-if deltas: admitted_delta/newly_admitted arithmetic vs two
//     independent packs;
//   * jobs past the 2^50-byte replay ceiling are rejected alone, naming the
//     ceiling, with one profile per archetype;
//   * request JSON round-trips and malformed documents name the bad field;
//     unknown models are rejected before any profile runs.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/estimation_service.h"
#include "sched/fleet_planner.h"
#include "sched/packing_policy.h"
#include "util/json.h"

namespace xmem {
namespace {

core::TrainJob make_job(const std::string& model, int batch,
                        fw::OptimizerKind optimizer) {
  core::TrainJob job;
  job.model_name = model;
  job.batch_size = batch;
  job.optimizer = optimizer;
  job.seed = 7;
  return job;
}

sched::FleetJob fleet_job(const std::string& id, const core::TrainJob& job,
                          int priority = 0) {
  sched::FleetJob entry;
  entry.id = id;
  entry.job = job;
  entry.priority = priority;
  return entry;
}

/// A small mixed queue over a 3060-heavy fleet: big jobs contend, small
/// jobs slot into the gaps.
sched::FleetRequest small_request() {
  sched::FleetRequest request;
  request.jobs = {
      fleet_job("big-0", make_job("gpt2", 8, fw::OptimizerKind::kAdamW), 1),
      fleet_job("small-0",
                make_job("distilgpt2", 5, fw::OptimizerKind::kSgd)),
      fleet_job("big-1", make_job("gpt2", 8, fw::OptimizerKind::kAdamW)),
      fleet_job("small-1",
                make_job("distilgpt2", 5, fw::OptimizerKind::kSgd)),
  };
  request.pools = {{gpu::rtx3060(), 2}, {gpu::a100_40gb(), 1}};
  request.headroom.base.percent = 5;
  return request;
}

/// Sum of committed bytes per slot from the verdicts, to cross-check the
/// report's per-GPU states.
std::map<std::pair<std::size_t, int>, std::int64_t> committed_by_slot(
    const sched::FleetReport& report) {
  std::map<std::pair<std::size_t, int>, std::int64_t> committed;
  for (const sched::JobVerdict& verdict : report.verdicts) {
    for (const sched::Placement& placement : verdict.placements) {
      committed[{placement.pool, placement.index}] +=
          placement.committed_bytes;
    }
  }
  return committed;
}

// ---------- packing invariants ----------

TEST(FleetPack, PlacementsRespectBudgetsAndVerdictCountsAddUp) {
  core::EstimationService service;
  const sched::FleetReport report = service.fleet(small_request());

  ASSERT_EQ(report.verdicts.size(), 4u);
  int admitted = 0, deferred = 0, rejected = 0;
  for (const sched::JobVerdict& verdict : report.verdicts) {
    switch (verdict.verdict) {
      case sched::Verdict::kAdmit:
        admitted += 1;
        EXPECT_GT(verdict.gpus, 0) << verdict.id;
        EXPECT_EQ(verdict.placements.size(),
                  static_cast<std::size_t>(verdict.gpus));
        break;
      case sched::Verdict::kDefer:
        deferred += 1;
        EXPECT_FALSE(verdict.reason.empty());
        break;
      case sched::Verdict::kReject:
        rejected += 1;
        EXPECT_FALSE(verdict.reason.empty());
        break;
    }
  }
  EXPECT_EQ(admitted, report.stats.admitted);
  EXPECT_EQ(deferred, report.stats.deferred);
  EXPECT_EQ(rejected, report.stats.rejected);
  EXPECT_EQ(admitted + deferred + rejected, report.stats.jobs);

  // The per-GPU states agree with the placements, and nothing overflows.
  const auto committed = committed_by_slot(report);
  for (const sched::GpuState& gpu : report.gpus) {
    const auto it = committed.find({gpu.pool, gpu.index});
    const std::int64_t expect = it == committed.end() ? 0 : it->second;
    EXPECT_EQ(gpu.committed_bytes, expect)
        << "pool " << gpu.pool << " index " << gpu.index;
    EXPECT_LE(gpu.committed_bytes, gpu.budget_bytes);
    EXPECT_LE(gpu.predicted_bytes, gpu.committed_bytes);
  }
  EXPECT_EQ(report.stats.waste_bytes,
            report.stats.committed_bytes - report.stats.predicted_bytes);
  EXPECT_EQ(report.counters.pools_repacked, 2u);
}

TEST(FleetPack, MultiRankJobsLandOnDistinctGpus) {
  // Qwen3-0.6B at batch 8 overflows a single 3060 but splits across the
  // pool via the DistributedPlanner fallback.
  sched::FleetRequest request;
  request.jobs = {fleet_job(
      "huge", make_job("Qwen3-0.6B", 8, fw::OptimizerKind::kAdamW))};
  request.pools = {{gpu::rtx3060(), 4}};
  request.max_gpus_per_job = 4;

  core::EstimationService service;
  const sched::FleetReport report = service.fleet(request);
  ASSERT_EQ(report.verdicts.size(), 1u);
  const sched::JobVerdict& verdict = report.verdicts[0];
  ASSERT_EQ(verdict.verdict, sched::Verdict::kAdmit) << verdict.reason;
  ASSERT_GT(verdict.gpus, 1);
  EXPECT_FALSE(verdict.split.empty());
  EXPECT_EQ(report.counters.plans_run, 1u);

  std::set<std::pair<std::size_t, int>> distinct;
  for (const sched::Placement& placement : verdict.placements) {
    EXPECT_TRUE(distinct.insert({placement.pool, placement.index}).second)
        << "two ranks share one GPU";
  }
}

TEST(FleetPack, RejectNamesTheReasonWhenNothingFits) {
  sched::FleetRequest request;
  request.jobs = {fleet_job(
      "huge", make_job("Qwen3-0.6B", 8, fw::OptimizerKind::kAdamW))};
  request.pools = {{gpu::rtx3060(), 1}};  // no room to split
  request.max_gpus_per_job = 1;

  core::EstimationService service;
  const sched::FleetReport report = service.fleet(request);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].verdict, sched::Verdict::kReject);
  EXPECT_NE(report.verdicts[0].reason.find("max_gpus_per_job"),
            std::string::npos);
  EXPECT_EQ(report.stats.rejected, 1);
}

TEST(FleetPack, LimitsAtTheirCapsKeepEveryDemandInRange) {
  // The largest headroom the schema accepts (1 PiB plus 10x the peak), the
  // largest GPU budget and the largest card (1 PiB). Nothing fits, even
  // split 1024 ways: no card's budget reaches 1 PiB plus the peak. With a
  // quarter of the absolute headroom every job fits, two per largest card.
  // Every demand stays a positive int64 (the ASan/UBSan tree aborts on
  // signed overflow).
  const std::int64_t max_bytes = std::int64_t{1} << 50;
  const sched::HeadroomRule cap{max_bytes, 1000};
  sched::FleetRequest request = small_request();
  request.headroom.base = cap;
  request.headroom.per_device[gpu::rtx3060().name] = cap;
  request.max_gpus_per_job = 1024;
  request.pools.push_back(
      {gpu::DeviceModel{"Vast-1PiB", max_bytes, 0, 0}, 2});

  core::EstimationService service;
  const auto expect_demands_in_range = [](const sched::FleetReport& report,
                                          std::int64_t absolute_bytes) {
    for (const sched::JobVerdict& verdict : report.verdicts) {
      ASSERT_TRUE(verdict.supported) << verdict.id;
      EXPECT_GT(verdict.predicted_peak, 0) << verdict.id;
      EXPECT_GE(verdict.headroom_bytes, absolute_bytes) << verdict.id;
      EXPECT_GT(verdict.demand_bytes, verdict.predicted_peak) << verdict.id;
    }
  };
  const sched::FleetReport rejected = service.fleet(request);
  expect_demands_in_range(rejected, max_bytes);
  EXPECT_EQ(rejected.stats.admitted, 0);

  request.headroom.base.absolute_bytes = max_bytes / 4;
  const sched::FleetReport admitted = service.fleet(request);
  expect_demands_in_range(admitted, max_bytes / 4);
  EXPECT_EQ(admitted.stats.admitted, 4);
  for (const sched::GpuState& gpu : admitted.gpus) {
    EXPECT_LE(gpu.committed_bytes, gpu.budget_bytes);
  }
}

TEST(FleetPack, PercentagesOfPebibyteCardsStayInRange) {
  // whole-gpu commits each card's full 2^50-byte budget, so 100 * committed
  // bytes outgrows int64 long before the fleet is full. 100 jobs on 100
  // cards commit everything; a fleet at the GPU limit, one job per card,
  // commits everything too, while predicted bytes stay a sliver of it. The
  // ASan/UBSan tree aborts on a signed overflow.
  const gpu::DeviceModel vast{"Vast-1PiB", std::int64_t{1} << 50, 0, 0};
  const auto whole_gpu_pack = [&vast](int cards) {
    sched::FleetRequest request;
    for (int i = 0; i < cards; ++i) {
      request.jobs.push_back(fleet_job(
          "j" + std::to_string(i),
          make_job("distilgpt2", 2, fw::OptimizerKind::kAdamW)));
    }
    request.pools = {{vast, cards}};
    request.policy = "whole-gpu";
    core::ServiceOptions options;
    options.threads = 1;
    core::EstimationService service(options);
    return service.fleet(request).stats;
  };
  const sched::FleetStats hundred = whole_gpu_pack(100);
  EXPECT_EQ(hundred.admitted, 100);
  EXPECT_EQ(hundred.committed_pct, 100);
  EXPECT_EQ(hundred.utilization_pct, 0);
  EXPECT_EQ(hundred.fragmentation_pct, 0);

  const sched::FleetStats full = whole_gpu_pack(sched::kMaxFleetGpus);
  EXPECT_EQ(full.gpus_total, sched::kMaxFleetGpus);
  EXPECT_EQ(full.admitted, sched::kMaxFleetGpus);
  EXPECT_EQ(full.total_budget_bytes, std::int64_t{sched::kMaxFleetGpus} << 50);
  EXPECT_EQ(full.committed_pct, 100);
  EXPECT_EQ(full.utilization_pct, 0);
  EXPECT_EQ(full.fragmentation_pct, 0);
}

TEST(FleetPack, PriorityOutranksQueuePosition) {
  // Two gpt2/b8 jobs contend for one 3060; the later, higher-priority job
  // must win the slot.
  sched::FleetRequest request;
  request.jobs = {
      fleet_job("first", make_job("gpt2", 8, fw::OptimizerKind::kAdamW), 0),
      fleet_job("vip", make_job("gpt2", 8, fw::OptimizerKind::kAdamW), 5),
  };
  request.pools = {{gpu::rtx3060(), 1}};
  request.max_gpus_per_job = 1;

  core::EstimationService service;
  const sched::FleetReport report = service.fleet(request);
  ASSERT_EQ(report.verdicts.size(), 2u);
  // Verdicts render in arrival order; the admission went to the VIP.
  EXPECT_EQ(report.verdicts[0].id, "first");
  EXPECT_EQ(report.verdicts[0].verdict, sched::Verdict::kDefer);
  EXPECT_EQ(report.verdicts[1].id, "vip");
  EXPECT_EQ(report.verdicts[1].verdict, sched::Verdict::kAdmit);
}

// ---------- policy comparisons ----------

TEST(FleetPolicies, BfdAdmitsAtLeastAsManyAsFirstFitAndWholeGpuTrails) {
  // The classic two-bin queue that punishes queue-order packing: smalls
  // arrive first and squat where the bigs need to go. First-fit stacks
  // both smalls on GPU 0 and strands one big; BFD places the bigs first
  // and fits all four (small ~4.4 GB, big ~7.2 GB demand, 11.96 GB budget).
  sched::FleetRequest request;
  for (int i = 0; i < 2; ++i) {
    request.jobs.push_back(fleet_job(
        "small-" + std::to_string(i),
        make_job("distilgpt2", 5, fw::OptimizerKind::kSgd)));
  }
  for (int i = 0; i < 2; ++i) {
    request.jobs.push_back(fleet_job(
        "big-" + std::to_string(i),
        make_job("distilgpt2", 10, fw::OptimizerKind::kSgd)));
  }
  request.pools = {{gpu::rtx3060(), 2}};
  request.headroom.base.percent = 5;
  request.max_gpus_per_job = 1;

  core::EstimationService service;
  std::map<std::string, sched::FleetStats> stats;
  for (const std::string& policy : sched::packing_policy_names()) {
    sched::FleetRequest variant = request;
    variant.policy = policy;
    stats[policy] = service.fleet(variant).stats;
  }

  EXPECT_GT(stats["best-fit-decreasing"].admitted,
            stats["first-fit"].admitted);
  EXPECT_LE(stats["whole-gpu"].admitted,
            stats["best-fit-decreasing"].admitted);
  // whole-gpu commits entire budgets: utilization (predicted/budget) is
  // strictly worse than BFD's whenever both admit anything.
  EXPECT_LT(stats["whole-gpu"].utilization_pct,
            stats["best-fit-decreasing"].utilization_pct);
  EXPECT_GT(stats["whole-gpu"].waste_bytes,
            stats["best-fit-decreasing"].waste_bytes);
}

// ---------- profile-once at fleet scale ----------

TEST(FleetScale, TwoHundredJobsFromFiveArchetypesProfileFiveTimes) {
  const std::vector<core::TrainJob> archetypes = {
      make_job("distilgpt2", 5, fw::OptimizerKind::kAdamW),
      make_job("distilgpt2", 10, fw::OptimizerKind::kSgd),
      make_job("gpt2", 5, fw::OptimizerKind::kAdamW),
      make_job("MobileNetV2", 200, fw::OptimizerKind::kSgd),
      make_job("T5-small", 5, fw::OptimizerKind::kAdamW),
  };
  sched::FleetRequest request;
  for (int i = 0; i < 200; ++i) {
    request.jobs.push_back(fleet_job("job-" + std::to_string(i),
                                     archetypes[i % archetypes.size()]));
  }
  request.pools = {{gpu::rtx3060(), 8}, {gpu::a100_40gb(), 4}};
  request.policy = "best-fit-decreasing";
  request.max_gpus_per_job = 1;

  core::EstimationService service;
  const sched::FleetReport report = service.fleet(request);
  EXPECT_EQ(report.stats.jobs, 200);
  EXPECT_EQ(report.stats.distinct_jobs, 5);
  EXPECT_EQ(report.counters.profiles_run, 5u);
  EXPECT_EQ(report.counters.estimates_reused, 195u);
  EXPECT_GT(report.stats.admitted, 0);
}

// ---------- determinism ----------

TEST(FleetDeterminism, SerialAndThreadedPacksRenderIdentically) {
  sched::FleetRequest request = small_request();
  request.policy = "best-fit-decreasing";

  core::ServiceOptions serial_options;
  serial_options.threads = 1;
  core::EstimationService serial_service(serial_options);
  sched::FleetPlannerOptions serial_planner;
  serial_planner.threads = 1;
  sched::FleetPlanner serial(serial_service, serial_planner);

  core::ServiceOptions threaded_options;
  threaded_options.threads = 4;
  core::EstimationService threaded_service(threaded_options);
  sched::FleetPlannerOptions threaded_planner;
  threaded_planner.threads = 4;
  sched::FleetPlanner threaded(threaded_service, threaded_planner);

  const std::string serial_text =
      serial.pack(request).to_json(/*include_timings=*/false).dump(2);
  const std::string threaded_text =
      threaded.pack(request).to_json(/*include_timings=*/false).dump(2);
  EXPECT_EQ(serial_text, threaded_text);
}

// ---------- one planner, many requests ----------

/// The packing outcome of a report, without counters (which record cache
/// state) and timings.
std::string packing_fingerprint(const sched::FleetReport& report) {
  util::Json json = report.to_json(/*include_timings=*/false);
  util::Json fingerprint = util::Json::object();
  for (const char* key :
       {"policy", "pools", "verdicts", "gpus", "stats", "what_if"}) {
    if (json.contains(key)) fingerprint[key] = json.at(key);
  }
  return fingerprint.dump(2);
}

TEST(FleetPlannerReuse, EachPackEqualsAFreshPlanner) {
  // The same queue under two estimation setups: B changes the allocator,
  // the plan fallback's collective mode and the headroom, so its peaks and
  // splits differ from A's. A planner that kept A's archetypes would pack B
  // (or A again) with stale peaks.
  sched::FleetRequest a = small_request();
  a.jobs.push_back(fleet_job(
      "huge", make_job("Qwen3-0.6B", 8, fw::OptimizerKind::kAdamW)));
  a.pools = {{gpu::rtx3060(), 6}};  // "huge" splits three ways
  a.max_gpus_per_job = 4;
  a.allocator = "pytorch";
  a.what_if = {{gpu::rtx4060(), 1}};
  sched::FleetRequest b = a;
  b.allocator = "tf-bfc";
  b.comm_overlap = true;
  b.headroom.base = {std::int64_t{1} << 28, 12};

  core::EstimationService service;
  sched::FleetPlanner planner(service);
  for (const sched::FleetRequest* request : {&a, &b, &a}) {
    const sched::FleetReport reused = planner.pack(*request);
    core::EstimationService fresh_service;
    sched::FleetPlanner fresh(fresh_service);
    EXPECT_EQ(packing_fingerprint(reused),
              packing_fingerprint(fresh.pack(*request)))
        << "allocator " << request->allocator;
  }
  // The two setups really estimate differently, the split included.
  core::EstimationService check_service;
  const sched::FleetReport a_report = check_service.fleet(a);
  const sched::FleetReport b_report = check_service.fleet(b);
  ASSERT_EQ(a_report.verdicts.back().verdict, sched::Verdict::kAdmit);
  ASSERT_EQ(b_report.verdicts.back().verdict, sched::Verdict::kAdmit);
  EXPECT_EQ(a_report.counters.plans_run, 1u);
  EXPECT_NE(a_report.verdicts.back().predicted_peak,
            b_report.verdicts.back().predicted_peak);
  EXPECT_NE(a_report.verdicts[0].predicted_peak,
            b_report.verdicts[0].predicted_peak);
}

TEST(FleetCeiling, JobPastTheReplayCeilingIsRejectedAlone) {
  // distilgpt2 with AdamW at batch 2^24 outgrows the 2^50-byte replay, so
  // it has no estimate. The fleet rejects both jobs of that archetype with
  // the ceiling message, from one sweep, and packs the rest.
  const std::string ceiling =
      "replay: the job needs more than the 1125899906842624-byte replay "
      "capacity (2^50); its peak cannot be estimated";
  const core::TrainJob huge =
      make_job("distilgpt2", 1 << 24, fw::OptimizerKind::kAdamW);
  sched::FleetRequest request;
  request.jobs = {
      fleet_job("small",
                make_job("distilgpt2", 10, fw::OptimizerKind::kAdamW)),
      fleet_job("huge", huge),
      fleet_job("huge-again", huge),
  };
  request.pools = {{gpu::rtx3060(), 1}};

  core::EstimationService service;
  sched::FleetPlanner planner(service);
  const sched::FleetReport packed = planner.pack(request);
  ASSERT_EQ(packed.verdicts.size(), 3u);
  EXPECT_EQ(packed.verdicts[0].verdict, sched::Verdict::kAdmit);
  for (const std::size_t i : {1u, 2u}) {
    EXPECT_EQ(packed.verdicts[i].verdict, sched::Verdict::kReject);
    EXPECT_EQ(packed.verdicts[i].reason, ceiling);
  }
  EXPECT_EQ(packed.stats.admitted, 1);
  EXPECT_EQ(packed.stats.rejected, 2);
  EXPECT_EQ(packed.stats.distinct_jobs, 2);
  EXPECT_EQ(packed.counters.estimates_reused, 1u);
  // One profile per archetype: the second huge job ran none of its own.
  EXPECT_EQ(service.session().misses(), 2u);
}

TEST(FleetCeiling, PlanPastTheReplayCeilingRejectsOnlyItsArchetype) {
  // Under DNNMem the huge job has a single-card estimate that fits no
  // card, so the fleet asks for a multi-GPU plan, and the plan's replays
  // outgrow the ceiling. Only that archetype's jobs are rejected, each
  // the same way (the ceiling message, no demand); the what-if pack
  // reuses the verdict and plans nothing again.
  const core::TrainJob huge =
      make_job("distilgpt2", 1 << 24, fw::OptimizerKind::kAdamW);
  sched::FleetRequest request;
  request.estimator = "DNNMem";
  request.jobs = {
      fleet_job("small",
                make_job("distilgpt2", 10, fw::OptimizerKind::kAdamW)),
      fleet_job("huge", huge),
      fleet_job("huge-again", huge),
  };
  request.pools = {{gpu::rtx3060(), 1}};
  request.what_if = {{gpu::a100_40gb(), 1}};

  core::EstimationService service;
  const sched::FleetReport packed = sched::FleetPlanner(service).pack(request);
  ASSERT_EQ(packed.verdicts.size(), 3u);
  EXPECT_EQ(packed.verdicts[0].verdict, sched::Verdict::kAdmit);
  for (const std::size_t i : {1u, 2u}) {
    const sched::JobVerdict& verdict = packed.verdicts[i];
    EXPECT_EQ(verdict.verdict, sched::Verdict::kReject);
    EXPECT_EQ(verdict.reason,
              "replay: the job needs more than the 1125899906842624-byte "
              "replay capacity (2^50); its peak cannot be estimated");
    EXPECT_EQ(verdict.demand_bytes, 0);
    EXPECT_EQ(verdict.predicted_peak, 0);
  }
  EXPECT_EQ(packed.stats.admitted, 1);
  EXPECT_EQ(packed.stats.rejected, 2);
  EXPECT_EQ(packed.counters.plans_run, 0u);
  ASSERT_TRUE(packed.what_if.has_value());
  EXPECT_EQ(packed.what_if->admitted_delta, 0);
}

// ---------- what-if ----------

TEST(FleetWhatIf, DeltaMatchesTwoIndependentPacks) {
  // One 3060 hosts one big job; the what-if adds an A100 pool.
  sched::FleetRequest request;
  request.jobs = {
      fleet_job("big-0", make_job("gpt2", 8, fw::OptimizerKind::kAdamW)),
      fleet_job("big-1", make_job("gpt2", 8, fw::OptimizerKind::kAdamW)),
  };
  request.pools = {{gpu::rtx3060(), 1}};
  request.max_gpus_per_job = 1;
  request.what_if = {{gpu::a100_40gb(), 1}};

  core::EstimationService service;
  const sched::FleetReport report = service.fleet(request);
  ASSERT_TRUE(report.what_if.has_value());
  const sched::WhatIfDelta& delta = *report.what_if;

  sched::FleetRequest expanded = request;
  expanded.what_if.clear();
  expanded.pools.push_back({gpu::a100_40gb(), 1});
  core::EstimationService fresh;
  const sched::FleetReport after = fresh.fleet(expanded);

  EXPECT_EQ(delta.admitted_delta,
            after.stats.admitted - report.stats.admitted);
  EXPECT_EQ(delta.deferred_delta,
            after.stats.deferred - report.stats.deferred);
  EXPECT_EQ(delta.utilization_pct_delta,
            after.stats.utilization_pct - report.stats.utilization_pct);
  EXPECT_EQ(delta.stats_after.to_json().dump(), after.stats.to_json().dump());
  ASSERT_EQ(delta.newly_admitted.size(), 1u);
  EXPECT_EQ(delta.newly_admitted[0], "big-1");
}

// ---------- JSON schema ----------

TEST(FleetRequestJson, RoundTripsThroughJson) {
  sched::FleetRequest request = small_request();
  request.policy = "best-fit-decreasing";
  request.headroom.per_device["GeForce RTX 3060"] = {std::int64_t{1} << 28, 2};
  request.what_if = {{gpu::a100_40gb(), 2}};
  const sched::FleetRequest parsed =
      sched::FleetRequest::from_json(request.to_json());
  EXPECT_EQ(parsed.to_json().dump(2), request.to_json().dump(2));
  EXPECT_EQ(parsed.jobs.size(), 4u);
  EXPECT_EQ(parsed.policy, "best-fit-decreasing");
  EXPECT_EQ(parsed.headroom.per_device.at("GeForce RTX 3060").percent, 2);
  EXPECT_EQ(parsed.what_if.size(), 1u);
}

TEST(FleetRequestJson, MalformedDocumentsNameTheBadField) {
  const auto parse_error = [](const char* text) -> std::string {
    try {
      sched::FleetRequest::from_json(util::Json::parse(text));
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };
  EXPECT_NE(parse_error(R"({"pools": [{"device": "rtx3060", "count": 1}]})")
                .find("\"jobs\""),
            std::string::npos);
  EXPECT_NE(
      parse_error(
          R"({"jobs": [{"job": {"model": "distilgpt2", "batch": 5}}]})")
          .find("\"pools\""),
      std::string::npos);
  EXPECT_NE(parse_error(R"({"jobs": [{"id": "a"}],
                            "pools": [{"device": "rtx3060", "count": 1}]})")
                .find("jobs[0]"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"jobs": [{"job": {"model": "distilgpt2",
                                              "batch": 5}}],
                            "pools": [{"device": "rtx3060", "count": 0}]})")
                .find("count"),
            std::string::npos);
}

TEST(FleetRequestJson, UnknownModelIsRejectedBeforeAnyProfile) {
  // A threaded pack whose first archetype names an unknown model used to
  // rethrow out of the archetype fan-out while sibling sweeps still read
  // the planner's stack. Validation now names the job up front, before
  // any profile runs.
  sched::FleetRequest request;
  request.jobs = {
      fleet_job("bad", make_job("no-such-model", 5, fw::OptimizerKind::kSgd)),
      fleet_job("a", make_job("distilgpt2", 5, fw::OptimizerKind::kAdamW)),
      fleet_job("b", make_job("distilgpt2", 10, fw::OptimizerKind::kSgd)),
      fleet_job("c", make_job("gpt2", 5, fw::OptimizerKind::kAdamW)),
      fleet_job("d", make_job("T5-small", 5, fw::OptimizerKind::kAdamW)),
  };
  request.pools = {{gpu::rtx3060(), 2}};
  core::ServiceOptions service_options;
  service_options.threads = 4;
  core::EstimationService service(service_options);
  sched::FleetPlannerOptions planner_options;
  planner_options.threads = 4;
  sched::FleetPlanner planner(service, planner_options);
  try {
    planner.pack(request);
    FAIL() << "unknown model accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no-such-model"), std::string::npos) << what;
    EXPECT_NE(what.find("jobs[0]"), std::string::npos) << what;
  }
  EXPECT_EQ(service.session().size(), 0u) << "a profile ran before validation";
}

TEST(FleetRequestJson, UnknownPolicyAndDuplicateIdsAreRejected) {
  core::EstimationService service;
  sched::FleetRequest request = small_request();
  request.policy = "mystery";
  EXPECT_THROW(service.fleet(request), std::invalid_argument);

  sched::FleetRequest duplicate = small_request();
  duplicate.jobs[1].id = duplicate.jobs[0].id;
  try {
    service.fleet(duplicate);
    FAIL() << "duplicate ids must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("duplicate"), std::string::npos);
  }
}

TEST(FleetReportJson, TimingsAreOptionalAndVerdictsSerialize) {
  core::EstimationService service;
  const sched::FleetReport report = service.fleet(small_request());
  const util::Json with_timings = report.to_json(/*include_timings=*/true);
  const util::Json without = report.to_json(/*include_timings=*/false);
  EXPECT_TRUE(with_timings.contains("wall_seconds"));
  EXPECT_FALSE(without.contains("wall_seconds"));
  ASSERT_TRUE(without.contains("verdicts"));
  const util::Json& first = without.at("verdicts").as_array()[0];
  EXPECT_EQ(first.get_string_or("verdict", ""), "admit");
  EXPECT_TRUE(first.contains("predicted_peak_bytes"));
}

}  // namespace
}  // namespace xmem
