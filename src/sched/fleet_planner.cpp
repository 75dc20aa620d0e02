#include "sched/fleet_planner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/request_fields.h"
#include "util/thread_pool.h"

namespace xmem::sched {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Queue-level archetype identity: two jobs with the same label + seed
/// share one CPU profile (and one planner cache entry).
std::string job_key(const core::TrainJob& job) {
  return job.label() + "|seed" + std::to_string(job.seed);
}

/// The multi-GPU fallback question for every archetype of `request`: the
/// one place FleetRequest options are forwarded into a core::PlanRequest
/// (plan_for adds the job and the fleet's devices).
core::PlanRequest fallback_plan(const FleetRequest& request) {
  core::PlanRequest plan;
  plan.max_gpus = request.max_gpus_per_job;
  plan.allocator = request.allocator;
  plan.allocator_config = request.allocator_config;
  plan.profile_iterations = request.profile_iterations;
  plan.max_candidates = 16;
  plan.comm_overlap = request.comm_overlap;
  plan.refine_all = request.refine_all;
  plan.tenant = request.tenant;
  return plan;
}

/// A request plus its archetype-cache scope: the estimation knobs that
/// change what an estimate means, so a planner reused across requests
/// never serves stale peaks. Computed once per request, not per job. The
/// tenant only attributes quota, so tenants share archetypes.
struct ScopedRequest : FleetRequest {
  ScopedRequest() = default;
  explicit ScopedRequest(FleetRequest request)
      : FleetRequest(std::move(request)) {
    core::PlanRequest plan = fallback_plan(*this);
    plan.tenant.clear();
    scope = estimator + "|" + plan.to_json().dump();
  }

  std::string scope;
};

namespace fields = core::fields;
using fields::field;
using fields::integer;

const fields::List<FleetJob>& fleet_job_fields() {
  static const fields::List<FleetJob> list = {
      field("id", &FleetJob::id, fields::text()),
      fields::job(&FleetJob::job),
      field("priority", &FleetJob::priority, integer<int>()),
  };
  return list;
}

const fields::List<GpuPool>& pool_fields() {
  static const fields::List<GpuPool> list = {
      fields::required(field("device", &GpuPool::device, fields::device())),
      fields::required(field("count", &GpuPool::count, integer<int>(1))),
  };
  return list;
}

const fields::List<HeadroomRule>& rule_fields() {
  static const fields::List<HeadroomRule> list = {
      // Bounded so a job's demand, peak + absolute + peak * percent / 100,
      // stays inside int64 for any peak under 8 PiB.
      field("absolute_bytes", &HeadroomRule::absolute_bytes,
            fields::byte_count(0)),
      field("percent", &HeadroomRule::percent, integer<int>(0, 1000)),
  };
  return list;
}

/// The base rule's keys sit flat in the headroom object, next to the
/// per-device overrides.
const fields::List<HeadroomPolicy>& headroom_fields() {
  static const fields::List<HeadroomPolicy> list = [] {
    fields::List<HeadroomPolicy> flat =
        fields::flatten(&HeadroomPolicy::base, rule_fields());
    flat.push_back(field("per_device", &HeadroomPolicy::per_device,
                         fields::map(fields::object(rule_fields())),
                         fields::Emit::kUnlessDefault));
    return flat;
  }();
  return list;
}

const fields::List<FleetRequest>& fleet_fields() {
  using R = FleetRequest;
  using fields::Emit;
  static const fields::List<R> list = {
      fields::required(field(
          "jobs", &R::jobs,
          fields::array(fields::Codec<FleetJob>{
                            [](const util::Json& value, const fields::At& at) {
                              if (!value.is_object()) {
                                at.fail("must be an object");
                              }
                              return FleetJob::from_json(value, at.index);
                            },
                            [](const FleetJob& job) { return job.to_json(); }},
                        /*non_empty=*/true))),
      fields::required(field(
          "pools", &R::pools,
          fields::array(fields::object(pool_fields()), /*non_empty=*/true))),
      field("policy", &R::policy,
            fields::registered("packing policy", packing_policy_names)),
      field("headroom", &R::headroom, fields::object(headroom_fields())),
      field("estimator", &R::estimator, fields::estimator()),
      field("allocator", &R::allocator, fields::allocator()),
      fields::allocator_config(&R::allocator_config),
      field("profile_iterations", &R::profile_iterations, integer<int>(1)),
      field("max_gpus_per_job", &R::max_gpus_per_job,
            fields::gpu_budget()),
      // Plan-fallback flags (forwarded by fallback_plan()), left out when
      // off so resident-mode documents round-trip unchanged.
      field("comm_overlap", &R::comm_overlap, fields::boolean(),
            Emit::kUnlessDefault),
      field("refine_all", &R::refine_all, fields::boolean(),
            Emit::kUnlessDefault),
      field("tenant", &R::tenant, fields::text(), Emit::kUnlessDefault),
      field("what_if", &R::what_if,
            fields::array(fields::object(pool_fields())), Emit::kUnlessDefault),
  };
  return list;
}

}  // namespace

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kAdmit:
      return "admit";
    case Verdict::kDefer:
      return "defer";
    case Verdict::kReject:
      return "reject";
  }
  return "reject";
}

FleetJob FleetJob::from_json(const util::Json& json, std::size_t index) {
  FleetJob fleet_job;
  fleet_job.id = "job-" + std::to_string(index);
  fields::read(json, fleet_job_fields(), fleet_job,
               "fleet request jobs[" + std::to_string(index) + "]");
  return fleet_job;
}

util::Json FleetJob::to_json() const {
  return fields::write(fleet_job_fields(), *this);
}

util::Json GpuPool::to_json() const {
  return fields::write(pool_fields(), *this);
}

std::int64_t HeadroomPolicy::bytes_for(const std::string& device_name,
                                       std::int64_t predicted_peak) const {
  const auto it = per_device.find(device_name);
  const HeadroomRule& rule = it == per_device.end() ? base : it->second;
  return rule.absolute_bytes + predicted_peak * rule.percent / 100;
}

FleetRequest FleetRequest::from_json(const util::Json& json) {
  return fields::parse(json, fleet_fields(), "fleet request");
}

util::Json FleetRequest::to_json() const {
  return fields::write(fleet_fields(), *this);
}

util::Json JobVerdict::to_json() const {
  util::Json json = util::Json::object();
  json["id"] = util::Json(id);
  json["label"] = util::Json(label);
  json["priority"] = util::Json(priority);
  json["verdict"] = util::Json(to_string(verdict));
  json["supported"] = util::Json(supported);
  if (supported) {
    json["predicted_peak_bytes"] = util::Json(predicted_peak);
    json["headroom_bytes"] = util::Json(headroom_bytes);
    json["demand_bytes"] = util::Json(demand_bytes);
    json["gpus"] = util::Json(gpus);
    if (!split.empty()) json["split"] = util::Json(split);
  }
  if (!placements.empty()) {
    util::Json placed = util::Json::array();
    for (const Placement& placement : placements) {
      util::Json entry = util::Json::object();
      entry["pool"] = util::Json(static_cast<std::int64_t>(placement.pool));
      entry["index"] = util::Json(placement.index);
      entry["device"] = util::Json(placement.device);
      entry["committed_bytes"] = util::Json(placement.committed_bytes);
      placed.push_back(std::move(entry));
    }
    json["placements"] = std::move(placed);
  }
  if (!reason.empty()) json["reason"] = util::Json(reason);
  return json;
}

util::Json GpuState::to_json() const {
  util::Json json = util::Json::object();
  json["pool"] = util::Json(static_cast<std::int64_t>(pool));
  json["index"] = util::Json(index);
  json["device"] = util::Json(device);
  json["budget_bytes"] = util::Json(budget_bytes);
  json["committed_bytes"] = util::Json(committed_bytes);
  json["predicted_bytes"] = util::Json(predicted_bytes);
  json["jobs"] = util::Json(jobs);
  return json;
}

util::Json FleetStats::to_json() const {
  util::Json json = util::Json::object();
  json["gpus_total"] = util::Json(gpus_total);
  json["gpus_used"] = util::Json(gpus_used);
  json["jobs"] = util::Json(jobs);
  json["admitted"] = util::Json(admitted);
  json["deferred"] = util::Json(deferred);
  json["rejected"] = util::Json(rejected);
  json["distinct_jobs"] = util::Json(distinct_jobs);
  json["total_budget_bytes"] = util::Json(total_budget_bytes);
  json["committed_bytes"] = util::Json(committed_bytes);
  json["predicted_bytes"] = util::Json(predicted_bytes);
  json["waste_bytes"] = util::Json(waste_bytes);
  json["utilization_pct"] = util::Json(utilization_pct);
  json["committed_pct"] = util::Json(committed_pct);
  json["fragmentation_pct"] = util::Json(fragmentation_pct);
  return json;
}

util::Json FleetCounters::to_json() const {
  util::Json json = util::Json::object();
  write_json(json);
  json["plans_run"] = util::Json(static_cast<std::int64_t>(plans_run));
  json["estimates_reused"] =
      util::Json(static_cast<std::int64_t>(estimates_reused));
  json["pools_repacked"] =
      util::Json(static_cast<std::int64_t>(pools_repacked));
  return json;
}

util::Json WhatIfDelta::to_json() const {
  util::Json json = util::Json::object();
  util::Json added = util::Json::array();
  for (const GpuPool& pool : added_pools) added.push_back(pool.to_json());
  json["added_pools"] = std::move(added);
  json["admitted_delta"] = util::Json(admitted_delta);
  json["deferred_delta"] = util::Json(deferred_delta);
  json["rejected_delta"] = util::Json(rejected_delta);
  json["utilization_pct_delta"] = util::Json(utilization_pct_delta);
  util::Json ids = util::Json::array();
  for (const std::string& id : newly_admitted) ids.push_back(util::Json(id));
  json["newly_admitted"] = std::move(ids);
  json["stats_after"] = stats_after.to_json();
  return json;
}

util::Json FleetReport::to_json(bool include_timings) const {
  util::Json json = util::Json::object();
  json["policy"] = util::Json(policy);
  util::Json pool_array = util::Json::array();
  for (const GpuPool& pool : pools) pool_array.push_back(pool.to_json());
  json["pools"] = std::move(pool_array);
  util::Json verdict_array = util::Json::array();
  for (const JobVerdict& verdict : verdicts) {
    verdict_array.push_back(verdict.to_json());
  }
  json["verdicts"] = std::move(verdict_array);
  util::Json gpu_array = util::Json::array();
  for (const GpuState& gpu : gpus) gpu_array.push_back(gpu.to_json());
  json["gpus"] = std::move(gpu_array);
  json["stats"] = stats.to_json();
  json["counters"] = counters.to_json();
  if (what_if.has_value()) json["what_if"] = what_if->to_json();
  if (include_timings) json["wall_seconds"] = util::Json(wall_seconds);
  return json;
}

// ---------------------------------------------------------------------------
// FleetPlanner internals
// ---------------------------------------------------------------------------

namespace {

/// A DistributedPlanner candidate reduced to what packing needs. Rank peaks
/// are device-independent (component arithmetic / unbounded replay), so one
/// number per candidate serves every pool.
struct PlanCandidateLite {
  int data_parallel = 1;
  int tensor_parallel = 1;
  int pipeline_stages = 1;
  int gpus = 1;
  std::int64_t rank_peak = 0;
};

struct Archetype {
  bool supported = true;
  std::map<std::string, std::int64_t> peak_by_device;
  /// Plan-fallback candidates, computed on the first job that needs them.
  std::optional<std::vector<PlanCandidateLite>> plan;
};

struct PackResult {
  std::vector<SlotState> slots;
  std::vector<std::int64_t> slot_predicted;  ///< parallel to slots
  std::vector<JobVerdict> verdicts;          ///< parallel to request.jobs
  FleetStats stats;
};

}  // namespace

struct FleetPlanner::Impl {
  core::EstimationService& service;
  FleetPlannerOptions options;
  std::unique_ptr<util::ThreadPool> pool;  ///< null when serial

  /// Archetype cache, keyed by estimation scope + job identity. Shared by
  /// pack/apply/what_if — the what-if second pack costs zero profiles.
  std::map<std::string, Archetype> cache;

  bool has_state = false;
  ScopedRequest state_request;  ///< jobs hold materialized unique ids
  PackResult state_result;
  std::size_t next_auto_id = 0;

  Impl(core::EstimationService& service_in, FleetPlannerOptions options_in)
      : service(service_in),
        options(options_in),
        pool(util::make_pool(options_in.threads)) {}

  static std::string archetype_key(const ScopedRequest& request,
                                   const core::TrainJob& job) {
    return request.scope + "|" + job_key(job);
  }

  void materialize_ids(FleetRequest& request) const {
    for (std::size_t i = 0; i < request.jobs.size(); ++i) {
      if (request.jobs[i].id.empty()) {
        request.jobs[i].id = "job-" + std::to_string(i);
      }
    }
  }

  /// The field lists' checks, so C++ callers get the document's messages,
  /// plus what a list cannot express: unique job ids, a positive budget
  /// per pool, and one geometry per device name.
  static void validate(const FleetRequest& request) {
    FleetRequest::from_json(request.to_json());
    std::set<std::string> ids;
    for (const FleetJob& fleet_job : request.jobs) {
      if (!ids.insert(fleet_job.id).second) {
        throw std::invalid_argument("fleet request: duplicate job id '" +
                                    fleet_job.id + "'");
      }
    }
    auto check_pool = [](const GpuPool& gpu_pool) {
      if (gpu_pool.device.job_budget() <= 0) {
        throw std::invalid_argument("fleet request: device '" +
                                    gpu_pool.device.name +
                                    "' has a non-positive job budget");
      }
    };
    for (const GpuPool& gpu_pool : request.pools) check_pool(gpu_pool);
    for (const GpuPool& gpu_pool : request.what_if) check_pool(gpu_pool);
    // A device name is the estimate-cache key, so one name must mean one
    // geometry across the fleet (and the what-if pools).
    std::map<std::string, gpu::DeviceModel> by_name;
    auto check_geometry = [&by_name](const gpu::DeviceModel& device) {
      const auto [it, inserted] = by_name.emplace(device.name, device);
      if (!inserted && (it->second.capacity != device.capacity ||
                        it->second.m_init != device.m_init ||
                        it->second.m_fm != device.m_fm)) {
        throw std::invalid_argument("fleet request: device name '" +
                                    device.name +
                                    "' appears with conflicting geometry");
      }
    };
    for (const GpuPool& gpu_pool : request.pools) check_geometry(gpu_pool.device);
    for (const GpuPool& gpu_pool : request.what_if) check_geometry(gpu_pool.device);
  }

  /// Distinct device models across the given pool lists, sorted by name.
  static std::vector<gpu::DeviceModel> distinct_devices(
      const std::vector<const std::vector<GpuPool>*>& pool_lists) {
    std::map<std::string, gpu::DeviceModel> by_name;
    for (const std::vector<GpuPool>* pools : pool_lists) {
      for (const GpuPool& gpu_pool : *pools) {
        by_name.emplace(gpu_pool.device.name, gpu_pool.device);
      }
    }
    std::vector<gpu::DeviceModel> devices;
    devices.reserve(by_name.size());
    for (const auto& [name, device] : by_name) devices.push_back(device);
    return devices;
  }

  /// Compute per-device peaks for every archetype among `jobs` that the
  /// cache does not already cover, fanning the sweeps on the pool. One
  /// sweep (== one CPU profile, cold) per fresh archetype.
  void ensure_archetypes(const ScopedRequest& request,
                         const std::vector<FleetJob>& jobs,
                         const std::vector<gpu::DeviceModel>& devices,
                         FleetCounters& counters) {
    core::EstimateRequest sweep;  // the part every archetype sweep shares
    sweep.allocators = {request.allocator};
    sweep.estimators = {request.estimator};
    sweep.allocator_config = request.allocator_config;
    sweep.profile_iterations = request.profile_iterations;
    sweep.tenant = request.tenant;
    // (archetype key, sweep over the devices its cache entry lacks)
    std::vector<std::pair<std::string, core::EstimateRequest>> needs;
    std::set<std::string> seen;
    for (const FleetJob& fleet_job : jobs) {
      const std::string key = archetype_key(request, fleet_job.job);
      if (!seen.insert(key).second) continue;
      const auto it = cache.find(key);
      sweep.job = fleet_job.job;
      sweep.devices.clear();
      for (const gpu::DeviceModel& device : devices) {
        if (it == cache.end() ||
            it->second.peak_by_device.count(device.name) == 0) {
          sweep.devices.push_back(device);
        }
      }
      if (!sweep.devices.empty()) needs.emplace_back(key, sweep);
    }
    counters.estimates_reused += jobs.size() - needs.size();

    std::vector<core::EstimateReport> reports(needs.size());
    util::fan_out(pool.get(), needs.size(), [&](std::size_t i) {
      reports[i] = service.sweep(needs[i].second);
    });

    // Merge in need order so counter totals are thread-count-independent.
    for (std::size_t i = 0; i < needs.size(); ++i) {
      Archetype& archetype = cache[needs[i].first];
      for (const core::EstimateEntry& entry : reports[i].entries) {
        if (!entry.supported) archetype.supported = false;
        archetype.peak_by_device[entry.device] = entry.estimated_peak;
      }
      counters += reports[i];
    }
  }

  /// Multi-GPU fallback candidates for one archetype, cached with it. The
  /// search shares the archetype's profile through the session
  /// (profiles_run stays == distinct_jobs).
  const std::vector<PlanCandidateLite>& plan_for(
      const ScopedRequest& request, const core::TrainJob& job,
      const std::vector<gpu::DeviceModel>& devices, FleetCounters& counters) {
    Archetype& archetype = cache[archetype_key(request, job)];
    if (archetype.plan.has_value()) return *archetype.plan;

    core::PlanRequest plan = fallback_plan(request);
    plan.job = job;
    plan.devices = devices;
    const core::PlanReport report = service.plan(plan);
    counters.plans_run += 1;
    counters += report;

    std::vector<PlanCandidateLite>& candidates = archetype.plan.emplace();
    for (const core::PlanCandidate& candidate : report.candidates) {
      if (candidate.plan.gpus <= 1) continue;
      PlanCandidateLite lite;
      lite.data_parallel = candidate.plan.data_parallel;
      lite.tensor_parallel = candidate.plan.tensor_parallel;
      lite.pipeline_stages = candidate.plan.pipeline_stages;
      lite.gpus = candidate.plan.gpus;
      lite.rank_peak = candidate.replayed ? candidate.replayed_per_rank_peak
                                          : candidate.plan.per_rank_peak;
      candidates.push_back(lite);
    }
    return candidates;
  }

  static std::vector<std::size_t> pool_starts(
      const std::vector<GpuPool>& pools) {
    std::vector<std::size_t> starts(pools.size(), 0);
    std::size_t next = 0;
    for (std::size_t p = 0; p < pools.size(); ++p) {
      starts[p] = next;
      next += static_cast<std::size_t>(pools[p].count);
    }
    return starts;
  }

  /// Report fields for a job that was not placed: the cheapest-to-host
  /// fleet device (minimum demand; pool order breaks ties).
  static void fill_best_single(JobVerdict& verdict,
                               const std::vector<GpuPool>& pools,
                               const Archetype& archetype,
                               const HeadroomPolicy& headroom) {
    std::int64_t best_demand = -1;
    std::set<std::string> seen;
    for (const GpuPool& gpu_pool : pools) {
      const std::string& name = gpu_pool.device.name;
      if (!seen.insert(name).second) continue;
      const std::int64_t peak = archetype.peak_by_device.at(name);
      const std::int64_t demand = peak + headroom.bytes_for(name, peak);
      if (best_demand < 0 || demand < best_demand) {
        best_demand = demand;
        verdict.predicted_peak = peak;
        verdict.headroom_bytes = demand - peak;
        verdict.demand_bytes = demand;
      }
    }
  }

  /// Place one job against the current slots (the shared packing step of
  /// batch packs and incremental arrivals). Fills `verdict` and commits
  /// into `result` on admit.
  void place_job(const ScopedRequest& request,
                 const std::vector<GpuPool>& pools,
                 const std::vector<std::size_t>& pool_start,
                 const std::vector<gpu::DeviceModel>& plan_devices,
                 const FleetJob& fleet_job, PackingPolicy& policy,
                 PackResult& result, FleetCounters& counters,
                 JobVerdict& verdict) {
    const core::TrainJob& job = fleet_job.job;
    verdict.id = fleet_job.id;
    verdict.label = job.label();
    verdict.priority = fleet_job.priority;
    const Archetype& archetype = cache.at(archetype_key(request, job));
    if (!archetype.supported) {
      verdict.supported = false;
      verdict.verdict = Verdict::kReject;
      verdict.reason = "estimator '" + request.estimator +
                       "' does not support this job";
      return;
    }

    std::vector<SlotState>& slots = result.slots;
    std::vector<std::int64_t> demands(slots.size(), 0);
    std::vector<std::int64_t> peaks(slots.size(), 0);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::string& name = pools[slots[i].pool].device.name;
      peaks[i] = archetype.peak_by_device.at(name);
      demands[i] = peaks[i] + request.headroom.bytes_for(name, peaks[i]);
    }

    // Would any fleet device host this job on an empty fleet? That line
    // separates defer (load problem) from the multi-GPU fallback.
    bool single_feasible_empty = false;
    for (std::size_t p = 0; p < pools.size() && !single_feasible_empty; ++p) {
      const std::size_t slot = pool_start[p];
      SlotState empty;
      empty.pool = p;
      empty.budget = slots[slot].budget;
      if (policy.commit_bytes(demands[slot], empty) <= empty.budget) {
        single_feasible_empty = true;
      }
    }

    if (single_feasible_empty) {
      const int chosen = policy.choose(slots, demands);
      if (chosen >= 0) {
        const std::int64_t commit =
            policy.commit_bytes(demands[chosen], slots[chosen]);
        slots[chosen].committed += commit;
        slots[chosen].jobs += 1;
        result.slot_predicted[chosen] += peaks[chosen];
        verdict.verdict = Verdict::kAdmit;
        verdict.gpus = 1;
        verdict.predicted_peak = peaks[chosen];
        verdict.headroom_bytes = demands[chosen] - peaks[chosen];
        verdict.demand_bytes = demands[chosen];
        Placement placement;
        placement.pool = slots[chosen].pool;
        placement.index = slots[chosen].index;
        placement.device = pools[slots[chosen].pool].device.name;
        placement.committed_bytes = commit;
        verdict.placements.push_back(placement);
      } else {
        fill_best_single(verdict, pools, archetype, request.headroom);
        verdict.verdict = Verdict::kDefer;
        verdict.reason = "no GPU fits demand " +
                         std::to_string(verdict.demand_bytes) +
                         " bytes under current load";
      }
      return;
    }

    // Multi-GPU fallback: DistributedPlanner candidates, ranks co-located
    // on one pool.
    fill_best_single(verdict, pools, archetype, request.headroom);
    if (request.max_gpus_per_job <= 1) {
      verdict.verdict = Verdict::kReject;
      verdict.reason = "fits no single GPU (min demand " +
                       std::to_string(verdict.demand_bytes) +
                       " bytes) and max_gpus_per_job=1 disables splitting";
      return;
    }
    const std::vector<PlanCandidateLite>& candidates =
        plan_for(request, job, plan_devices, counters);
    bool any_feasible_empty = false;
    for (const PlanCandidateLite& candidate : candidates) {
      for (std::size_t p = 0; p < pools.size(); ++p) {
        if (pools[p].count < candidate.gpus) continue;
        const std::string& name = pools[p].device.name;
        const std::int64_t budget = pools[p].device.job_budget();
        const std::int64_t demand =
            candidate.rank_peak +
            request.headroom.bytes_for(name, candidate.rank_peak);
        SlotState empty;
        empty.pool = p;
        empty.budget = budget;
        if (policy.commit_bytes(demand, empty) > budget) continue;
        any_feasible_empty = true;

        const std::size_t start = pool_start[p];
        const std::size_t count = static_cast<std::size_t>(pools[p].count);
        std::vector<SlotState> slice(slots.begin() + start,
                                     slots.begin() + start + count);
        std::vector<std::int64_t> slice_demands(count, demand);
        std::vector<int> chosen_local;
        std::vector<std::int64_t> commits;
        bool placed = true;
        for (int rank = 0; rank < candidate.gpus; ++rank) {
          const int chosen = policy.choose(slice, slice_demands);
          if (chosen < 0) {
            placed = false;
            break;
          }
          const std::int64_t commit =
              policy.commit_bytes(demand, slice[chosen]);
          slice[chosen].committed += commit;
          slice[chosen].jobs += 1;
          // Ranks need distinct GPUs: poison the chosen slot's demand so
          // the next rank cannot land on it again.
          slice_demands[chosen] = std::numeric_limits<std::int64_t>::max() / 2;
          chosen_local.push_back(chosen);
          commits.push_back(commit);
        }
        if (!placed) continue;

        std::copy(slice.begin(), slice.end(), slots.begin() + start);
        verdict.verdict = Verdict::kAdmit;
        verdict.gpus = candidate.gpus;
        verdict.predicted_peak = candidate.rank_peak;
        verdict.headroom_bytes = demand - candidate.rank_peak;
        verdict.demand_bytes = demand;
        verdict.split = "d" + std::to_string(candidate.data_parallel) + ",t" +
                        std::to_string(candidate.tensor_parallel) + ",p" +
                        std::to_string(candidate.pipeline_stages);
        for (std::size_t rank = 0; rank < chosen_local.size(); ++rank) {
          const std::size_t global = start + chosen_local[rank];
          result.slot_predicted[global] += candidate.rank_peak;
          Placement placement;
          placement.pool = p;
          placement.index = slots[global].index;
          placement.device = name;
          placement.committed_bytes = commits[rank];
          verdict.placements.push_back(placement);
        }
        return;
      }
    }
    if (any_feasible_empty) {
      verdict.verdict = Verdict::kDefer;
      verdict.reason =
          "no pool has enough free GPUs for a multi-GPU split under current "
          "load";
    } else {
      verdict.verdict = Verdict::kReject;
      verdict.reason = "fits no single GPU (min demand " +
                       std::to_string(verdict.demand_bytes) +
                       " bytes) and no split within " +
                       std::to_string(request.max_gpus_per_job) +
                       " GPUs fits any pool";
    }
  }

  static void compute_stats(const FleetRequest& request, PackResult& result) {
    FleetStats stats;
    stats.gpus_total = static_cast<int>(result.slots.size());
    std::int64_t total_free = 0;
    std::int64_t largest_free = 0;
    for (std::size_t i = 0; i < result.slots.size(); ++i) {
      const SlotState& slot = result.slots[i];
      stats.total_budget_bytes += slot.budget;
      stats.committed_bytes += slot.committed;
      stats.predicted_bytes += result.slot_predicted[i];
      if (slot.jobs > 0) stats.gpus_used += 1;
      total_free += slot.free_bytes();
      largest_free = std::max(largest_free, slot.free_bytes());
    }
    stats.jobs = static_cast<int>(result.verdicts.size());
    for (const JobVerdict& verdict : result.verdicts) {
      switch (verdict.verdict) {
        case Verdict::kAdmit:
          stats.admitted += 1;
          break;
        case Verdict::kDefer:
          stats.deferred += 1;
          break;
        case Verdict::kReject:
          stats.rejected += 1;
          break;
      }
    }
    std::set<std::string> distinct;
    for (const FleetJob& fleet_job : request.jobs) {
      distinct.insert(job_key(fleet_job.job));
    }
    stats.distinct_jobs = static_cast<int>(distinct.size());
    stats.waste_bytes = stats.committed_bytes - stats.predicted_bytes;
    if (stats.total_budget_bytes > 0) {
      stats.utilization_pct = static_cast<int>(
          100 * stats.predicted_bytes / stats.total_budget_bytes);
      stats.committed_pct = static_cast<int>(
          100 * stats.committed_bytes / stats.total_budget_bytes);
    }
    if (total_free > 0) {
      stats.fragmentation_pct =
          static_cast<int>(100 - 100 * largest_free / total_free);
    }
    result.stats = stats;
  }

  /// Pack the whole queue onto `pools`, mint-condition slots. Deterministic
  /// given the archetype cache: ordered integer arithmetic only.
  PackResult run_pack(const ScopedRequest& request,
                      const std::vector<GpuPool>& pools,
                      const std::vector<gpu::DeviceModel>& plan_devices,
                      PackingPolicy& policy, FleetCounters& counters) {
    PackResult result;
    const std::vector<std::size_t> starts = pool_starts(pools);
    for (std::size_t p = 0; p < pools.size(); ++p) {
      for (int i = 0; i < pools[p].count; ++i) {
        SlotState slot;
        slot.pool = p;
        slot.index = i;
        slot.budget = pools[p].device.job_budget();
        result.slots.push_back(slot);
      }
    }
    result.slot_predicted.assign(result.slots.size(), 0);
    result.verdicts.resize(request.jobs.size());

    // Queue order: priority-major (higher first), arrival-minor; the policy
    // then reorders within each priority class (BFD sorts by bytes).
    std::vector<std::size_t> order(request.jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&request](std::size_t a, std::size_t b) {
                       return request.jobs[a].priority >
                              request.jobs[b].priority;
                     });
    std::vector<std::int64_t> reference(request.jobs.size(), 0);
    for (std::size_t i = 0; i < request.jobs.size(); ++i) {
      const Archetype& archetype =
          cache.at(archetype_key(request, request.jobs[i].job));
      if (!archetype.supported) continue;
      std::set<std::string> seen;
      for (const GpuPool& gpu_pool : pools) {
        if (!seen.insert(gpu_pool.device.name).second) continue;
        reference[i] = std::max(
            reference[i], archetype.peak_by_device.at(gpu_pool.device.name));
      }
    }
    std::size_t seg = 0;
    while (seg < order.size()) {
      std::size_t end = seg + 1;
      while (end < order.size() && request.jobs[order[end]].priority ==
                                       request.jobs[order[seg]].priority) {
        ++end;
      }
      std::vector<std::size_t> segment(order.begin() + seg,
                                       order.begin() + end);
      policy.reorder(segment, reference);
      std::copy(segment.begin(), segment.end(), order.begin() + seg);
      seg = end;
    }

    for (const std::size_t index : order) {
      place_job(request, pools, starts, plan_devices, request.jobs[index],
                policy, result, counters, result.verdicts[index]);
    }
    compute_stats(request, result);
    return result;
  }

  FleetReport make_report(const FleetRequest& request,
                          const std::vector<GpuPool>& pools,
                          const PackResult& result,
                          const FleetCounters& counters) const {
    FleetReport report;
    report.policy = request.policy;
    report.pools = pools;
    report.verdicts = result.verdicts;
    for (std::size_t i = 0; i < result.slots.size(); ++i) {
      const SlotState& slot = result.slots[i];
      GpuState gpu;
      gpu.pool = slot.pool;
      gpu.index = slot.index;
      gpu.device = pools[slot.pool].device.name;
      gpu.budget_bytes = slot.budget;
      gpu.committed_bytes = slot.committed;
      gpu.predicted_bytes = result.slot_predicted[i];
      gpu.jobs = slot.jobs;
      report.gpus.push_back(gpu);
    }
    report.stats = result.stats;
    report.counters = counters;
    return report;
  }

  /// pack()'s body: validate the request, estimate its archetypes, and
  /// pack its pools into `base` — plus, when it carries what-if pools, diff
  /// the augmented fleet into the report's what_if.
  FleetReport pack_fresh(ScopedRequest& request, PackResult& base) {
    materialize_ids(request);
    validate(request);
    const std::unique_ptr<PackingPolicy> policy =
        make_packing_policy(request.policy);
    FleetCounters counters;
    const std::vector<gpu::DeviceModel> devices =
        distinct_devices({&request.pools, &request.what_if});
    ensure_archetypes(request, request.jobs, devices, counters);
    base = run_pack(request, request.pools, devices, *policy, counters);
    counters.pools_repacked = request.pools.size();
    FleetReport report = make_report(request, request.pools, base, counters);
    if (!request.what_if.empty()) {
      std::vector<GpuPool> augmented = request.pools;
      augmented.insert(augmented.end(), request.what_if.begin(),
                       request.what_if.end());
      // The second pack reuses the archetype cache end to end, so its
      // estimation cost is zero; report counters describe the base pack.
      FleetCounters what_if_counters;
      report.what_if = make_delta(
          request.what_if, base,
          run_pack(request, augmented, devices, *policy, what_if_counters));
    }
    return report;
  }

  static WhatIfDelta make_delta(const std::vector<GpuPool>& added,
                                const PackResult& base,
                                const PackResult& after) {
    WhatIfDelta delta;
    delta.added_pools = added;
    delta.admitted_delta = after.stats.admitted - base.stats.admitted;
    delta.deferred_delta = after.stats.deferred - base.stats.deferred;
    delta.rejected_delta = after.stats.rejected - base.stats.rejected;
    delta.utilization_pct_delta =
        after.stats.utilization_pct - base.stats.utilization_pct;
    for (std::size_t i = 0; i < base.verdicts.size(); ++i) {
      if (base.verdicts[i].verdict != Verdict::kAdmit &&
          after.verdicts[i].verdict == Verdict::kAdmit) {
        delta.newly_admitted.push_back(base.verdicts[i].id);
      }
    }
    delta.stats_after = after.stats;
    return delta;
  }
};

FleetPlanner::FleetPlanner(core::EstimationService& service,
                           FleetPlannerOptions options)
    : impl_(std::make_unique<Impl>(service, options)) {}

FleetPlanner::~FleetPlanner() = default;

FleetReport FleetPlanner::pack(const FleetRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  ScopedRequest materialized(request);
  PackResult base;
  FleetReport report = impl_->pack_fresh(materialized, base);
  impl_->has_state = true;
  impl_->state_request = materialized;
  impl_->state_request.what_if.clear();
  impl_->state_result = std::move(base);
  impl_->next_auto_id = materialized.jobs.size();
  report.wall_seconds = seconds_since(start);
  return report;
}

FleetReport FleetPlanner::apply(const JobArrival& event) {
  const auto start = std::chrono::steady_clock::now();
  Impl& impl = *impl_;
  if (!impl.has_state) {
    throw std::logic_error("FleetPlanner::apply before pack()");
  }
  FleetJob job = event.job;
  auto id_taken = [&impl](const std::string& id) {
    for (const FleetJob& existing : impl.state_request.jobs) {
      if (existing.id == id) return true;
    }
    return false;
  };
  std::size_t next_auto_id = impl.next_auto_id;
  if (job.id.empty()) {
    do {
      job.id = "job-" + std::to_string(next_auto_id);
      next_auto_id += 1;
    } while (id_taken(job.id));
  } else if (id_taken(job.id)) {
    throw std::invalid_argument("fleet apply: duplicate job id '" + job.id +
                                "'");
  }
  // Check the arrival and estimate its archetype before the state changes,
  // so a bad arrival leaves the planner as it was.
  fields::parse(job.to_json(), fleet_job_fields(), "fleet apply");
  FleetCounters counters;
  counters.estimates_reused = impl.state_request.jobs.size();
  const std::vector<gpu::DeviceModel> devices =
      Impl::distinct_devices({&impl.state_request.pools});
  impl.ensure_archetypes(impl.state_request, {job}, devices, counters);

  const std::unique_ptr<PackingPolicy> policy =
      make_packing_policy(impl.state_request.policy);
  // Fast path: an order-preserving policy packs in queue order, so a new
  // job that sorts last (priority <= everything pending) is placed against
  // the existing state — provably equal to a full repack.
  bool sorts_last = true;
  for (const FleetJob& existing : impl.state_request.jobs) {
    if (existing.priority < job.priority) {
      sorts_last = false;
      break;
    }
  }
  const bool fast = policy->order_preserving() && sorts_last;

  // Placing can still reach a plan search; pack into a copy and commit
  // only once it succeeds.
  impl.state_request.jobs.push_back(job);
  PackResult result;
  try {
    if (fast) {
      result = impl.state_result;
      result.verdicts.emplace_back();
      impl.place_job(impl.state_request, impl.state_request.pools,
                     Impl::pool_starts(impl.state_request.pools), devices, job,
                     *policy, result, counters, result.verdicts.back());
      Impl::compute_stats(impl.state_request, result);
      counters.pools_repacked =
          result.verdicts.back().verdict == Verdict::kAdmit ? 1 : 0;
    } else {
      result = impl.run_pack(impl.state_request, impl.state_request.pools,
                             devices, *policy, counters);
      counters.pools_repacked = impl.state_request.pools.size();
    }
  } catch (...) {
    impl.state_request.jobs.pop_back();
    throw;
  }
  impl.state_result = std::move(result);
  impl.next_auto_id = next_auto_id;
  FleetReport report = impl.make_report(
      impl.state_request, impl.state_request.pools, impl.state_result,
      counters);
  report.wall_seconds = seconds_since(start);
  return report;
}

FleetReport FleetPlanner::apply(const JobFinish& event) {
  const auto start = std::chrono::steady_clock::now();
  Impl& impl = *impl_;
  if (!impl.has_state) {
    throw std::logic_error("FleetPlanner::apply before pack()");
  }
  std::size_t index = impl.state_request.jobs.size();
  for (std::size_t i = 0; i < impl.state_request.jobs.size(); ++i) {
    if (impl.state_request.jobs[i].id == event.id) {
      index = i;
      break;
    }
  }
  if (index == impl.state_request.jobs.size()) {
    throw std::invalid_argument("fleet apply: unknown job id '" + event.id +
                                "'");
  }
  const bool was_admitted =
      impl.state_result.verdicts[index].verdict == Verdict::kAdmit;
  impl.state_request.jobs.erase(impl.state_request.jobs.begin() +
                                static_cast<std::ptrdiff_t>(index));
  impl.state_result.verdicts.erase(impl.state_result.verdicts.begin() +
                                   static_cast<std::ptrdiff_t>(index));

  FleetCounters counters;
  if (was_admitted) {
    // Freed capacity can cascade (a deferred job may now fit), so repack —
    // pure integer arithmetic, every estimate served from the cache.
    const std::unique_ptr<PackingPolicy> policy =
        make_packing_policy(impl.state_request.policy);
    const std::vector<gpu::DeviceModel> devices =
        Impl::distinct_devices({&impl.state_request.pools});
    counters.estimates_reused = impl.state_request.jobs.size();
    impl.state_result = impl.run_pack(
        impl.state_request, impl.state_request.pools, devices, *policy,
        counters);
    counters.pools_repacked = impl.state_request.pools.size();
  } else {
    // A deferred/rejected job never held capacity: placements stand.
    Impl::compute_stats(impl.state_request, impl.state_result);
  }
  FleetReport report = impl.make_report(
      impl.state_request, impl.state_request.pools, impl.state_result,
      counters);
  report.wall_seconds = seconds_since(start);
  return report;
}

}  // namespace xmem::sched
