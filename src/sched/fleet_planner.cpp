#include "sched/fleet_planner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/request_fields.h"
#include "core/simulator.h"
#include "util/thread_pool.h"

namespace xmem::sched {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Queue-level archetype identity: two jobs with the same label + seed
/// share one CPU profile (and one archetype entry of a pack).
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
      fields::required(
          field("count", &GpuPool::count, integer<int>(1, kMaxFleetGpus))),
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
  /// Set when the job has no estimate (its sweep or its fallback plan
  /// replays past the 2^50-byte ceiling): the message every job of this
  /// archetype is rejected with.
  std::string unestimable;
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

/// 100 * part / whole, truncated. The product is taken in 128 bits: a
/// fleet of 2^50-byte cards holds more than INT64_MAX / 100 bytes.
int percent_of(std::int64_t part, std::int64_t whole) {
  __extension__ typedef __int128 int128;
  return static_cast<int>(static_cast<int128>(part) * 100 / whole);
}

/// The field lists' checks, so C++ callers get the document's messages,
/// plus what a list cannot express: unique job ids, a positive budget per
/// pool, one geometry per device name, and at most kMaxFleetGpus GPUs.
void validate(const FleetRequest& request) {
  FleetRequest::from_json(request.to_json());
  std::set<std::string> ids;
  for (const FleetJob& fleet_job : request.jobs) {
    if (!ids.insert(fleet_job.id).second) {
      throw std::invalid_argument("fleet request: duplicate job id '" +
                                  fleet_job.id + "'");
    }
  }
  std::int64_t gpus = 0;
  auto check_pool = [&gpus](const GpuPool& gpu_pool) {
    if (gpu_pool.device.job_budget() <= 0) {
      throw std::invalid_argument("fleet request: device '" +
                                  gpu_pool.device.name +
                                  "' has a non-positive job budget");
    }
    gpus += gpu_pool.count;
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
  if (gpus > kMaxFleetGpus) {
    throw std::invalid_argument(
        "fleet request: pools and what_if hold " + std::to_string(gpus) +
        " GPUs; one request may name at most " +
        std::to_string(kMaxFleetGpus));
  }
}

/// Distinct device models across the request's pools and what-if pools,
/// sorted by name.
std::vector<gpu::DeviceModel> distinct_devices(const FleetRequest& request) {
  std::map<std::string, gpu::DeviceModel> by_name;
  for (const std::vector<GpuPool>* pools : {&request.pools, &request.what_if}) {
    for (const GpuPool& gpu_pool : *pools) {
      by_name.emplace(gpu_pool.device.name, gpu_pool.device);
    }
  }
  std::vector<gpu::DeviceModel> devices;
  devices.reserve(by_name.size());
  for (const auto& [name, device] : by_name) devices.push_back(device);
  return devices;
}

/// One validated request's packs: the base pack and the what-if pack share
/// its archetypes (keyed by job_key), so the second profiles nothing.
struct Packer {
  core::EstimationService& service;
  util::ThreadPool* pool;  ///< null when serial
  const FleetRequest& request;
  std::unique_ptr<PackingPolicy> policy;
  /// Every device of the pools and what-if pools: the sweep and plan set.
  std::vector<gpu::DeviceModel> devices;
  std::map<std::string, Archetype> archetypes;

  Packer(core::EstimationService& service_in, util::ThreadPool* pool_in,
         const FleetRequest& request_in)
      : service(service_in),
        pool(pool_in),
        request(request_in),
        policy(make_packing_policy(request_in.policy)),
        devices(distinct_devices(request_in)) {}

  /// Per-device peaks for every archetype in the queue: one sweep (== one
  /// CPU profile, cold) each, fanned on the pool. A sweep past the replay
  /// ceiling marks its archetype unestimable instead of failing the
  /// request; any other sweep failure still propagates.
  void estimate_archetypes(FleetCounters& counters) {
    core::EstimateRequest sweep;  // the part every archetype sweep shares
    sweep.devices = devices;
    sweep.allocators = {request.allocator};
    sweep.estimators = {request.estimator};
    sweep.allocator_config = request.allocator_config;
    sweep.profile_iterations = request.profile_iterations;
    sweep.tenant = request.tenant;
    // (archetype key, its sweep) in first-arrival order
    std::vector<std::pair<std::string, core::EstimateRequest>> sweeps;
    for (const FleetJob& fleet_job : request.jobs) {
      const std::string key = job_key(fleet_job.job);
      if (!archetypes.emplace(key, Archetype{}).second) continue;
      sweep.job = fleet_job.job;
      sweeps.emplace_back(key, sweep);
    }
    counters.estimates_reused = request.jobs.size() - sweeps.size();

    std::vector<core::EstimateReport> reports(sweeps.size());
    std::vector<std::string> ceilings(sweeps.size());
    util::fan_out(pool, sweeps.size(), [&](std::size_t i) {
      try {
        reports[i] = service.sweep(sweeps[i].second);
      } catch (const core::ReplayCeilingError& error) {
        ceilings[i] = error.what();
      }
    });

    // Merge in sweep order so counter totals are thread-count-independent.
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      Archetype& archetype = archetypes.at(sweeps[i].first);
      if (!ceilings[i].empty()) {
        archetype.unestimable = ceilings[i];
        continue;
      }
      for (const core::EstimateEntry& entry : reports[i].entries) {
        if (!entry.supported) archetype.supported = false;
        archetype.peak_by_device[entry.device] = entry.estimated_peak;
      }
      counters += reports[i];
    }
  }

  /// Multi-GPU fallback candidates for one archetype, kept with it. The
  /// search shares the archetype's profile through the session
  /// (profiles_run stays == distinct_jobs). A plan past the replay ceiling
  /// leaves no candidates and marks the archetype unestimable.
  const std::vector<PlanCandidateLite>& plan_for(const core::TrainJob& job,
                                                 FleetCounters& counters) {
    Archetype& archetype = archetypes.at(job_key(job));
    if (archetype.plan.has_value()) return *archetype.plan;

    std::vector<PlanCandidateLite>& candidates = archetype.plan.emplace();
    core::PlanRequest plan = fallback_plan(request);
    plan.job = job;
    plan.devices = devices;
    core::PlanReport report;
    try {
      report = service.plan(plan);
    } catch (const core::ReplayCeilingError& error) {
      archetype.unestimable = error.what();
      return candidates;
    }
    counters.plans_run += 1;
    counters += report;

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

  /// Report fields for a job that was not placed: the cheapest-to-host
  /// fleet device (minimum demand; pool order breaks ties).
  void fill_best_single(JobVerdict& verdict, const std::vector<GpuPool>& pools,
                        const Archetype& archetype) const {
    std::int64_t best_demand = -1;
    for (const GpuPool& gpu_pool : pools) {
      const std::string& name = gpu_pool.device.name;
      const std::int64_t peak = archetype.peak_by_device.at(name);
      const std::int64_t demand = peak + request.headroom.bytes_for(name, peak);
      if (best_demand < 0 || demand < best_demand) {
        best_demand = demand;
        verdict.predicted_peak = peak;
        verdict.headroom_bytes = demand - peak;
        verdict.demand_bytes = demand;
      }
    }
  }

  /// Reject a job whose archetype has no estimate the way every job of it
  /// is rejected: the ceiling message, no demand.
  static bool reject_unestimable(const Archetype& archetype,
                                 JobVerdict& verdict) {
    if (archetype.unestimable.empty()) return false;
    verdict.verdict = Verdict::kReject;
    verdict.predicted_peak = 0;
    verdict.headroom_bytes = 0;
    verdict.demand_bytes = 0;
    verdict.reason = archetype.unestimable;
    return true;
  }

  /// Place one job against the current slots. Fills `verdict` and commits
  /// into `result` on admit.
  void place_job(const std::vector<GpuPool>& pools,
                 const std::vector<std::size_t>& pool_start,
                 const FleetJob& fleet_job, PackResult& result,
                 FleetCounters& counters, JobVerdict& verdict) {
    const core::TrainJob& job = fleet_job.job;
    verdict.id = fleet_job.id;
    verdict.label = job.label();
    verdict.priority = fleet_job.priority;
    const Archetype& archetype = archetypes.at(job_key(job));
    if (reject_unestimable(archetype, verdict)) return;
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
      if (policy->commit_bytes(demands[slot], empty) <= empty.budget) {
        single_feasible_empty = true;
      }
    }

    if (single_feasible_empty) {
      const int chosen = policy->choose(slots, demands);
      if (chosen >= 0) {
        const std::int64_t commit =
            policy->commit_bytes(demands[chosen], slots[chosen]);
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
        fill_best_single(verdict, pools, archetype);
        verdict.verdict = Verdict::kDefer;
        verdict.reason = "no GPU fits demand " +
                         std::to_string(verdict.demand_bytes) +
                         " bytes under current load";
      }
      return;
    }

    // Multi-GPU fallback: DistributedPlanner candidates, ranks co-located
    // on one pool.
    fill_best_single(verdict, pools, archetype);
    if (request.max_gpus_per_job <= 1) {
      verdict.verdict = Verdict::kReject;
      verdict.reason = "fits no single GPU (min demand " +
                       std::to_string(verdict.demand_bytes) +
                       " bytes) and max_gpus_per_job=1 disables splitting";
      return;
    }
    const std::vector<PlanCandidateLite>& candidates =
        plan_for(job, counters);
    if (reject_unestimable(archetype, verdict)) return;
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
        if (policy->commit_bytes(demand, empty) > budget) continue;
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
          const int chosen = policy->choose(slice, slice_demands);
          if (chosen < 0) {
            placed = false;
            break;
          }
          const std::int64_t commit =
              policy->commit_bytes(demand, slice[chosen]);
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

  void compute_stats(PackResult& result) const {
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
    stats.distinct_jobs = static_cast<int>(archetypes.size());
    stats.waste_bytes = stats.committed_bytes - stats.predicted_bytes;
    if (stats.total_budget_bytes > 0) {
      stats.utilization_pct =
          percent_of(stats.predicted_bytes, stats.total_budget_bytes);
      stats.committed_pct =
          percent_of(stats.committed_bytes, stats.total_budget_bytes);
    }
    if (total_free > 0) {
      stats.fragmentation_pct = 100 - percent_of(largest_free, total_free);
    }
    result.stats = stats;
  }

  /// Pack the whole queue onto `pools`, mint-condition slots. Deterministic
  /// given the archetypes: ordered integer arithmetic only.
  PackResult run_pack(const std::vector<GpuPool>& pools,
                      FleetCounters& counters) {
    PackResult result;
    std::vector<std::size_t> starts(pools.size(), 0);
    for (std::size_t p = 0; p < pools.size(); ++p) {
      starts[p] = result.slots.size();
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
                     [this](std::size_t a, std::size_t b) {
                       return request.jobs[a].priority >
                              request.jobs[b].priority;
                     });
    // Each job's largest peak over the fleet's devices.
    std::vector<std::int64_t> reference(request.jobs.size(), 0);
    for (std::size_t i = 0; i < request.jobs.size(); ++i) {
      const Archetype& archetype =
          archetypes.at(job_key(request.jobs[i].job));
      if (!archetype.supported || !archetype.unestimable.empty()) continue;
      for (const GpuPool& gpu_pool : pools) {
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
      policy->reorder(segment, reference);
      std::copy(segment.begin(), segment.end(), order.begin() + seg);
      seg = end;
    }

    for (const std::size_t index : order) {
      place_job(pools, starts, request.jobs[index], result, counters,
                result.verdicts[index]);
    }
    compute_stats(result);
    return result;
  }
};

FleetReport make_report(const std::string& policy,
                        const std::vector<GpuPool>& pools,
                        const PackResult& result,
                        const FleetCounters& counters) {
  FleetReport report;
  report.policy = policy;
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

WhatIfDelta make_delta(const std::vector<GpuPool>& added,
                       const PackResult& base, const PackResult& after) {
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

}  // namespace

FleetPlanner::FleetPlanner(core::EstimationService& service,
                           FleetPlannerOptions options)
    : service_(service), options_(options) {}

FleetReport FleetPlanner::pack(const FleetRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  FleetRequest materialized = request;
  for (std::size_t i = 0; i < materialized.jobs.size(); ++i) {
    if (materialized.jobs[i].id.empty()) {
      materialized.jobs[i].id = "job-" + std::to_string(i);
    }
  }
  validate(materialized);
  const std::unique_ptr<util::ThreadPool> pool =
      util::make_pool(options_.threads);
  Packer packer(service_, pool.get(), materialized);
  FleetCounters counters;
  packer.estimate_archetypes(counters);
  const PackResult base = packer.run_pack(materialized.pools, counters);
  counters.pools_repacked = materialized.pools.size();
  FleetReport report =
      make_report(materialized.policy, materialized.pools, base, counters);
  if (!materialized.what_if.empty()) {
    std::vector<GpuPool> augmented = materialized.pools;
    augmented.insert(augmented.end(), materialized.what_if.begin(),
                     materialized.what_if.end());
    // The what-if pack reuses the base pack's archetypes, so its estimation
    // cost is zero; report counters describe the base pack.
    FleetCounters what_if_counters;
    report.what_if = make_delta(materialized.what_if, base,
                                packer.run_pack(augmented, what_if_counters));
  }
  report.wall_seconds = seconds_since(start);
  return report;
}

}  // namespace xmem::sched
