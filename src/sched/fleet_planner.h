// Fleet packing: plan a queue of heterogeneous training jobs onto a
// heterogeneous GPU fleet from CPU-side estimates.
//
// The paper's motivation (§1) is cluster admission control: schedulers
// reserve whole GPUs because they cannot trust memory estimates. The
// FleetPlanner closes that loop — per-job peaks come through
// core::EstimationService (ONE CPU profile per *distinct* job archetype,
// however long the queue; `profiles_run == distinct_jobs` is the
// acceptance proof), a PackingPolicy turns those peaks plus a
// configurable headroom into placements, and jobs too big for any single
// card fall back to DistributedPlanner candidates consuming multiple
// slots of one pool.
//
// pack(FleetRequest) -> FleetReport is the planner's one entry point:
// placements, per-job admit/defer/reject verdicts and fleet
// utilization/fragmentation stats. A request carrying `what_if` pools also
// diffs a second pack of the same queue on the augmented fleet ("what does
// adding 8xA100 buy?"); both packs share the request's archetypes, so the
// second costs zero profiles. A report is a function of its request: the
// planner keeps nothing from one pack to the next (the service's caches
// move only counters).
//
// Determinism contract matches sweep/plan: serial and ThreadPool-fanned
// packs produce byte-identical FleetReports (the fan-out only computes
// per-archetype estimates; packing itself is ordered integer arithmetic).
//
// Surfaces: EstimationService::fleet(), `xmem fleet REQUEST.json`, and the
// server's `fleet` data-plane method (docs/SCHEDULER.md).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/estimation_service.h"
#include "sched/packing_policy.h"

namespace xmem::sched {

/// One queue entry: a training job with an admission priority. Queue order
/// is priority-major (higher first), arrival-minor.
struct FleetJob {
  std::string id;  ///< unique; from_json fills "job-<index>" when absent
  core::TrainJob job;
  int priority = 0;

  static FleetJob from_json(const util::Json& json, std::size_t index);
  util::Json to_json() const;
};

/// Most GPUs one request may name, `pools` and `what_if` together: the
/// planner keeps one slot per GPU and the report lists every one. It also
/// keeps fleet byte totals inside int64 for cards up to 2^50 bytes.
inline constexpr int kMaxFleetGpus = 4096;

/// `count` identical devices. The fleet is a list of pools; slot order —
/// the order first-fit scans — is pool-major, index-minor.
struct GpuPool {
  gpu::DeviceModel device;
  int count = 0;

  util::Json to_json() const;
};

/// Safety margin added on top of the predicted peak before packing:
/// absolute bytes plus a percent of the prediction.
struct HeadroomRule {
  std::int64_t absolute_bytes = 0;
  int percent = 0;
};

/// Fleet headroom: one base rule, optionally overridden per device name.
struct HeadroomPolicy {
  HeadroomRule base;
  std::map<std::string, HeadroomRule> per_device;  ///< keyed by device name

  std::int64_t bytes_for(const std::string& device_name,
                         std::int64_t predicted_peak) const;
};

/// The full packing question: queue + fleet + policy knobs. JSON
/// round-trips through from_json/to_json — the schema `xmem fleet` and the
/// server's `fleet` method consume (docs/SCHEDULER.md).
struct FleetRequest {
  std::vector<FleetJob> jobs;
  std::vector<GpuPool> pools;
  /// Packing policy registry name (packing_policy.h).
  std::string policy = "first-fit";
  HeadroomPolicy headroom;
  std::string estimator = "xMem";
  std::string allocator = alloc::kDefaultBackendName;
  std::map<std::string, alloc::BackendKnobs> allocator_config;
  int profile_iterations = 3;
  /// GPU budget for the DistributedPlanner fallback when a job fits no
  /// single device. 1 disables multi-GPU placement.
  int max_gpus_per_job = 8;
  /// Forwarded to the plan fallback (core::PlanRequest::comm_overlap):
  /// simulate collectives as schedule-tied overlap windows and rank the
  /// fallback candidates by window-replayed peaks.
  bool comm_overlap = false;
  /// Forwarded to the plan fallback (core::PlanRequest::refine_all): replay
  /// every ranked decomposition instead of the top-K.
  bool refine_all = false;
  /// Same semantics as EstimateRequest::tenant.
  std::string tenant;
  /// Extra pools to diff against: non-empty asks pack() to attach a
  /// WhatIfDelta for "this fleet plus these pools".
  std::vector<GpuPool> what_if;

  static FleetRequest from_json(const util::Json& json);
  util::Json to_json() const;
};

enum class Verdict : std::uint8_t { kAdmit, kDefer, kReject };
const char* to_string(Verdict verdict);

/// One GPU slot granted to a job (one per rank for multi-GPU jobs).
struct Placement {
  std::size_t pool = 0;
  int index = 0;           ///< device index within the pool
  std::string device;      ///< pool's device name (for self-contained JSON)
  std::int64_t committed_bytes = 0;
};

/// Per-job answer. admit = placed; defer = feasible on an empty fleet but
/// not under the current load; reject = infeasible even empty (no single
/// device fits and no <= max_gpus_per_job split of any pool does either).
struct JobVerdict {
  std::string id;
  std::string label;
  int priority = 0;
  Verdict verdict = Verdict::kReject;
  bool supported = true;
  /// Predicted peak on the chosen (or best) device; per rank when gpus > 1.
  std::int64_t predicted_peak = 0;
  std::int64_t headroom_bytes = 0;
  std::int64_t demand_bytes = 0;  ///< predicted_peak + headroom
  int gpus = 0;                   ///< slots consumed (0 unless admitted)
  std::string split;              ///< "d2,t1,p2" when a plan fallback placed it
  std::vector<Placement> placements;
  std::string reason;  ///< set for defer/reject

  util::Json to_json() const;
};

/// Post-pack state of one GPU slot.
struct GpuState {
  std::size_t pool = 0;
  int index = 0;
  std::string device;
  std::int64_t budget_bytes = 0;
  std::int64_t committed_bytes = 0;
  std::int64_t predicted_bytes = 0;  ///< sum of placed jobs' predicted peaks
  int jobs = 0;

  util::Json to_json() const;
};

/// Fleet-level outcome. All percents are integer-truncated so reports stay
/// byte-identical across platforms. `utilization_pct` is predicted job
/// bytes over total budget — the number the whole-gpu baseline loses on;
/// `committed_pct` counts demand + headroom as committed by the policy;
/// `fragmentation_pct` is how scattered the free bytes are
/// (100 - 100 * largest_free / total_free).
struct FleetStats {
  int gpus_total = 0;
  int gpus_used = 0;
  int jobs = 0;
  int admitted = 0;
  int deferred = 0;
  int rejected = 0;
  int distinct_jobs = 0;  ///< distinct archetypes in the queue
  std::int64_t total_budget_bytes = 0;
  std::int64_t committed_bytes = 0;
  std::int64_t predicted_bytes = 0;  ///< admitted jobs' predicted peaks
  std::int64_t waste_bytes = 0;      ///< committed - predicted
  int utilization_pct = 0;
  int committed_pct = 0;
  int fragmentation_pct = 0;

  util::Json to_json() const;
};

/// Diff of two packs of the same queue: the base fleet vs base + added
/// pools. Shares the base pack's archetypes, so the second pack costs zero
/// profiles.
struct WhatIfDelta {
  std::vector<GpuPool> added_pools;
  int admitted_delta = 0;
  int deferred_delta = 0;
  int rejected_delta = 0;
  int utilization_pct_delta = 0;
  /// Job ids whose verdict improved to admit with the added pools.
  std::vector<std::string> newly_admitted;
  FleetStats stats_after;

  util::Json to_json() const;
};

/// Estimation / packing work performed, proving the profile-once win:
/// `profiles_run == distinct_jobs` on a cold session, regardless of queue
/// length.
struct FleetCounters : core::StageCounters {
  std::size_t plans_run = 0;        ///< DistributedPlanner fallback searches
  /// Jobs that share an earlier job's archetype: jobs - distinct_jobs.
  std::size_t estimates_reused = 0;
  std::size_t pools_repacked = 0;   ///< always the base fleet's pool count

  util::Json to_json() const;
};

struct FleetReport {
  std::string policy;
  std::vector<GpuPool> pools;
  std::vector<JobVerdict> verdicts;  ///< arrival order (not packing order)
  std::vector<GpuState> gpus;        ///< slot order
  FleetStats stats;
  FleetCounters counters;
  std::optional<WhatIfDelta> what_if;
  double wall_seconds = 0.0;

  /// `include_timings=false` omits wall_seconds, leaving the deterministic
  /// payload (golden diffs, serial-vs-threaded identity, server replies).
  util::Json to_json(bool include_timings = true) const;
};

struct FleetPlannerOptions {
  /// Worker threads for the per-archetype estimate fan-out. 0 = hardware
  /// default (capped at 8); 1 = fully serial on the caller's thread —
  /// byte-identical reports either way.
  std::size_t threads = 0;
};

/// Packs fleets through an EstimationService. Holds only what it was built
/// with, so one planner may pack any number of requests, each as a fresh
/// planner would.
class FleetPlanner {
 public:
  explicit FleetPlanner(core::EstimationService& service,
                        FleetPlannerOptions options = {});

  /// Validate and pack the request. Attaches a WhatIfDelta when
  /// request.what_if is non-empty. Throws std::invalid_argument before any
  /// profile runs when the schema rejects the request, two jobs share an
  /// id, a device has no job budget, one device name has two geometries,
  /// or the fleet names more than kMaxFleetGpus GPUs.
  FleetReport pack(const FleetRequest& request);

 private:
  core::EstimationService& service_;
  FleetPlannerOptions options_;
};

}  // namespace xmem::sched
