// Service-layer estimation API: profile once, estimate many.
//
// The paper's headline claim (§3, Fig. 4) is that one cheap CPU profile can
// answer GPU-memory questions ahead of scheduling. Schedulers ask many
// what-if questions per job — "does it fit each card in the fleet, under
// each allocator policy?" — so the service accepts a structured
// EstimateRequest (job + candidate devices + allocator backends + report
// options) and answers all combinations in one sweep: the profile prefix is
// captured once in a ProfileSession, and one cheap simulator replay per
// allocator — read by every device's verdict — fans out concurrently on a
// util::ThreadPool. A bounded LRU of answers (the old EvalHarness estimate
// cache, collapsed into the service) makes repeated questions free: one
// answer per replay, keyed without a device, so the same job on new cards
// is free too.
//
// "xMem" and "xMem-noOrch" are answered here: a ProfileSession lookup
// under ProfileKey::of(job, ...) and one replay. Every baseline goes
// through the same supports() gate and the same steady-clock wrapper
// (core/estimator_api.h), so an unsupported job yields a supported=false
// entry, never a bogus peak.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc/backend_registry.h"
#include "core/distributed_planner.h"
#include "core/estimator_api.h"
#include "core/orchestrator.h"
#include "core/profile_session.h"
#include "gpu/device_model.h"
#include "util/json.h"
#include "util/sim_clock.h"

namespace xmem::util {
class ThreadPool;
}

namespace xmem::sched {
struct FleetRequest;
struct FleetReport;
}  // namespace xmem::sched

namespace xmem::core {

/// One structured what-if question: a job crossed with candidate devices,
/// allocator backends, and estimators. JSON round-trips through
/// from_json/to_json — the schema `xmem sweep` consumes (docs/API.md).
struct EstimateRequest {
  TrainJob job;
  std::vector<gpu::DeviceModel> devices;
  /// Allocator registry names the simulator replays against. Applies to
  /// session-backed estimators (xMem variants); baselines that do not
  /// replay an allocator get one entry per device. Empty = {default}.
  std::vector<std::string> allocators = {alloc::kDefaultBackendName};
  /// Estimator registry names. Empty = {"xMem"}.
  std::vector<std::string> estimators = {"xMem"};
  /// Per-backend policy knobs, keyed by registry name (JSON:
  /// `"allocator_config": {"cub-binned": {"max_bin": 20}}`). Only consulted
  /// for backends this request sweeps; every entry is validated up front so
  /// a malformed config fails the sweep with the backend's own message.
  std::map<std::string, alloc::BackendKnobs> allocator_config;
  int profile_iterations = 3;
  /// Record the reserved-bytes curve per entry (Fig. 6-style).
  bool record_curve = false;
  /// Tenant this request's profile-cache footprint is attributed to (JSON
  /// `"tenant"`; empty = untenanted, exempt from session quotas). The
  /// `xmem serve` daemon enforces per-tenant LRU quotas on it
  /// (docs/SERVER.md).
  std::string tenant;

  /// Parse a request document; device entries may be alias strings
  /// ("rtx3060") or full custom objects with capacity/m_init/m_fm bytes.
  /// Throws std::invalid_argument / util::JsonParseError on bad input.
  static EstimateRequest from_json(const util::Json& json);
  util::Json to_json() const;
};

/// Stage-level timing split for one entry (RQ4 / §6.1). On a profile cache
/// hit the profile/analyze stages cost nothing — that asymmetry is the
/// profile-once/estimate-many win, and the counters below prove it. Device
/// entries that share one replay charge the profile lookup and the replay
/// to the first of them; the others read its result and record no stage
/// cost (profile_cache_hit true, simulate_seconds 0).
struct StageTimings {
  double profile_seconds = 0.0;   ///< CPU profile (0 on hit)
  double analyze_seconds = 0.0;   ///< Analyzer + Orchestrator (0 on hit)
  double simulate_seconds = 0.0;  ///< simulator replay this entry ran
  double total_seconds = 0.0;     ///< wall time until this entry was answered
  bool profile_cache_hit = false;
  bool result_cache_hit = false;
};

/// One (estimator, device, allocator) answer inside a report.
struct EstimateEntry {
  std::string estimator;
  std::string device;
  std::string allocator;  ///< empty for estimators that ignore the allocator
  bool supported = true;
  std::int64_t estimated_peak = 0;
  bool oom_predicted = false;
  std::int64_t device_job_budget = 0;
  StageTimings timings;
  /// Per-Orchestrator-rule stats; meaningful when has_orchestrator_stats.
  bool has_orchestrator_stats = false;
  OrchestratorStats orchestrator_stats;
  std::vector<std::pair<util::TimeUs, std::int64_t>> reserved_curve;

  /// Adapter back to the uniform eval-protocol result type (§4.1.1).
  EstimateResult to_result() const;
  /// `include_timings=false` omits every wall-clock field, leaving only the
  /// deterministic payload (golden diffs, determinism tests).
  util::Json to_json(bool include_timings = true) const;
};

/// The tally every sweep, plan, and fleet report carries. `profiles_run ==
/// 1` for a single-job request that missed the cache once proves the CPU
/// profile ran exactly once. Counted after the fan-out barrier from what
/// each replay group recorded, so the counts do not depend on threads.
struct StageCounters {
  /// CPU profiles executed. profiles_run + profile_cache_hits is the number
  /// of session lookups: one per replayed group.
  std::size_t profiles_run = 0;
  std::size_t profile_cache_hits = 0;  ///< lookups the session served
  /// Simulator replays executed: one per (estimator, allocator) group whose
  /// answer missed the result cache — not one per device.
  std::size_t replays_run = 0;
  std::size_t result_cache_hits = 0;  ///< entries filled from a cached answer

  StageCounters& operator+=(const StageCounters& other);
  /// Set the four counts on `json` (an object) under their field names.
  void write_json(util::Json& json) const;
};

/// The answer to an EstimateRequest.
struct EstimateReport : StageCounters {
  TrainJob job;
  std::vector<EstimateEntry> entries;
  double wall_seconds = 0.0;

  util::Json to_json(bool include_timings = true) const;
};

/// A multi-GPU placement question: which (d, t, p) split of a GPU budget
/// makes this job fit the candidate devices? JSON round-trips through
/// from_json/to_json — the schema `xmem plan` consumes (docs/PLANNER.md).
struct PlanRequest {
  TrainJob job;
  /// Candidate cards every plan is judged against (OOM verdict per device).
  std::vector<gpu::DeviceModel> devices;
  /// GPU budget: every (d, t, p) with d*t*p <= max_gpus is evaluated.
  int max_gpus = 8;
  int micro_batches = 4;
  PipelineSchedule schedule = PipelineSchedule::kOneFOneB;
  int virtual_stages = 1;
  ZeroStage zero = ZeroStage::kNone;
  std::int64_t ddp_bucket_bytes = std::int64_t{25} * 1024 * 1024;
  /// In-flight DDP gradient buckets per rank (the old hard-coded 2).
  int ddp_bucket_count = 2;
  int activation_replication_pct = 25;
  /// Allocator the single-device replay entries — and the refine pass's
  /// per-rank replays — simulate against.
  std::string allocator = alloc::kDefaultBackendName;
  /// Policy knobs per backend, same schema and validation as
  /// EstimateRequest::allocator_config.
  std::map<std::string, alloc::BackendKnobs> allocator_config;
  int profile_iterations = 3;
  /// Keep only the best N candidates in the report (0 = all).
  std::size_t max_candidates = 0;
  /// Phase-2 refinement: re-simulate the top K ranked candidates per rank
  /// through the allocator tower (rank-sequence transform + simulator
  /// replay), yielding fragmentation-aware peaks and refined verdicts.
  /// 0 = analytic-only (the phase-1 ranking stands unrefined). Defaults to
  /// 4 since the reset-based replay path costs ~0.93 ms/candidate
  /// (docs/PLANNER.md); `xmem plan --no-refine` forces 0.
  int refine_top_k = 4;
  /// Full-search refinement: replay EVERY ranked decomposition, ignoring
  /// refine_top_k (JSON `"refine_top_k": "all"`, CLI `--refine-all`) —
  /// affordable because symmetric-rank collapse + replay memoization make
  /// each candidate pay only for its distinct sequences (docs/PLANNER.md).
  bool refine_all = false;
  /// Simulate collectives as schedule-tied overlap windows instead of
  /// resident staging buffers, and RE-RANK the refined candidates by their
  /// window-replayed peaks (`xmem plan --comm-overlap`). Each refined
  /// candidate is replayed twice per rank — resident and window mode — so
  /// the report can state `window_vs_resident_pct`; the ranking moves when
  /// the replayed order disagrees with the analytic one
  /// (`stage_counters.rerank_changed`). Off by default: reports stay
  /// byte-identical to the resident-mode behavior.
  bool comm_overlap = false;
  /// Same semantics as EstimateRequest::tenant.
  std::string tenant;

  /// Parse a plan document; throws std::invalid_argument /
  /// util::JsonParseError on bad input.
  static PlanRequest from_json(const util::Json& json);
  util::Json to_json() const;
};

/// One ranked (d, t, p) answer inside a PlanReport.
struct PlanCandidate {
  HybridPlan plan;
  /// 100 * (single_device_peak - per_rank_peak) / single_device_peak,
  /// integer-truncated (negative when the split's overheads dominate).
  int savings_pct = 0;
  bool splitting_helps = false;
  /// Parallel to PlanRequest::devices: per-device "fits" verdict.
  std::vector<bool> device_fits;
  std::size_t fits_count = 0;

  /// Phase-2 refinement (set only for the top-K candidates when
  /// `refine_top_k > 0`): per-rank sequences replayed through the real
  /// allocator tower, so round-up, caching, and fragmentation — absent from
  /// the analytic arithmetic above — are priced in. The peaks cover every
  /// one of the candidate's d*t*p deployment ranks in stage-major order
  /// (stage 0's d*t ranks, then stage 1's, ...); DP/TP siblings of a stage
  /// replay identical sequences — the transform has no DP/TP rank index —
  /// so symmetric-rank collapse reports them exactly without re-simulating.
  bool replayed = false;
  std::vector<std::int64_t> replayed_rank_peaks;
  std::int64_t replayed_per_rank_peak = 0;
  /// 100 * (replayed - analytic) / analytic, integer-truncated: how far the
  /// analytic model was from the allocator-aware answer.
  int analytic_vs_replayed_pct = 0;
  std::vector<bool> replayed_device_fits;
  std::size_t replayed_fits_count = 0;
  /// Any device verdict flipped between the analytic and replayed peaks —
  /// the fidelity gain the paper's §3.4 argument predicts.
  bool verdict_changed = false;

  /// Overlap-window refinement (PlanRequest::comm_overlap): the replayed_*
  /// fields above then hold the window-mode peaks (what the re-rank
  /// orders by), and the resident-mode baseline is kept alongside so the
  /// report can state what the schedule-tied windows saved.
  bool window_mode = false;
  std::vector<std::int64_t> resident_rank_peaks;
  std::int64_t resident_per_rank_peak = 0;
  /// 100 * (window - resident) / resident, integer-truncated (<= 0 when
  /// the overlap windows shrink the collective footprint — the expected
  /// direction, since every window is bounded by its resident buffer).
  int window_vs_resident_pct = 0;

  util::Json to_json(const std::vector<gpu::DeviceModel>& devices) const;
};

/// The answer to a PlanRequest: single-device baseline (analytic + one
/// simulator replay, read by every candidate device) and the ranked
/// decompositions.
/// The whole search runs exactly one CPU profile — `profiles_run == 1` on
/// a cold session, proven by the same stage counters as a sweep.
struct PlanReport : StageCounters {
  TrainJob job;
  std::vector<gpu::DeviceModel> devices;
  /// Component-model peak on one device (the "does splitting help" base).
  std::int64_t single_device_peak = 0;
  /// Replay-based single-device entries, one per candidate device.
  std::vector<EstimateEntry> single_device_entries;
  /// Ranked best-first: most devices fit, then fewest GPUs, lowest peak.
  std::vector<PlanCandidate> candidates;
  std::size_t candidates_evaluated = 0;  ///< before any max_candidates cap
  std::size_t replayed_candidates = 0;   ///< candidates refined per rank
  /// Refinement-cost counters, computed as a deterministic post-pass over
  /// the refined candidates' sequence fingerprints (candidate order, then
  /// resident-before-window, then stage order) — they describe the
  /// deduplicated replay schedule, so they are identical serial vs
  /// threaded (docs/PLANNER.md):
  ///   rank_replays_run  — distinct sequences the refine pass must simulate
  ///   replays_deduped   — logical rank replays collapsed onto a sibling's
  ///                       verdict (symmetric DP/TP ranks + repeated stages)
  ///   replay_cache_hits — repeat sightings of an earlier candidate's
  ///                       sequence
  /// They model an unbounded memo shared by every worker. The real memo is
  /// a 32-entry FIFO per worker thread (ReplayScratch), so more replays run
  /// than rank_replays_run counts, and how many depends on the thread count
  /// and scheduling (gpt2, batch 8, 16 GPUs, refine all + overlap: 435
  /// counted, 494-525 run).
  std::size_t rank_replays_run = 0;
  std::size_t replays_deduped = 0;
  std::size_t replay_cache_hits = 0;
  /// Overlap-window mode (request.comm_overlap): the refined prefix was
  /// re-ranked by window-replayed peaks; rerank_changed counts the refined
  /// candidates whose final position differs from their analytic one.
  bool comm_overlap = false;
  std::size_t rerank_changed = 0;
  double wall_seconds = 0.0;

  util::Json to_json(bool include_timings = true) const;
};

struct ServiceOptions {
  /// Worker threads for the sweep fan-out. 0 = hardware default (capped at
  /// 8); 1 = fully serial on the caller's thread (no pool) — byte-identical
  /// reports either way, which the service test asserts.
  std::size_t threads = 0;
  std::size_t profile_cache_capacity = ProfileSession::kDefaultCapacity;
  /// Per-tenant bound on the profile LRU (only used when this service owns
  /// its session — a shared `session` arrives with its own quota).
  SessionQuota session_quota;
  /// Bounded LRU of answers: one per session-backed replay, one per entry
  /// of a per-device estimator.
  std::size_t result_cache_capacity = 256;
  /// Share a ProfileSession across services/estimators; null = own one.
  std::shared_ptr<ProfileSession> session;
};

class EstimationService {
 public:
  explicit EstimationService(ServiceOptions options = {});
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  /// Answer every (estimator, device, allocator) combination of the
  /// request. Entry order is deterministic (request order) regardless of
  /// the thread count.
  EstimateReport sweep(const EstimateRequest& request);

  /// Answer a multi-GPU placement question with a two-phase search:
  /// phase 1 prunes every (d, t, p) decomposition of the GPU budget with
  /// cheap analytic arithmetic and ranks the survivors; phase 2 (when
  /// `refine_top_k > 0`) replays the top-K candidates' per-rank sequences
  /// through the allocator tower via the rank-sequence transform layer,
  /// yielding fragmentation-aware rank peaks and refined verdicts. The
  /// single-device entries, the whole grid, and every rank replay share
  /// ONE profile through the session (profiles_run == 1 cold); both phases
  /// fan out on the pool. Deterministic: serial and threaded searches
  /// produce byte-identical reports.
  PlanReport plan(const PlanRequest& request);

  /// Pack a job queue onto a GPU fleet (sched::FleetPlanner over this
  /// service — one profile per distinct job archetype, docs/SCHEDULER.md).
  /// Each call is a fresh planner and one pack(). Defined in
  /// src/sched/service_fleet.cpp.
  sched::FleetReport fleet(const sched::FleetRequest& request);

  /// Single-question convenience: a one-entry sweep (one estimator, one
  /// device, one allocator).
  EstimateEntry estimate(const std::string& estimator_name,
                         const TrainJob& job, const gpu::DeviceModel& device,
                         const std::string& allocator =
                             alloc::kDefaultBackendName,
                         int profile_iterations = 3,
                         bool record_curve = false);

  ProfileSession& session() { return *session_; }

 private:
  /// The report entries one unit of work answers. A session-backed
  /// estimator's device entries under one allocator all read ONE replay:
  /// the simulator runs without a capacity limit (§3.4), so the peak is
  /// device-independent and each device verdict is just peak > budget.
  /// Any other estimator's entry is a group of its own.
  struct EntryGroup {
    std::string estimator;
    std::string allocator;  ///< empty for estimators that ignore it
    bool session_backed = false;
    std::vector<std::size_t> slots;    ///< report entry indices
    std::vector<std::size_t> devices;  ///< request device index per slot
    /// Written by the worker that ran the group; read after the barrier.
    bool replayed = false;
    bool profile_cache_hit = false;
  };

  /// One result-cache lookup for the group's answer. On a miss, look up
  /// the profile and replay once (session-backed) or run the estimator on
  /// the group's one device, and cache the answer. Every entry is then
  /// filled from it, each device with its own verdict.
  void run_group(const EstimateRequest& request, EntryGroup& group,
                 std::vector<EstimateEntry>& entries);
  Estimator& estimator_instance(const std::string& name);

  bool result_cache_get(const std::string& key, EstimateEntry& out);
  void result_cache_put(const std::string& key, const EstimateEntry& entry);

  ServiceOptions options_;
  std::shared_ptr<ProfileSession> session_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when threads == 1

  struct Impl;  ///< estimator instances + result LRU (mutex-guarded)
  std::unique_ptr<Impl> impl_;
};

}  // namespace xmem::core
