#include "core/estimation_service.h"

#include <algorithm>
#include <chrono>
#include <list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <unordered_set>

#include "core/estimator_registry.h"
#include "core/request_fields.h"
#include "core/sequence_transform.h"
#include "core/simulator.h"
#include "util/thread_pool.h"

namespace xmem::core {

namespace {

util::Json timings_to_json(const StageTimings& timings) {
  util::Json json = util::Json::object();
  json["profile_seconds"] = util::Json(timings.profile_seconds);
  json["analyze_seconds"] = util::Json(timings.analyze_seconds);
  json["simulate_seconds"] = util::Json(timings.simulate_seconds);
  json["total_seconds"] = util::Json(timings.total_seconds);
  json["profile_cache_hit"] = util::Json(timings.profile_cache_hit);
  json["result_cache_hit"] = util::Json(timings.result_cache_hit);
  return json;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

namespace {

const alloc::BackendKnobs& knobs_for(
    const std::map<std::string, alloc::BackendKnobs>& config,
    const std::string& name) {
  static const alloc::BackendKnobs empty;
  const auto it = config.find(name);
  return it == config.end() ? empty : it->second;
}

/// The result-cache key of one entry group: everything its answer depends
/// on. A session-backed replay runs without a capacity limit (§3.4), so its
/// key names no device; `device` is set only for per-device estimators.
std::string result_key(const EstimateRequest& request,
                       const std::string& estimator,
                       const std::string& allocator,
                       const gpu::DeviceModel* device) {
  std::string key = estimator;
  key += '|';
  key += request.job.label();
  key += "|s";
  key += std::to_string(request.job.seed);
  key += "|it";
  key += std::to_string(request.profile_iterations);
  if (device != nullptr) {
    key += '|';
    key += device->name;
    // A name alone does not identify a device: custom what-if entries may
    // reuse a name with different geometry, and the verdict depends on it.
    key += '#';
    key += std::to_string(device->capacity);
    key += '/';
    key += std::to_string(device->m_init);
    key += '/';
    key += std::to_string(device->m_fm);
  }
  key += '|';
  key += allocator;
  const alloc::BackendKnobs& knobs =
      knobs_for(request.allocator_config, allocator);
  if (!knobs.empty()) {
    // Same backend under different knobs is a different question.
    key += '{';
    key += alloc::knobs_fingerprint(knobs);
    key += '}';
  }
  key += request.record_curve ? "|curve" : "";
  return key;
}

const fields::List<EstimateRequest>& sweep_fields() {
  using R = EstimateRequest;
  using fields::field;
  static const fields::List<R> list = {
      fields::job(&R::job),
      fields::devices(&R::devices),
      field("allocators", &R::allocators, fields::array(fields::allocator())),
      field("estimators", &R::estimators, fields::array(fields::estimator())),
      fields::allocator_config(&R::allocator_config),
      field("profile_iterations", &R::profile_iterations,
            fields::integer<int>(1)),
      field("curve", &R::record_curve, fields::boolean()),
      field("tenant", &R::tenant, fields::text(), fields::Emit::kUnlessDefault),
  };
  return list;
}

}  // namespace

EstimateRequest EstimateRequest::from_json(const util::Json& json) {
  return fields::parse(json, sweep_fields(), "request");
}

util::Json EstimateRequest::to_json() const {
  return fields::write(sweep_fields(), *this);
}

EstimateResult EstimateEntry::to_result() const {
  EstimateResult result;
  result.supported = supported;
  result.estimated_peak = estimated_peak;
  result.oom_predicted = oom_predicted;
  result.runtime_seconds = timings.total_seconds;
  return result;
}

util::Json EstimateEntry::to_json(bool include_timings) const {
  util::Json json = util::Json::object();
  json["estimator"] = util::Json(estimator);
  json["device"] = util::Json(device);
  if (!allocator.empty()) json["allocator"] = util::Json(allocator);
  json["supported"] = util::Json(supported);
  if (supported) {
    json["estimated_peak_bytes"] = util::Json(estimated_peak);
    json["oom_predicted"] = util::Json(oom_predicted);
    json["device_job_budget_bytes"] = util::Json(device_job_budget);
  }
  if (has_orchestrator_stats) {
    util::Json stats = util::Json::object();
    stats["params_pinned"] =
        util::Json(static_cast<std::int64_t>(orchestrator_stats.params_pinned));
    stats["batch_truncated"] = util::Json(
        static_cast<std::int64_t>(orchestrator_stats.batch_truncated));
    stats["gradients_retimed"] = util::Json(
        static_cast<std::int64_t>(orchestrator_stats.gradients_retimed));
    stats["optimizer_states_pinned"] = util::Json(static_cast<std::int64_t>(
        orchestrator_stats.optimizer_states_pinned));
    json["orchestrator_stats"] = std::move(stats);
  }
  if (include_timings) json["timings"] = timings_to_json(timings);
  if (!reserved_curve.empty()) {
    util::Json curve = util::Json::array();
    for (const auto& [ts, bytes] : reserved_curve) {
      util::Json point = util::Json::array();
      point.push_back(util::Json(ts));
      point.push_back(util::Json(bytes));
      curve.push_back(std::move(point));
    }
    json["reserved_curve"] = std::move(curve);
  }
  return json;
}

StageCounters& StageCounters::operator+=(const StageCounters& other) {
  profiles_run += other.profiles_run;
  profile_cache_hits += other.profile_cache_hits;
  replays_run += other.replays_run;
  result_cache_hits += other.result_cache_hits;
  return *this;
}

void StageCounters::write_json(util::Json& json) const {
  json["profiles_run"] = util::Json(static_cast<std::int64_t>(profiles_run));
  json["profile_cache_hits"] =
      util::Json(static_cast<std::int64_t>(profile_cache_hits));
  json["replays_run"] = util::Json(static_cast<std::int64_t>(replays_run));
  json["result_cache_hits"] =
      util::Json(static_cast<std::int64_t>(result_cache_hits));
}

util::Json EstimateReport::to_json(bool include_timings) const {
  util::Json json = util::Json::object();
  json["schema_version"] = util::Json(1);
  json["job"] = fields::write(fields::job_fields(), job);
  util::Json entry_array = util::Json::array();
  for (const EstimateEntry& entry : entries) {
    entry_array.push_back(entry.to_json(include_timings));
  }
  json["entries"] = std::move(entry_array);
  util::Json counters = util::Json::object();
  write_json(counters);
  json["stage_counters"] = std::move(counters);
  if (include_timings) json["wall_seconds"] = util::Json(wall_seconds);
  return json;
}

namespace {

util::Json peaks_to_json(const std::vector<std::int64_t>& peaks) {
  util::Json array = util::Json::array();
  for (const std::int64_t peak : peaks) array.push_back(util::Json(peak));
  return array;
}

util::Json verdicts_to_json(const std::vector<gpu::DeviceModel>& devices,
                            const std::vector<bool>& fits) {
  util::Json verdicts = util::Json::array();
  for (std::size_t i = 0; i < devices.size() && i < fits.size(); ++i) {
    util::Json verdict = util::Json::object();
    verdict["device"] = util::Json(devices[i].name);
    verdict["fits"] = util::Json(static_cast<bool>(fits[i]));
    verdicts.push_back(std::move(verdict));
  }
  return verdicts;
}

}  // namespace

namespace {

/// "refine_top_k": a count, or the string "all" for full-search refinement
/// (refine_all) — any other string is a typo, not a count.
fields::Field<PlanRequest> refine_top_k_field() {
  static const std::string kAll = "all";
  fields::Field<PlanRequest> field = fields::field(
      "refine_top_k", &PlanRequest::refine_top_k, fields::integer<int>(0));
  field.read = [count = field.read, key = field.key](
                   const util::Json& value, PlanRequest& request,
                   const std::string& context) {
    if (!value.is_string()) return count(value, request, context);
    if (value.as_string() != kAll) {
      fields::At{context, key}.fail("must be an integer >= 0 or the string \"" +
                                    kAll +
                                    "\" (refine every ranked decomposition)");
    }
    request.refine_all = true;
  };
  field.write = [count = field.write, key = field.key](
                    const PlanRequest& request, util::JsonObject& out) {
    if (!request.refine_all) return count(request, out);
    out[key] = util::Json(kAll);
  };
  return field;
}

const fields::List<PlanRequest>& plan_fields() {
  using R = PlanRequest;
  using fields::field;
  using fields::integer;
  static const fields::List<R> list = {
      fields::job(&R::job),
      fields::devices(&R::devices),
      field("max_gpus", &R::max_gpus, fields::gpu_budget()),
      field("micro_batches", &R::micro_batches, integer<int>(1)),
      field("schedule", &R::schedule,
            fields::named("pipeline schedule", pipeline_schedule_from_string,
                          {PipelineSchedule::kOneFOneB,
                           PipelineSchedule::kInterleaved})),
      field("virtual_stages", &R::virtual_stages, integer<int>(1)),
      field("zero_stage", &R::zero, integer<ZeroStage>(0, 3)),
      // The analytic model adds count x bytes per rank; the caps keep that
      // product at most 2^60.
      field("ddp_bucket_bytes", &R::ddp_bucket_bytes, fields::byte_count(0)),
      field("ddp_bucket_count", &R::ddp_bucket_count, integer<int>(0, 1024)),
      field("activation_replication_pct", &R::activation_replication_pct,
            integer<int>(0, 100)),
      field("allocator", &R::allocator, fields::allocator()),
      fields::allocator_config(&R::allocator_config),
      field("profile_iterations", &R::profile_iterations, integer<int>(1)),
      field("max_candidates", &R::max_candidates, integer<std::size_t>()),
      refine_top_k_field(),
      // Left out when off, so resident-mode documents round-trip unchanged.
      field("comm_overlap", &R::comm_overlap, fields::boolean(),
            fields::Emit::kUnlessDefault),
      field("tenant", &R::tenant, fields::text(), fields::Emit::kUnlessDefault),
  };
  return list;
}

}  // namespace

PlanRequest PlanRequest::from_json(const util::Json& json) {
  return fields::parse(json, plan_fields(), "plan request");
}

util::Json PlanRequest::to_json() const {
  return fields::write(plan_fields(), *this);
}

util::Json PlanCandidate::to_json(
    const std::vector<gpu::DeviceModel>& devices) const {
  util::Json json = util::Json::object();
  json["data_parallel"] = util::Json(plan.data_parallel);
  json["tensor_parallel"] = util::Json(plan.tensor_parallel);
  json["pipeline_stages"] = util::Json(plan.pipeline_stages);
  json["gpus"] = util::Json(plan.gpus);
  json["per_rank_peak_bytes"] = util::Json(plan.per_rank_peak);
  json["savings_pct"] = util::Json(savings_pct);
  json["splitting_helps"] = util::Json(splitting_helps);
  json["rank_peaks_bytes"] = peaks_to_json(plan.rank_peaks);
  util::Json stages = util::Json::array();
  for (const PipelineStage& stage : plan.stages) {
    util::Json entry = util::Json::object();
    entry["first_component"] =
        util::Json(static_cast<std::int64_t>(stage.first_component));
    entry["last_component"] =
        util::Json(static_cast<std::int64_t>(stage.last_component));
    entry["peak_bytes"] = util::Json(stage.estimated_peak);
    stages.push_back(std::move(entry));
  }
  json["stages"] = std::move(stages);
  json["fits"] = verdicts_to_json(devices, device_fits);
  json["replayed"] = util::Json(replayed);
  if (replayed) {
    util::Json replay = util::Json::object();
    replay["rank_peaks_bytes"] = peaks_to_json(replayed_rank_peaks);
    replay["per_rank_peak_bytes"] = util::Json(replayed_per_rank_peak);
    replay["analytic_vs_replayed_pct"] = util::Json(analytic_vs_replayed_pct);
    replay["fits"] = verdicts_to_json(devices, replayed_device_fits);
    replay["verdict_changed"] = util::Json(verdict_changed);
    if (window_mode) {
      // Overlap-window refinement: the peaks above are window-mode; keep
      // the resident baseline next to them (these keys only appear under
      // comm_overlap, so resident-mode reports stay byte-identical).
      replay["resident_rank_peaks_bytes"] =
          peaks_to_json(resident_rank_peaks);
      replay["resident_per_rank_peak_bytes"] =
          util::Json(resident_per_rank_peak);
      replay["window_vs_resident_pct"] = util::Json(window_vs_resident_pct);
    }
    json["replay"] = std::move(replay);
  }
  return json;
}

util::Json PlanReport::to_json(bool include_timings) const {
  util::Json json = util::Json::object();
  json["schema_version"] = util::Json(1);
  // Emitted only when set, so resident-mode reports stay byte-identical.
  if (comm_overlap) json["comm_overlap"] = util::Json(true);
  json["job"] = fields::write(fields::job_fields(), job);
  util::Json single = util::Json::object();
  single["analytic_peak_bytes"] = util::Json(single_device_peak);
  util::Json entry_array = util::Json::array();
  for (const EstimateEntry& entry : single_device_entries) {
    entry_array.push_back(entry.to_json(include_timings));
  }
  single["entries"] = std::move(entry_array);
  json["single_device"] = std::move(single);
  util::Json candidate_array = util::Json::array();
  for (const PlanCandidate& candidate : candidates) {
    candidate_array.push_back(candidate.to_json(devices));
  }
  json["candidates"] = std::move(candidate_array);
  json["candidates_evaluated"] =
      util::Json(static_cast<std::int64_t>(candidates_evaluated));
  util::Json counters = util::Json::object();
  write_json(counters);
  counters["replayed_candidates"] =
      util::Json(static_cast<std::int64_t>(replayed_candidates));
  counters["rank_replays"] =
      util::Json(static_cast<std::int64_t>(rank_replays_run));
  counters["replays_deduped"] =
      util::Json(static_cast<std::int64_t>(replays_deduped));
  counters["replay_cache_hits"] =
      util::Json(static_cast<std::int64_t>(replay_cache_hits));
  if (comm_overlap) {
    // Only under comm_overlap, so resident-mode reports stay byte-identical.
    counters["rerank_changed"] =
        util::Json(static_cast<std::int64_t>(rerank_changed));
  }
  json["stage_counters"] = std::move(counters);
  if (include_timings) json["wall_seconds"] = util::Json(wall_seconds);
  return json;
}

// ---------------------------------------------------------------------------

namespace {

/// 100 * (value - base) / base, integer-truncated; 0 when base is 0.
int pct_change(std::int64_t value, std::int64_t base) {
  return base > 0 ? static_cast<int>(100 * (value - base) / base) : 0;
}

/// Best-first plan order over (-fits, gpus, peak, d, t, p): fit the most
/// candidate devices with the fewest GPUs and the lowest per-rank peak;
/// (d, t, p) breaks the remaining ties so the order is total and
/// thread-count independent. `replayed` reads fits and peak from the
/// refined fields instead of the analytic ones.
auto rank_key(const PlanCandidate& candidate, bool replayed) {
  return std::make_tuple(
      -static_cast<std::int64_t>(replayed ? candidate.replayed_fits_count
                                          : candidate.fits_count),
      candidate.plan.gpus,
      replayed ? candidate.replayed_per_rank_peak
               : candidate.plan.per_rank_peak,
      candidate.plan.data_parallel, candidate.plan.tensor_parallel,
      candidate.plan.pipeline_stages);
}

void sort_best_first(std::vector<PlanCandidate>::iterator first,
                     std::vector<PlanCandidate>::iterator last,
                     bool replayed) {
  std::sort(first, last,
            [replayed](const PlanCandidate& a, const PlanCandidate& b) {
              return rank_key(a, replayed) < rank_key(b, replayed);
            });
}

/// The single-device baseline as a sweep: one xMem replay of the session's
/// profile, every candidate device's verdict read from its peak.
EstimateRequest single_device_request(const PlanRequest& request) {
  EstimateRequest baseline;
  baseline.job = request.job;
  baseline.devices = request.devices;
  baseline.allocators = {request.allocator};
  baseline.estimators = {"xMem"};
  baseline.allocator_config = request.allocator_config;
  baseline.profile_iterations = request.profile_iterations;
  baseline.tenant = request.tenant;
  return baseline;
}

/// Phase 1: price every (d, t, p) decomposition of the GPU budget with the
/// analytic stage model, rank best-first, and apply the max_candidates cap.
void rank_analytic(const PlanRequest& request,
                   const std::vector<ComponentProfile>& profiles,
                   util::ThreadPool* pool, PlanReport& report) {
  DistributedPlanner planner;
  report.single_device_peak = planner.single_device_peak(profiles);

  const std::vector<Decomposition> decompositions =
      DistributedPlanner::enumerate_decompositions(
          request.max_gpus, static_cast<int>(profiles.size()));
  report.candidates_evaluated = decompositions.size();
  report.candidates.resize(decompositions.size());

  util::fan_out(pool, decompositions.size(), [&](std::size_t i) {
    HybridOptions options;
    options.data_parallel = decompositions[i].data_parallel;
    options.tensor_parallel = decompositions[i].tensor_parallel;
    options.pipeline_stages = decompositions[i].pipeline_stages;
    options.micro_batches = request.micro_batches;
    options.schedule = request.schedule;
    options.virtual_stages = request.virtual_stages;
    options.zero = request.zero;
    options.ddp_bucket_bytes = request.ddp_bucket_bytes;
    options.ddp_bucket_count = request.ddp_bucket_count;
    options.tensor.activation_replication_pct =
        request.activation_replication_pct;
    PlanCandidate& candidate = report.candidates[i];
    candidate.plan = planner.plan_hybrid(profiles, options);
    candidate.savings_pct =
        -pct_change(candidate.plan.per_rank_peak, report.single_device_peak);
    candidate.splitting_helps =
        candidate.plan.per_rank_peak < report.single_device_peak;
    candidate.device_fits.reserve(request.devices.size());
    for (const gpu::DeviceModel& device : request.devices) {
      const bool fits = candidate.plan.per_rank_peak <= device.job_budget();
      candidate.device_fits.push_back(fits);
      if (fits) ++candidate.fits_count;
    }
  });

  sort_best_first(report.candidates.begin(), report.candidates.end(),
                  /*replayed=*/false);
  if (request.max_candidates > 0 &&
      report.candidates.size() > request.max_candidates) {
    report.candidates.resize(request.max_candidates);
  }
}

/// Per-candidate stage fingerprints a refine pass recorded, slot-indexed so
/// the fan-out writes them race-free.
struct RefineTrace {
  std::vector<std::uint64_t> resident_fps;  ///< comm_overlap baseline
  std::vector<std::uint64_t> replay_fps;    ///< the ranking replays
  std::size_t symmetric = 1;                ///< d*t siblings per stage
};

/// Phase 2: replay the first `refine_count` ranked candidates per rank
/// through the allocator tower. The transformer binds the ONE cached
/// orchestrated sequence; each worker owns its scratch, so the fan-out is
/// deterministic and the buffers amortize across a candidate's ranks.
///
/// Symmetric-rank collapse: a candidate's replayed peaks cover all d*t*p
/// deployment ranks, but the transform has no DP/TP rank index — the d*t
/// siblings of a pipeline stage replay byte-identical sequences — so only
/// the p stage sequences are ever simulated and the stage verdict is
/// fanned across its siblings exactly. Cross-candidate memoization then
/// prices repeated sequences (fingerprint + full-compare guard in the
/// ReplayScratch result cache) at a lookup instead of a simulation.
std::vector<RefineTrace> refine(const PlanRequest& request,
                                const OrchestratedSequence& base,
                                const std::vector<ComponentProfile>& profiles,
                                std::size_t refine_count,
                                util::ThreadPool* pool, PlanReport& report) {
  const SequenceTransformer transformer(base, profiles);
  std::vector<RefineTrace> traces(refine_count);
  util::fan_out(pool, refine_count, [&](std::size_t i) {
    PlanCandidate& candidate = report.candidates[i];
    RankTransformOptions transform;
    transform.data_parallel = candidate.plan.data_parallel;
    transform.tensor_parallel = candidate.plan.tensor_parallel;
    transform.micro_batches = request.micro_batches;
    transform.zero = request.zero;
    transform.ddp_bucket_bytes = request.ddp_bucket_bytes;
    transform.ddp_bucket_count = request.ddp_bucket_count;
    transform.tensor.activation_replication_pct =
        request.activation_replication_pct;
    transform.materialize_blocks = false;  // events are all the replay needs

    const std::size_t stages =
        std::max<std::size_t>(candidate.plan.rank_peaks.size(), 1);
    const std::size_t symmetric = static_cast<std::size_t>(
        std::max(1, candidate.plan.data_parallel) *
        std::max(1, candidate.plan.tensor_parallel));
    const std::size_t ranks = stages * symmetric;  // deployment ranks
    RefineTrace& trace = traces[i];
    trace.symmetric = symmetric;
    trace.replay_fps.resize(stages);
    MemorySimulator simulator;
    SimulationOptions sim_options;
    sim_options.backend = request.allocator;
    sim_options.backend_knobs =
        knobs_for(request.allocator_config, request.allocator);
    // Worker-thread-lifetime scratch: every candidate this thread picks
    // up reuses the transform buffers AND the allocator tower, which is
    // reset — not rebuilt — between replays. The backend_reset() contract
    // (fw/backend.h) makes each replay byte-identical to a fresh-tower
    // replay, and a memo-cache hit returns exactly what that replay
    // would, so the report stays deterministic regardless of how
    // candidates land on threads or what the cache happens to hold.
    thread_local RankScratch scratch;
    thread_local ReplayScratch replay_scratch;
    // Replay stage `s` into its d*t sibling slots; returns the fingerprint.
    const auto replay_stage = [&](std::size_t s,
                                  std::vector<std::int64_t>& peaks) {
      const OrchestratedSequence& sequence = transformer.rank_sequence(
          transform, candidate.plan.stages, stages, s, scratch);
      const std::uint64_t fingerprint = sequence_fingerprint(sequence);
      const std::int64_t peak = simulator.replay_peak_memoized(
          sequence, fingerprint, sim_options, replay_scratch);
      std::fill_n(peaks.begin() + static_cast<std::ptrdiff_t>(s * symmetric),
                  symmetric, peak);
      return fingerprint;
    };
    candidate.replayed_rank_peaks.assign(ranks, 0);
    // Overlap-window mode replays every stage twice — resident first for
    // the baseline, then with schedule-tied windows — so the report can
    // state what the windows saved (window_vs_resident_pct).
    if (request.comm_overlap) {
      candidate.resident_rank_peaks.assign(ranks, 0);
      trace.resident_fps.resize(stages);
    }
    for (std::size_t s = 0; s < stages; ++s) {
      if (request.comm_overlap) {
        transform.comm_overlap = false;
        trace.resident_fps[s] = replay_stage(s, candidate.resident_rank_peaks);
        transform.comm_overlap = true;
      }
      trace.replay_fps[s] = replay_stage(s, candidate.replayed_rank_peaks);
    }
    candidate.replayed = true;
    candidate.replayed_per_rank_peak =
        *std::max_element(candidate.replayed_rank_peaks.begin(),
                          candidate.replayed_rank_peaks.end());
    if (request.comm_overlap) {
      candidate.window_mode = true;
      candidate.resident_per_rank_peak =
          *std::max_element(candidate.resident_rank_peaks.begin(),
                            candidate.resident_rank_peaks.end());
      candidate.window_vs_resident_pct =
          pct_change(candidate.replayed_per_rank_peak,
                     candidate.resident_per_rank_peak);
    }
    candidate.analytic_vs_replayed_pct = pct_change(
        candidate.replayed_per_rank_peak, candidate.plan.per_rank_peak);
    candidate.replayed_device_fits.reserve(request.devices.size());
    for (const gpu::DeviceModel& device : request.devices) {
      const bool fits = candidate.replayed_per_rank_peak <= device.job_budget();
      candidate.replayed_device_fits.push_back(fits);
      if (fits) ++candidate.replayed_fits_count;
    }
    candidate.verdict_changed =
        candidate.replayed_device_fits != candidate.device_fits;
  });
  return traces;
}

/// Refinement-cost counters: a deterministic post-pass over the recorded
/// fingerprints in (candidate, resident-before-window, stage) order — the
/// schedule the dedup machinery executes, independent of thread
/// interleaving. Each stage stands for its d*t symmetric deployment ranks:
/// the first sighting of a fingerprint is one real replay (rank_replays)
/// and m-1 collapsed siblings; a repeat within the candidate collapses all
/// m onto the earlier verdict; a repeat across candidates/modes is a
/// memo-cache lookup (replay_cache_hits) plus m-1 collapsed siblings.
void count_refine_replays(const std::vector<RefineTrace>& traces,
                          PlanReport& report) {
  std::unordered_set<std::uint64_t> seen;
  std::unordered_set<std::uint64_t> candidate_seen;
  for (const RefineTrace& trace : traces) {
    candidate_seen.clear();
    const auto account = [&](std::uint64_t fingerprint) {
      if (!candidate_seen.insert(fingerprint).second) {
        report.replays_deduped += trace.symmetric;
        return;
      }
      if (seen.insert(fingerprint).second) {
        ++report.rank_replays_run;
      } else {
        ++report.replay_cache_hits;
      }
      report.replays_deduped += trace.symmetric - 1;
    };
    for (const std::uint64_t fp : trace.resident_fps) account(fp);
    for (const std::uint64_t fp : trace.replay_fps) account(fp);
  }
}

/// Overlap-window mode: the replayed peaks are the ranking, not an
/// annotation. Re-sort the refined prefix by the window-replayed verdicts;
/// the unrefined tail keeps its analytic order behind it.
void rerank_by_replay(std::size_t refine_count, PlanReport& report) {
  const auto split_of = [&report](std::size_t i) {
    const HybridPlan& plan = report.candidates[i].plan;
    return std::make_tuple(plan.data_parallel, plan.tensor_parallel,
                           plan.pipeline_stages);
  };
  std::vector<std::tuple<int, int, int>> before;
  before.reserve(refine_count);
  for (std::size_t i = 0; i < refine_count; ++i) before.push_back(split_of(i));
  sort_best_first(report.candidates.begin(),
                  report.candidates.begin() +
                      static_cast<std::ptrdiff_t>(refine_count),
                  /*replayed=*/true);
  for (std::size_t i = 0; i < refine_count; ++i) {
    if (split_of(i) != before[i]) ++report.rerank_changed;
  }
}

}  // namespace

struct EstimationService::Impl {
  std::mutex estimators_mutex;
  std::map<std::string, std::unique_ptr<Estimator>> estimators;

  std::mutex results_mutex;
  std::list<std::string> results_lru;  ///< front = most recently used
  std::map<std::string,
           std::pair<EstimateEntry, std::list<std::string>::iterator>>
      results;
};

EstimationService::EstimationService(ServiceOptions options)
    : options_(options),
      session_(options.session
                   ? options.session
                   : std::make_shared<ProfileSession>(
                         options.profile_cache_capacity,
                         options.session_quota)),
      pool_(util::make_pool(options.threads)),
      impl_(std::make_unique<Impl>()) {}

EstimationService::~EstimationService() = default;

Estimator& EstimationService::estimator_instance(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->estimators_mutex);
  auto it = impl_->estimators.find(name);
  if (it == impl_->estimators.end()) {
    // Construction happens under the lock on purpose: SchedTune trains its
    // GBM at construction and must do so exactly once per service.
    it = impl_->estimators.emplace(name, make_estimator(name)).first;
  }
  return *it->second;
}

bool EstimationService::result_cache_get(const std::string& key,
                                         EstimateEntry& out) {
  std::lock_guard<std::mutex> lock(impl_->results_mutex);
  auto it = impl_->results.find(key);
  if (it == impl_->results.end()) return false;
  impl_->results_lru.splice(impl_->results_lru.begin(), impl_->results_lru,
                            it->second.second);
  out = it->second.first;
  return true;
}

void EstimationService::result_cache_put(const std::string& key,
                                         const EstimateEntry& entry) {
  std::lock_guard<std::mutex> lock(impl_->results_mutex);
  if (impl_->results.count(key) > 0) return;  // concurrent duplicate
  impl_->results_lru.push_front(key);
  impl_->results.emplace(key, std::make_pair(entry, impl_->results_lru.begin()));
  while (impl_->results.size() > options_.result_cache_capacity &&
         !impl_->results_lru.empty()) {
    impl_->results.erase(impl_->results_lru.back());
    impl_->results_lru.pop_back();
  }
}

void EstimationService::run_group(const EstimateRequest& request,
                                  EntryGroup& group,
                                  std::vector<EstimateEntry>& entries) {
  const auto group_start = std::chrono::steady_clock::now();
  const gpu::DeviceModel& first_device = request.devices[group.devices.front()];
  const std::string key =
      result_key(request, group.estimator, group.allocator,
                 group.session_backed ? nullptr : &first_device);
  // A session-backed answer carries the replay's peak, stats, curve and the
  // first entry's timings; any other answer is its one device's entry.
  EstimateEntry answer;
  const bool hit = result_cache_get(key, answer);
  if (!hit && group.session_backed) {
    const ProfileSession::Lookup lookup = session_->get(
        ProfileKey::of(request.job, request.profile_iterations,
                       estimator_orchestrates(group.estimator)),
        request.tenant);

    const auto replay_start = std::chrono::steady_clock::now();
    MemorySimulator simulator;
    SimulationOptions sim_options;
    sim_options.backend = group.allocator;
    sim_options.backend_knobs =
        knobs_for(request.allocator_config, group.allocator);
    sim_options.record_series = request.record_curve;
    // Worker-thread-lifetime scratch: consecutive groups on this thread
    // reset the allocator tower instead of rebuilding it (byte-identical
    // results per the backend_reset() contract, so the report stays
    // independent of how groups land on threads).
    thread_local ReplayScratch replay_scratch;
    SimulationResult simulation = simulator.replay(
        lookup.artifacts->orchestration.sequence, sim_options,
        &replay_scratch);
    group.replayed = true;
    group.profile_cache_hit = lookup.cache_hit;

    answer.estimated_peak = simulation.peak_device;
    answer.has_orchestrator_stats = true;
    answer.orchestrator_stats = lookup.artifacts->orchestration.stats;
    answer.reserved_curve = std::move(simulation.reserved_series);
    answer.timings.simulate_seconds = seconds_since(replay_start);
    answer.timings.profile_cache_hit = lookup.cache_hit;
    if (!lookup.cache_hit) {
      answer.timings.profile_seconds = lookup.artifacts->profile_seconds;
      answer.timings.analyze_seconds = lookup.artifacts->analyze_seconds;
    }
    answer.timings.total_seconds = seconds_since(group_start);
  } else if (!hit) {
    const EstimateResult result =
        estimator_instance(group.estimator).estimate(request.job, first_device);
    answer.supported = result.supported;
    answer.estimated_peak = result.supported ? result.estimated_peak : 0;
    answer.oom_predicted = result.supported && result.oom_predicted;
    // The uniform wrapper clock (estimator_api.h), so lazy estimator
    // construction (SchedTune's one-time GBM training) is not charged to
    // the entry that happened to trigger it.
    answer.timings.total_seconds = result.runtime_seconds;
  }
  if (!hit) result_cache_put(key, answer);

  for (std::size_t k = 0; k < group.slots.size(); ++k) {
    const gpu::DeviceModel& device = request.devices[group.devices[k]];
    EstimateEntry& entry = entries[group.slots[k]];
    entry = answer;
    entry.estimator = group.estimator;
    entry.device = device.name;
    entry.allocator = group.allocator;
    entry.device_job_budget = device.job_budget();
    if (group.session_backed) {
      entry.oom_predicted = entry.estimated_peak > entry.device_job_budget;
      if (k > 0) {
        // The lookup and the replay are charged once, to the first entry.
        entry.timings = StageTimings{};
        entry.timings.profile_cache_hit = true;
        entry.timings.total_seconds = answer.timings.total_seconds;
      }
    }
    entry.timings.result_cache_hit = hit;
  }
}

EstimateReport EstimationService::sweep(const EstimateRequest& request) {
  const auto sweep_start = std::chrono::steady_clock::now();

  // The document's checks, so a C++ caller gets the document's messages
  // and a bad question fails before any profile runs.
  EstimateRequest::from_json(request.to_json());
  const std::vector<std::string> allocators =
      request.allocators.empty()
          ? std::vector<std::string>{alloc::kDefaultBackendName}
          : request.allocators;
  const std::vector<std::string> estimators =
      request.estimators.empty() ? std::vector<std::string>{"xMem"}
                                 : request.estimators;

  // Fix the (deterministic) entry order up front — estimator, then device,
  // then allocator — and bind every slot to the group that answers it.
  std::vector<EntryGroup> groups;
  std::map<std::pair<std::string, std::string>, std::size_t> replay_groups;
  std::size_t slot = 0;
  for (const std::string& estimator : estimators) {
    const bool session_backed = estimator_uses_session(estimator);
    for (std::size_t d = 0; d < request.devices.size(); ++d) {
      if (!session_backed) {
        groups.push_back(EntryGroup{estimator, std::string(), false,
                                    {slot++}, {d}});
        continue;
      }
      for (const std::string& allocator : allocators) {
        const auto [it, added] = replay_groups.emplace(
            std::make_pair(estimator, allocator), groups.size());
        if (added) groups.push_back(EntryGroup{estimator, allocator, true, {}, {}});
        groups[it->second].slots.push_back(slot++);
        groups[it->second].devices.push_back(d);
      }
    }
  }

  EstimateRequest normalized = request;
  normalized.allocators = allocators;
  normalized.estimators = estimators;

  EstimateReport report;
  report.job = request.job;
  report.entries.resize(slot);
  util::fan_out(pool_.get(), groups.size(), [&](std::size_t i) {
    run_group(normalized, groups[i], report.entries);
  });
  for (const EstimateEntry& entry : report.entries) {
    if (entry.timings.result_cache_hit) ++report.result_cache_hits;
  }
  for (const EntryGroup& group : groups) {
    if (!group.replayed) continue;
    ++report.replays_run;
    ++(group.profile_cache_hit ? report.profile_cache_hits
                               : report.profiles_run);
  }
  report.wall_seconds = seconds_since(sweep_start);
  return report;
}

PlanReport EstimationService::plan(const PlanRequest& request) {
  const auto plan_start = std::chrono::steady_clock::now();

  PlanRequest::from_json(request.to_json());  // as in sweep()

  PlanReport report;
  report.job = request.job;
  report.devices = request.devices;
  report.comm_overlap = request.comm_overlap;

  // Single-device baseline (the first entry to arrive pays for the
  // profile; in-flight dedup keeps concurrent entries from profiling
  // twice).
  EstimateReport baseline = sweep(single_device_request(request));
  report.single_device_entries = std::move(baseline.entries);
  static_cast<StageCounters&>(report) = baseline;

  // The per-layer attribution the whole candidate grid shares: by now the
  // profile is resident (or in the degenerate all-results-cached case this
  // lookup is the one that runs it), so the search costs ONE profile total.
  const ProfileSession::Lookup lookup = session_->get(
      ProfileKey::of(request.job, request.profile_iterations,
                     /*orchestrate=*/true),
      request.tenant);
  ++(lookup.cache_hit ? report.profile_cache_hits : report.profiles_run);
  const std::vector<ComponentProfile> profiles =
      per_component_profile(lookup.artifacts->analysis.timeline);

  rank_analytic(request, profiles, pool_.get(), report);

  // Phase 2 covers the top-K survivors, or every ranked decomposition
  // under refine_all.
  const std::size_t refine_count =
      request.refine_all
          ? report.candidates.size()
          : std::min<std::size_t>(
                static_cast<std::size_t>(request.refine_top_k),
                report.candidates.size());
  if (refine_count > 0) {
    count_refine_replays(
        refine(request, lookup.artifacts->orchestration.sequence, profiles,
               refine_count, pool_.get(), report),
        report);
    // Re-ranks run on the calling thread after the fan-out barrier, so
    // serial and threaded searches stay byte-identical.
    if (request.comm_overlap) rerank_by_replay(refine_count, report);
  }
  report.replayed_candidates = refine_count;
  report.wall_seconds = seconds_since(plan_start);
  return report;
}

EstimateEntry EstimationService::estimate(const std::string& estimator_name,
                                          const TrainJob& job,
                                          const gpu::DeviceModel& device,
                                          const std::string& allocator,
                                          int profile_iterations,
                                          bool record_curve) {
  EstimateRequest request;
  request.job = job;
  request.devices = {device};
  request.allocators = {allocator};
  request.estimators = {estimator_name};
  request.profile_iterations = profile_iterations;
  request.record_curve = record_curve;
  return std::move(sweep(request).entries.front());
}

}  // namespace xmem::core
