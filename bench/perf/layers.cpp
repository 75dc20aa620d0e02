#include <algorithm>
#include <map>
#include <tuple>

#include "core/analyzer.h"
#include "core/distributed_planner.h"
#include "core/orchestrator.h"
#include "core/profile_runner.h"
#include "gpu/ground_truth.h"
#include "models/zoo.h"
#include "perf.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace xmem::perf {

namespace {

const alloc::BackendKnobs& knobs_for(
    const std::map<std::string, alloc::BackendKnobs>& config,
    const std::string& backend) {
  static const alloc::BackendKnobs kDefaults;
  const auto it = config.find(backend);
  return it == config.end() ? kDefaults : it->second;
}

/// The key the service files an xMem profile under (all Orchestrator rules
/// on, JSON round trip on — the service defaults every workload uses).
core::ProfileKey profile_key(const core::TrainJob& job, int iterations) {
  core::ProfileKey key;
  key.model_name = job.model_name;
  key.batch_size = job.batch_size;
  key.optimizer = job.optimizer;
  key.placement = job.placement;
  key.seed = job.seed;
  key.profile_iterations = iterations;
  return key;
}

}  // namespace

void Decomposer::check(bool ok, const std::string& what) {
  if (!ok) mismatches_.push_back(what);
}

std::shared_ptr<const core::ProfileArtifacts> Decomposer::profile(
    core::EstimationService& service, const core::TrainJob& job,
    int iterations, bool profiled_by_service) {
  if (!profiled_by_service) {
    auto span = tracer_.span("core.session.lookup");
    return service.session().get(profile_key(job, iterations)).artifacts;
  }
  auto artifacts = std::make_shared<core::ProfileArtifacts>();
  fw::ModelDescriptor model;
  {
    auto span = tracer_.span("models.build");
    model = models::build_model(job.model_name, job.batch_size);
  }
  {
    auto span = tracer_.span("fw.profile");
    core::ProfileOptions options;
    options.iterations = iterations;
    options.placement = job.placement;
    options.seed = job.seed;
    artifacts->trace = core::profile_on_cpu(model, job.optimizer, options);
  }
  std::string json;
  {
    auto span = tracer_.span("trace.to_json");
    json = artifacts->trace.to_json_string();
    span.set_value(static_cast<std::int64_t>(json.size()));
  }
  {
    auto span = tracer_.span("trace.from_json");
    artifacts->trace = trace::Trace::from_json_string(json);
  }
  {
    auto span = tracer_.span("core.analyzer");
    artifacts->analysis = core::Analyzer().analyze(artifacts->trace);
    span.set_value(
        static_cast<std::int64_t>(artifacts->analysis.stats.memory_events));
  }
  {
    auto span = tracer_.span("core.orchestrator");
    artifacts->orchestration =
        core::Orchestrator().orchestrate(artifacts->analysis.timeline, {});
  }
  return artifacts;
}

std::int64_t Decomposer::replay(const core::OrchestratedSequence& sequence,
                                const std::string& backend,
                                const alloc::BackendKnobs& knobs) {
  core::SimulationOptions options;
  options.backend = backend;
  options.backend_knobs = knobs;
  auto span = tracer_.span("core.simulator.replay", backend);
  span.set_value(static_cast<std::int64_t>(sequence.events.size()));
  ++replays_;
  return simulator_.replay(sequence, options, &replay_scratch_).peak_device;
}

std::int64_t Decomposer::memo_replay(const core::OrchestratedSequence& sequence,
                                     const core::SimulationOptions& options) {
  std::uint64_t fingerprint = 0;
  {
    auto span = tracer_.span("core.transform.fingerprint");
    fingerprint = core::sequence_fingerprint(sequence);
  }
  auto span = tracer_.span("core.simulator.replay", options.backend);
  span.set_value(static_cast<std::int64_t>(sequence.events.size()));
  bool hit = false;
  const std::int64_t peak = simulator_.replay_peak_memoized(
      sequence, fingerprint, options, replay_scratch_, &hit);
  ++memo_lookups_;
  if (hit) {
    ++memo_hits_;
    span.rename("core.simulator.memo_hit");
  } else {
    ++replays_;
  }
  return peak;
}

void Decomposer::decompose(core::EstimationService& service,
                           const Question& question, const Answer& answer) {
  switch (question.kind) {
    case Kind::kSweep: sweep(service, question.sweep, answer.sweep); break;
    case Kind::kPlan: plan(service, question.plan, answer.plan); break;
    case Kind::kFleet: fleet(service, question.fleet, answer); break;
  }
}

void Decomposer::sweep(core::EstimationService& service,
                       const core::EstimateRequest& request,
                       const core::EstimateReport& report) {
  const auto artifacts = profile(service, request.job,
                                 request.profile_iterations,
                                 report.profiles_run > 0);
  const std::string label = "sweep " + request.job.label();
  check(report.entries.size() ==
            request.devices.size() * request.allocators.size(),
        label + ": entry count");
  std::size_t index = 0;
  for (const gpu::DeviceModel& device : request.devices) {
    for (const std::string& backend : request.allocators) {
      if (index >= report.entries.size()) return;
      const core::EstimateEntry& entry = report.entries[index++];
      if (entry.timings.result_cache_hit) continue;
      const std::int64_t peak =
          replay(artifacts->orchestration.sequence, backend,
                 knobs_for(request.allocator_config, backend));
      check(entry.estimated_peak == peak &&
                entry.oom_predicted == (peak > device.job_budget()) &&
                entry.allocator == backend,
            label + " on " + device.name + "/" + backend);
    }
  }
}

void Decomposer::plan(core::EstimationService& service,
                      const core::PlanRequest& request,
                      const core::PlanReport& report) {
  const std::string label = "plan " + request.job.label();
  const auto artifacts = profile(service, request.job,
                                 request.profile_iterations,
                                 report.profiles_run > 0);
  const core::OrchestratedSequence& base = artifacts->orchestration.sequence;
  const alloc::BackendKnobs& knobs =
      knobs_for(request.allocator_config, request.allocator);
  for (std::size_t d = 0; d < request.devices.size() &&
                          d < report.single_device_entries.size();
       ++d) {
    const core::EstimateEntry& entry = report.single_device_entries[d];
    if (entry.timings.result_cache_hit) continue;
    const std::int64_t peak = replay(base, request.allocator, knobs);
    check(entry.estimated_peak == peak, label + ": single-device entry");
  }

  // Phase 1: every (d, t, p) decomposition priced analytically.
  std::vector<core::ComponentProfile> profiles;
  {
    auto span = tracer_.span("core.planner.components");
    profiles = core::per_component_profile(artifacts->analysis.timeline);
  }
  std::map<std::tuple<int, int, int>, core::HybridPlan> phase1;
  {
    auto span = tracer_.span("core.planner.phase1");
    const core::DistributedPlanner planner;
    check(planner.single_device_peak(profiles) == report.single_device_peak,
          label + ": single-device peak");
    for (const core::Decomposition& split :
         core::DistributedPlanner::enumerate_decompositions(
             request.max_gpus, static_cast<int>(profiles.size()))) {
      core::HybridOptions options;
      options.data_parallel = split.data_parallel;
      options.tensor_parallel = split.tensor_parallel;
      options.pipeline_stages = split.pipeline_stages;
      options.micro_batches = request.micro_batches;
      options.schedule = request.schedule;
      options.virtual_stages = request.virtual_stages;
      options.zero = request.zero;
      options.ddp_bucket_bytes = request.ddp_bucket_bytes;
      options.ddp_bucket_count = request.ddp_bucket_count;
      options.tensor.activation_replication_pct =
          request.activation_replication_pct;
      phase1[{split.data_parallel, split.tensor_parallel,
              split.pipeline_stages}] = planner.plan_hybrid(profiles, options);
    }
    span.set_value(static_cast<std::int64_t>(phase1.size()));
  }
  check(phase1.size() == report.candidates_evaluated,
        label + ": candidates evaluated");

  // Phase 2: the candidates the service refined, stage by stage.
  std::unique_ptr<core::SequenceTransformer> transformer;
  for (const core::PlanCandidate& candidate : report.candidates) {
    const auto it = phase1.find({candidate.plan.data_parallel,
                                 candidate.plan.tensor_parallel,
                                 candidate.plan.pipeline_stages});
    if (it == phase1.end()) {
      check(false, label + ": unknown candidate");
      continue;
    }
    const core::HybridPlan& mine = it->second;
    check(mine.per_rank_peak == candidate.plan.per_rank_peak &&
              mine.rank_peaks == candidate.plan.rank_peaks,
          label + ": analytic candidate peaks");
    if (!candidate.replayed) continue;
    if (!transformer) {
      transformer = std::make_unique<core::SequenceTransformer>(base, profiles);
    }
    core::RankTransformOptions transform;
    transform.data_parallel = mine.data_parallel;
    transform.tensor_parallel = mine.tensor_parallel;
    transform.micro_batches = request.micro_batches;
    transform.zero = request.zero;
    transform.ddp_bucket_bytes = request.ddp_bucket_bytes;
    transform.ddp_bucket_count = request.ddp_bucket_count;
    transform.tensor.activation_replication_pct =
        request.activation_replication_pct;
    transform.materialize_blocks = false;
    core::SimulationOptions options;
    options.backend = request.allocator;
    options.backend_knobs = knobs;

    const std::size_t stages = std::max<std::size_t>(mine.rank_peaks.size(), 1);
    const std::size_t symmetric = static_cast<std::size_t>(
        std::max(1, mine.data_parallel) * std::max(1, mine.tensor_parallel));
    const auto stage_peak = [&](std::size_t stage, bool overlap) {
      transform.comm_overlap = overlap;
      const core::OrchestratedSequence* sequence = nullptr;
      {
        auto span = tracer_.span("core.transform.rank_sequence");
        sequence = &transformer->rank_sequence(transform, mine.stages, stages,
                                               stage, rank_scratch_);
        span.set_value(static_cast<std::int64_t>(sequence->events.size()));
      }
      return memo_replay(*sequence, options);
    };
    for (std::size_t s = 0; s < stages; ++s) {
      const std::size_t rank = s * symmetric;
      if (request.comm_overlap) {
        check(rank < candidate.resident_rank_peaks.size() &&
                  candidate.resident_rank_peaks[rank] == stage_peak(s, false),
              label + ": resident stage peak");
      }
      check(rank < candidate.replayed_rank_peaks.size() &&
                candidate.replayed_rank_peaks[rank] ==
                    stage_peak(s, request.comm_overlap),
            label + ": replayed stage peak");
    }
  }
}

void Decomposer::fleet(core::EstimationService& service,
                       const sched::FleetRequest& request,
                       const Answer& answer) {
  sched::FleetReport report;
  {
    auto span = tracer_.span("sched.pack");
    span.set_value(static_cast<std::int64_t>(request.jobs.size()));
    sched::FleetPlannerOptions options;
    options.threads = 1;
    sched::FleetPlanner planner(service, options);
    report = planner.pack(request);
  }
  check(strip_cache_counters(report.to_json(false)).dump() ==
            answer.deterministic().dump(),
        "fleet pack of " + std::to_string(request.jobs.size()) + " jobs");
}

// ---------------------------------------------------------------------------

void Accuracy::add(Tracer& tracer, const core::TrainJob& job,
                   std::int64_t estimate, const gpu::DeviceModel& device) {
  auto span = tracer.span("gpu.truth");
  const fw::ModelDescriptor model =
      models::build_model(job.model_name, job.batch_size);
  const gpu::GroundTruthRunner runner;
  gpu::GroundTruthOptions round1;
  round1.placement = job.placement;
  round1.seed = util::derive_seed(job.seed, 1);
  const gpu::GroundTruthResult first =
      runner.run(model, job.optimizer, device, round1);

  eval::RunRecord record;
  record.config.model = job.model_name;
  record.config.optimizer = job.optimizer;
  record.config.batch_size = job.batch_size;
  record.config.placement = job.placement;
  record.device_name = device.name;
  record.estimator = "xMem";
  record.device_capacity = device.capacity;
  record.estimate = estimate;
  record.oom_predicted = estimate > device.job_budget();
  record.oom_actual_1 = first.oom;
  record.peak_1 = first.peak_job_bytes;
  // Round 2 caps the allocator at the estimate, only when round 1 matched
  // the prediction and fit (§4.1.4).
  if (record.oom_predicted == first.oom && !first.oom) {
    gpu::GroundTruthOptions round2 = round1;
    round2.seed = util::derive_seed(job.seed, 2);
    round2.budget_override = estimate;
    const gpu::GroundTruthResult second =
        runner.run(model, job.optimizer, device, round2);
    record.round2_run = true;
    record.oom_actual_2 = second.oom;
    record.peak_2 = second.peak_job_bytes;
  }
  eval::finalize_record(record);
  records_.push_back(record);
}

double Accuracy::mre_pct() const {
  std::vector<double> errors;
  for (const eval::RunRecord& record : records_) {
    if (record.has_error) errors.push_back(100.0 * record.error);
  }
  return median(errors);
}

double Accuracy::pef_pct() const {
  if (records_.empty()) return 0.0;
  const auto failed = std::count_if(
      records_.begin(), records_.end(),
      [](const eval::RunRecord& record) { return !record.c2; });
  return 100.0 * static_cast<double>(failed) /
         static_cast<double>(records_.size());
}

}  // namespace xmem::perf
