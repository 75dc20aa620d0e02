// google-benchmark microbenchmarks for the xMem pipeline stages (§6.1:
// "the current runtime is dominated by trace processing"): profiling,
// JSON serialization/parsing, analysis, orchestration, simulation, the
// whole profile prefix, and the end-to-end estimate, on a representative
// mid-size workload.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/analyzer.h"
#include "core/estimation_service.h"
#include "core/orchestrator.h"
#include "core/profile_runner.h"
#include "core/profile_session.h"
#include "core/sequence_transform.h"
#include "core/simulator.h"
#include "models/zoo.h"

namespace {

using namespace xmem;

const fw::ModelDescriptor& test_model() {
  static const fw::ModelDescriptor kModel = models::build_model("gpt2", 8);
  return kModel;
}

const trace::Trace& test_trace() {
  static const trace::Trace kTrace =
      core::profile_on_cpu(test_model(), fw::OptimizerKind::kAdamW);
  return kTrace;
}

void BM_ProfileOnCpu(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::profile_on_cpu(test_model(), fw::OptimizerKind::kAdamW));
  }
}
BENCHMARK(BM_ProfileOnCpu);

void BM_TraceToJson(benchmark::State& state) {
  const trace::Trace& trace = test_trace();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string json = trace.to_json_string();
    bytes = json.size();
    benchmark::DoNotOptimize(json);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_TraceToJson);

void BM_TraceFromJson(benchmark::State& state) {
  const std::string json = test_trace().to_json_string();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::Trace::from_json_string(json));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(json.size()) *
                          state.iterations());
}
BENCHMARK(BM_TraceFromJson);

void BM_Analyzer(benchmark::State& state) {
  const trace::Trace& trace = test_trace();
  core::Analyzer analyzer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(trace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
}
BENCHMARK(BM_Analyzer);

void BM_Orchestrator(benchmark::State& state) {
  const auto analysis = core::Analyzer().analyze(test_trace());
  core::Orchestrator orchestrator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(orchestrator.orchestrate(analysis.timeline));
  }
}
BENCHMARK(BM_Orchestrator);

void BM_Simulator(benchmark::State& state) {
  const auto analysis = core::Analyzer().analyze(test_trace());
  const auto orchestration = core::Orchestrator().orchestrate(analysis.timeline);
  core::MemorySimulator simulator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.replay(orchestration.sequence));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(orchestration.sequence.events.size()));
}
BENCHMARK(BM_Simulator);

core::TrainJob test_job() {
  core::TrainJob job;
  job.model_name = "gpt2";
  job.batch_size = 8;
  job.optimizer = fw::OptimizerKind::kAdamW;
  return job;
}

void BM_ProfilePipeline(benchmark::State& state) {
  // The cold prefix a never-seen job pays once: model build, CPU profile,
  // Analyzer and Orchestrator, as the profile session runs it.
  core::ProfileKey key;
  key.model_name = "gpt2";
  key.batch_size = 8;
  key.optimizer = fw::OptimizerKind::kAdamW;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_profile_pipeline(key));
  }
}
BENCHMARK(BM_ProfilePipeline);

void BM_EndToEndEstimate(benchmark::State& state) {
  // Fresh session every iteration: the full profile->analyze->orchestrate->
  // simulate pipeline, i.e. the cost of a never-seen what-if question.
  const core::ProfileKey key = core::ProfileKey::of(test_job());
  for (auto _ : state) {
    core::ProfileSession session;
    benchmark::DoNotOptimize(core::MemorySimulator().replay(
        session.get(key).artifacts->orchestration.sequence));
  }
}
BENCHMARK(BM_EndToEndEstimate);

void BM_ServiceEstimateWarm(benchmark::State& state) {
  // Profile-once/estimate-many: the session holds the profile, the result
  // cache is disabled so every iteration pays a real simulator replay —
  // the marginal cost of one more what-if question through the service.
  core::ServiceOptions options;
  options.threads = 1;
  options.result_cache_capacity = 0;
  core::EstimationService service(options);
  const core::TrainJob job = test_job();
  const gpu::DeviceModel device = gpu::rtx3060();
  service.estimate("xMem", job, device);  // prime the profile session
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.estimate("xMem", job, device));
  }
}
BENCHMARK(BM_ServiceEstimateWarm);

/// The refine loop's inputs: the gpt2 b8 orchestrated sequence, its
/// per-component profile and a (d=2, t=2, p=2) hybrid plan.
struct RankInputs {
  core::OrchestratedSequence sequence;
  std::vector<core::ComponentProfile> profiles;
  core::HybridPlan plan;
};

const RankInputs& rank_inputs() {
  static const RankInputs kInputs = [] {
    const auto analysis = core::Analyzer().analyze(test_trace());
    RankInputs inputs;
    inputs.sequence =
        core::Orchestrator().orchestrate(analysis.timeline).sequence;
    inputs.profiles = core::per_component_profile(analysis.timeline);
    core::HybridOptions hybrid;
    hybrid.data_parallel = 2;
    hybrid.tensor_parallel = 2;
    hybrid.pipeline_stages = 2;
    inputs.plan = core::DistributedPlanner().plan_hybrid(inputs.profiles,
                                                         hybrid);
    return inputs;
  }();
  return kInputs;
}

/// The refine loop's transform options for rank_inputs()'s plan.
core::RankTransformOptions rank_transform() {
  core::RankTransformOptions transform;
  transform.data_parallel = 2;
  transform.tensor_parallel = 2;
  transform.micro_batches = 4;
  transform.materialize_blocks = false;
  return transform;
}

void BM_RankSequence(benchmark::State& state) {
  // The transform half of the refine loop: pipeline rank 0 of the
  // (d=2, t=2, p=2) candidate into a reused scratch. Arg 0 = resident
  // collectives, arg 1 = overlap windows. Items are output events.
  const RankInputs& inputs = rank_inputs();
  const core::SequenceTransformer transformer(inputs.sequence,
                                              inputs.profiles);
  core::RankTransformOptions transform = rank_transform();
  transform.comm_overlap = state.range(0) == 1;
  core::RankScratch scratch;
  std::size_t events = 0;
  for (auto _ : state) {
    const core::OrchestratedSequence& sequence = transformer.rank_sequence(
        transform, inputs.plan.stages, 2, 0, scratch);
    events = sequence.events.size();
    benchmark::DoNotOptimize(sequence.events.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_RankSequence)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_SequenceFingerprint(benchmark::State& state) {
  // The refine loop's dedup key over one transformed rank sequence.
  const RankInputs& inputs = rank_inputs();
  const core::SequenceTransformer transformer(inputs.sequence,
                                              inputs.profiles);
  core::RankScratch scratch;
  const core::OrchestratedSequence& sequence = transformer.rank_sequence(
      rank_transform(), inputs.plan.stages, 2, 0, scratch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sequence_fingerprint(sequence));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sequence.events.size()));
}
BENCHMARK(BM_SequenceFingerprint)->Unit(benchmark::kMicrosecond);

void BM_RankReplay(benchmark::State& state) {
  // The phase-2 refine hot loop: transform one pipeline rank of a
  // (d=2, t=2, p=2) candidate and replay it through the allocator tower.
  // Arg 0 = fresh scratch every replay (the naive loop), arg 1 = reused
  // transform + replay scratch (the batching/caching pass): the delta is
  // what scratch reuse buys per candidate.
  const RankInputs& inputs = rank_inputs();
  const core::SequenceTransformer transformer(inputs.sequence,
                                              inputs.profiles);
  const core::RankTransformOptions transform = rank_transform();
  core::MemorySimulator simulator;
  const bool reuse = state.range(0) == 1;
  core::RankScratch scratch;
  core::ReplayScratch replay_scratch;
  for (auto _ : state) {
    if (!reuse) {
      scratch = core::RankScratch{};
      replay_scratch = core::ReplayScratch{};
    }
    const core::OrchestratedSequence& sequence = transformer.rank_sequence(
        transform, inputs.plan.stages, 2, 0, scratch);
    benchmark::DoNotOptimize(simulator.replay(sequence, {}, &replay_scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankReplay)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RankReplayReset(benchmark::State& state) {
  // The tower half of the refine loop in isolation: the same transformed
  // rank sequence replayed per candidate. Arg 0 = fresh driver + backend
  // every replay (the pre-reset rebuild path), arg 1 = backend_reset() on
  // the pooled tower kept in ReplayScratch. The delta is what the reset
  // contract buys each refined candidate.
  const RankInputs& inputs = rank_inputs();
  const core::SequenceTransformer transformer(inputs.sequence,
                                              inputs.profiles);
  core::RankScratch rank_scratch;
  const core::OrchestratedSequence sequence = transformer.rank_sequence(
      rank_transform(), inputs.plan.stages, 2, 0, rank_scratch);

  core::MemorySimulator simulator;
  const bool reset = state.range(0) == 1;
  core::ReplayScratch scratch;
  for (auto _ : state) {
    if (!reset) scratch = core::ReplayScratch{};
    benchmark::DoNotOptimize(simulator.replay(sequence, {}, &scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankReplayReset)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PlanRefine(benchmark::State& state) {
  // The two-phase plan search at service granularity on a warm shared
  // session: arg = refine_top_k (0 = analytic-only phase 1). Reported rate
  // is plans/sec; the arg sweep shows what each refined candidate costs on
  // top of the analytic grid (§6.1).
  const auto session = std::make_shared<core::ProfileSession>();
  core::PlanRequest request;
  request.job = test_job();
  request.devices = {gpu::rtx3060(), gpu::a100_40gb()};
  request.max_gpus = 8;
  request.refine_top_k = static_cast<int>(state.range(0));
  {
    core::ServiceOptions warm;
    warm.session = session;
    core::EstimationService(std::move(warm)).plan(request);
  }
  for (auto _ : state) {
    core::ServiceOptions options;
    options.session = session;
    options.result_cache_capacity = 0;
    core::EstimationService service(std::move(options));
    benchmark::DoNotOptimize(service.plan(request));
  }
  state.SetItemsProcessed(state.iterations() *
                          std::max<std::int64_t>(state.range(0), 1));
}
BENCHMARK(BM_PlanRefine)->Arg(0)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_PlanRefineDedup(benchmark::State& state) {
  // The symmetric-rank collapse + cross-candidate memo cache on a DP-heavy
  // top-8 refinement (one replay per distinct sequence). Items are refined
  // candidates, so the rate is the marginal cost per refined candidate.
  const auto session = std::make_shared<core::ProfileSession>();
  core::PlanRequest request;
  request.job = test_job();
  request.devices = {gpu::rtx3060(), gpu::a100_40gb()};
  request.max_gpus = 8;
  request.refine_top_k = 8;
  {
    core::ServiceOptions warm;
    warm.session = session;
    core::EstimationService(std::move(warm)).plan(request);
  }
  for (auto _ : state) {
    core::ServiceOptions options;
    options.session = session;
    options.result_cache_capacity = 0;
    core::EstimationService service(std::move(options));
    benchmark::DoNotOptimize(service.plan(request));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_PlanRefineDedup)->Unit(benchmark::kMillisecond);

void BM_PlanRefineAll(benchmark::State& state) {
  // Full-search refinement: replay every enumerated decomposition instead
  // of the top-K — the mode the memoization exists to make affordable.
  const auto session = std::make_shared<core::ProfileSession>();
  core::PlanRequest request;
  request.job = test_job();
  request.devices = {gpu::rtx3060(), gpu::a100_40gb()};
  request.max_gpus = 8;
  request.refine_all = true;
  {
    core::ServiceOptions warm;
    warm.session = session;
    core::EstimationService(std::move(warm)).plan(request);
  }
  std::size_t replayed = 0;
  for (auto _ : state) {
    core::ServiceOptions options;
    options.session = session;
    options.result_cache_capacity = 0;
    core::EstimationService service(std::move(options));
    const core::PlanReport report = service.plan(request);
    replayed = report.replayed_candidates;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(replayed));
}
BENCHMARK(BM_PlanRefineAll)->Unit(benchmark::kMillisecond);

void BM_ServiceSweep(benchmark::State& state) {
  // A scheduler-shaped question: 3 devices x 3 allocators in one request.
  // One profile + 9 concurrent replays per iteration (fresh service each
  // time, so the profile cost is inside the measurement).
  core::EstimateRequest request;
  request.job = test_job();
  request.devices = gpu::all_devices();
  request.allocators = alloc::backend_names();
  for (auto _ : state) {
    core::EstimationService service;
    benchmark::DoNotOptimize(service.sweep(request));
  }
}
BENCHMARK(BM_ServiceSweep);

}  // namespace

BENCHMARK_MAIN();
