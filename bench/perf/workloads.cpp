// The three in-process workloads (cold-estimate, whatif-sweep, plan-search):
// closed loop, one caller, against core::EstimationService. serve-mixed
// lives in serve.cpp.
//
// Every service answers on one thread. On a shared host a request that fans
// out over every core waits for whichever core the host took away last, so
// its latency measures the host; one thread leaves the other cores as slack.
#include <functional>
#include <set>

#include "alloc/backend_registry.h"
#include "run.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace xmem::perf {

namespace {

constexpr int kSetups = 5;
/// Set-ups run for at least this long: the host slows down in dips of a
/// second or two, and a median over three seconds rides them out.
constexpr double kSetupSeconds = 3.0;

/// A closed-loop workload: the questions its set-up asks (the answers feed
/// the stream) and the seeded stream of timed questions.
struct OfflineSpec {
  std::vector<Question> warmup;
  std::function<Question(std::size_t, const std::vector<Answer>&)> question;
  /// Requests per round of the stream; each round asks the same mix.
  std::size_t round = 1;
};

// Every request misses the profile session: the only workload where the
// CPU profile, the trace JSON round trip, the analyzer and the
// orchestrator sit on the critical path.
OfflineSpec cold_estimate(std::uint64_t seed) {
  OfflineSpec spec;
  // Set-up pays for one estimate of an off-grid job (batch 8 is not on the
  // distilgpt2 grid), so first-request costs show in setup_s.
  core::TrainJob warm_job;
  warm_job.model_name = "distilgpt2";
  warm_job.batch_size = 8;
  warm_job.optimizer = fw::OptimizerKind::kAdamW;
  warm_job.seed = 7;
  spec.warmup = {sweep_question(warm_job, {gpu::rtx3060()}, {"pytorch"})};
  auto jobs = std::make_shared<const std::vector<core::TrainJob>>(
      stratified_grid_jobs(seed));
  // The stream wraps after its whole rounds. A later lap gives every job a
  // jitter seed of its own, so it still misses the profile session, and a
  // fast run asks the same mix of models as a slow one.
  spec.question = [jobs](std::size_t i, const std::vector<Answer>&) {
    const std::size_t lap = i / jobs->size();
    core::TrainJob job = (*jobs)[i % jobs->size()];
    if (lap > 0) job.seed = util::derive_seed(job.seed, lap);
    return sweep_question(job, {gpu::rtx3060()}, {"pytorch"});
  };
  spec.round = models_per_round();
  return spec;
}

// Every request hits the profile session and misses the result cache: 4
// what-if cards x all 6 backends = 24 replays, so the simulator and the
// allocators do nearly all the work. Cards differ only in geometry, so
// each backend replays the same unbounded sequence 4 times. One card falls
// in each quarter of the capacity range: a replay stops at its first OOM,
// so how many small cards a request names would otherwise set its cost.
OfflineSpec whatif_sweep(std::uint64_t seed) {
  OfflineSpec spec;
  // A fixed model mix (7 CNN, 6 Transformer). Each round asks every
  // archetype once; an odd count puts the median request inside one
  // archetype's costs instead of in the gap between two.
  const auto jobs =
      std::make_shared<const std::vector<core::TrainJob>>(archetypes(
          {"MobileNetV2", "MobileNetV3Small", "ResNet101", "VGG16",
           "RegNetY400MF", "ConvNeXtTiny", "MnasNet", "gpt2", "distilgpt2",
           "T5-small", "opt-350m", "pythia-1b", "Qwen3-0.6B"}));
  for (const core::TrainJob& job : *jobs) {
    spec.warmup.push_back(sweep_question(job, {gpu::rtx3060()}, {"pytorch"}));
  }
  spec.question = [jobs, seed](std::size_t i, const std::vector<Answer>&) {
    const std::size_t n = jobs->size();
    const std::size_t archetype =
        permutation(n, util::derive_seed(seed, 0xB0000 + i / n))[i % n];
    std::vector<gpu::DeviceModel> devices;
    for (std::size_t k = 0; k < 4; ++k) {
      devices.push_back(seeded_device(
          "whatif-" + std::to_string(i) + "-" + std::to_string(k), k,
          util::derive_seed(seed, 0xD0000000 + 4 * i + k)));
    }
    Question question = sweep_question((*jobs)[archetype], std::move(devices),
                                       alloc::backend_names());
    // Every 9 requests try stream-pool's 9 settings, in a seeded order.
    question.sweep.allocator_config = seeded_knobs(
        util::derive_seed(seed, 0xC0000000 + i),
        permutation(9, util::derive_seed(seed, 0xA0000 + i / 9))[i % 9]);
    return question;
  };
  spec.round = jobs->size();
  return spec;
}

// Placement questions: max_gpus in {4, 8, 16} against rtx3060, A100 and a
// card whose budget straddles the job's single-device peak. Two of three
// use the default top-4 refinement; one of three refines every
// decomposition with overlap-window collectives. Nine archetypes make a
// round of 81 distinct questions, an odd count, like whatif-sweep's.
OfflineSpec plan_search(std::uint64_t seed) {
  OfflineSpec spec;
  const auto jobs = std::make_shared<const std::vector<core::TrainJob>>(
      archetypes({"MobileNetV2", "ResNet101", "VGG16", "ConvNeXtTiny",
                  "MnasNet", "gpt2", "distilgpt2", "opt-350m", "T5-small"}));
  for (const core::TrainJob& job : *jobs) {
    spec.warmup.push_back(sweep_question(job, {gpu::rtx3060()}, {"pytorch"}));
  }
  spec.question = [jobs, seed](std::size_t i, const std::vector<Answer>& warm) {
    // One round asks every (archetype, max_gpus, slot) once, shuffled.
    const std::size_t per_round = jobs->size() * 9;
    const std::size_t combo = permutation(
        per_round, util::derive_seed(seed, 0xE0000 + i / per_round))[i % per_round];
    const std::size_t archetype = combo / 9;
    // The straddle card's share of the peak is drawn from one of three
    // bands, fixed by the question's (max_gpus, slot) in a Latin square, so
    // every round prices the same mix of budgets and only the draw inside a
    // band is the seed's.
    const std::size_t band = (combo / 3 + combo) % 3;
    util::Rng rng(util::derive_seed(seed, 0xF0000000 + i));
    gpu::DeviceModel straddle;
    straddle.name = "straddle-" + std::to_string(i);
    straddle.m_init = 300 * util::kMiB;
    straddle.m_fm = 600 * util::kMiB;
    const auto peak = static_cast<double>(
        warm[archetype].sweep.entries.front().estimated_peak);
    const double share = 0.3 + 0.2 * (static_cast<double>(band) + rng.next_double());
    straddle.capacity = straddle.m_init + straddle.m_fm +
                        static_cast<std::int64_t>(peak * share);
    Question question;
    question.kind = Kind::kPlan;
    question.plan.job = (*jobs)[archetype];
    question.plan.devices = {gpu::rtx3060(), gpu::a100_40gb(), straddle};
    question.plan.max_gpus = std::vector<int>{4, 8, 16}[(combo / 3) % 3];
    if (combo % 3 == 2) {
      question.plan.refine_all = true;
      question.plan.comm_overlap = true;
    }
    return question;
  };
  spec.round = jobs->size() * 9;
  return spec;
}

/// One closed-loop phase: a single caller asks question after question
/// until `seconds` have passed and, unless `whole_rounds` is off (smoke
/// runs), the round in progress is complete, so every run asks whole rounds.
struct Loop {
  std::size_t next = 0;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;  ///< harness time between two requests
  std::set<std::size_t> failed;
  double seconds = 0.0;  ///< wall time of the phase
  double cpu_s = 0.0;    ///< this process's CPU time over the phase
  std::map<std::size_t, Answer> answers;  ///< kept for the gate and digest
  std::vector<std::int64_t> first_peaks;  ///< entry 0 of each sweep answer

  std::size_t attempted() const { return next; }
  std::size_t completed() const { return next - failed.size(); }
  double cpu_ms_per_op() const {
    return 1000.0 * cpu_s /
           static_cast<double>(std::max<std::size_t>(completed(), 1));
  }
};

Loop closed_loop(core::EstimationService& service, const OfflineSpec& spec,
                 const std::vector<Answer>& warm, double seconds,
                 std::size_t digest_count, bool whole_rounds) {
  Loop loop;
  const double cpu_start = cpu_seconds_self();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto previous = start;
  while (Clock::now() < end || (whole_rounds && loop.next % spec.round != 0)) {
    const std::size_t index = loop.next++;
    const Question question = spec.question(index, warm);
    const auto sent = Clock::now();
    if (index > 0) loop.lag_ms.push_back(ms_between(previous, sent));
    Answer answer;
    try {
      answer = ask(service, question);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "request %zu failed: %s\n", index, error.what());
      loop.failed.insert(index);
    }
    previous = Clock::now();
    loop.latency_ms.push_back(ms_between(sent, previous));
    loop.first_peaks.push_back(
        answer.kind == Kind::kSweep && !answer.sweep.entries.empty()
            ? answer.sweep.entries.front().estimated_peak
            : 0);
    if (index % kGateStride == 0 || index < digest_count) {
      loop.answers.emplace(index, std::move(answer));
    }
  }
  loop.seconds = ms_between(start, previous) / 1000.0;
  loop.cpu_s = cpu_seconds_self() - cpu_start;
  return loop;
}

RunReport run_offline(const RunOptions& options, const OfflineSpec& spec) {
  RunReport report;
  const std::size_t digest_count = options.smoke ? 8 : 64;
  // Each set-up builds a fresh service; setup_s is their median, over at
  // least kSetups set-ups and kSetupSeconds of them.
  const bool once = options.trace || options.smoke;
  std::unique_ptr<core::EstimationService> service;
  std::vector<Answer> warm;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  for (int k = 0;
       k == 0 || (!once && (k < kSetups || setup_total_s < kSetupSeconds));
       ++k) {
    service.reset();
    warm.clear();
    const auto start = Clock::now();
    service = make_service(1);
    for (const Question& question : spec.warmup) {
      warm.push_back(ask(*service, question));
    }
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
    setup_total_s += setup_s.back();
  }

  Tracer tracer;
  Decomposer untraced(tracer);
  Decomposer traced(tracer);
  LayerInputs inputs;
  inputs.tracer = &tracer;
  inputs.decomposer = &traced;
  if (options.trace) {
    for (std::size_t k = 0; k < warm.size(); ++k) {
      decompose_twice(*service, tracer, untraced, traced,
                      -2 - static_cast<std::int64_t>(k), spec.warmup[k],
                      warm[k], inputs);
    }
  }

  const std::uint64_t hits_before = service->session().hits();
  const std::uint64_t misses_before = service->session().misses();
  Loop load = closed_loop(*service, spec, warm,
                          options.trace ? options.seconds / 2 : options.seconds,
                          digest_count, !options.smoke);
  const double rss_mb = peak_rss_mb();
  inputs.session_hits = service->session().hits() - hits_before;
  inputs.session_misses = service->session().misses() - misses_before;

  // Replies the digest covers but the timed phase did not reach.
  for (std::size_t i = load.next; i < digest_count; ++i) {
    load.answers.emplace(i, ask(*service, spec.question(i, warm)));
  }
  std::map<std::size_t, Kept> kept;
  for (const auto& [index, answer] : load.answers) {
    kept[index] = Kept{spec.question(index, warm),
                       load.failed.count(index) > 0
                           ? std::string()
                           : answer.deterministic().dump()};
  }
  const GateResult gate = run_gate(kept);
  for (const std::string& message : gate.messages) {
    std::fprintf(stderr, "gate: %s\n", message.c_str());
  }
  report.attempted = load.attempted();
  report.failed = load.failed.size() + gate.mismatched;

  const std::size_t completed = load.completed();
  report.notes.push_back("output_digest." + options.workload + "=" +
                         output_digest(kept, digest_count) + " over " +
                         std::to_string(digest_count) + " replies");
  report.notes.push_back("gate=" + std::to_string(gate.checked) +
                         " checked, " + std::to_string(gate.mismatched) +
                         " mismatched");
  report.notes.push_back("requests=" + std::to_string(completed) + " of " +
                         std::to_string(report.attempted));
  report.notes.push_back(
      "latency_p99_ms=" + fixed(percentile(load.latency_ms, 99.0)) + " over " +
      std::to_string(load.latency_ms.size()) + " samples");
  report.notes.push_back("loadgen_lag_p99_ms=" +
                         fixed(percentile(load.lag_ms, 99.0)));

  if (options.workload == "cold-estimate" && !options.trace) {
    // The paper's accuracy protocol over a fixed prefix of the job stream
    // (ten rounds), so every run of a seed reports the same numbers.
    const std::size_t jobs = options.smoke ? 22 : 220;
    Tracer off;
    Accuracy accuracy;
    for (std::size_t i = 0; i < jobs; ++i) {
      if (load.failed.count(i) > 0) continue;
      const Question question = spec.question(i, warm);
      const std::int64_t peak =
          i < load.next
              ? load.first_peaks[i]
              : ask(*service, question).sweep.entries.front().estimated_peak;
      accuracy.add(off, question.sweep.job, peak, gpu::rtx3060());
    }
    report.notes.push_back("mre_pct=" + fixed(accuracy.mre_pct()) +
                           " pef_pct=" + fixed(accuracy.pef_pct()) + " over " +
                           std::to_string(accuracy.jobs()) + " jobs");
  }

  if (!options.trace) {
    report.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"throughput_per_s", static_cast<double>(completed) / load.seconds,
         "1/s"},
        {"latency_p50_ms", percentile(load.latency_ms, 50.0), "ms"},
        {"latency_p90_ms", percentile(load.latency_ms, 90.0), "ms"},
        {"cpu_ms_per_op", load.cpu_ms_per_op(), "ms"},
        {"peak_rss_mb", rss_mb, "MiB"},
    };
    return report;
  }

  // Traced loop: each request answered by the service, then decomposed.
  std::vector<Question> daemon_questions;
  std::vector<core::TrainJob> probe_jobs;
  std::set<std::string> probe_labels;
  const auto note_job = [&](const core::TrainJob& job) {
    if (probe_jobs.size() < 4 && probe_labels.insert(job.label()).second) {
      probe_jobs.push_back(job);
    }
  };
  for (const Question& question : spec.warmup) note_job(question.sweep.job);
  const std::size_t setup_replays = traced.replays();
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          options.seconds / 2));
  for (std::size_t i = load.next; Clock::now() < end; ++i) {
    const Question question = spec.question(i, warm);
    traced_request(*service, tracer, untraced, traced, i, question, inputs);
    ++report.attempted;
    if (daemon_questions.size() < 6) daemon_questions.push_back(question);
    note_job(question.kind == Kind::kPlan ? question.plan.job
                                          : question.sweep.job);
  }
  inputs.loop_replays = traced.replays() - setup_replays;
  inputs.load_latency_ms = load.latency_ms;
  inputs.load_lag_ms = load.lag_ms;
  inputs.load_requests = load.attempted();
  inputs.load_cpu_s = load.cpu_s;
  inputs.load_wall_s = load.seconds;
  inputs.service_threads = 1;
  const std::size_t probe_mismatches =
      run_probes(options, *service, tracer, traced, probe_jobs,
                 daemon_questions, true, inputs);
  report.failed += probe_mismatches + traced.mismatches().size() +
                   untraced.mismatches().size();
  for (const std::string& message : traced.mismatches()) {
    std::fprintf(stderr, "decomposition: %s\n", message.c_str());
  }
  report.metrics = layer_metrics(inputs);
  report.notes.push_back("traced_requests=" +
                         std::to_string(inputs.traced_requests));
  report.notes.push_back("trace_file=" + write_trace(options, tracer));
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "cold-estimate", "whatif-sweep", "plan-search", "serve-mixed"};
  return names;
}

RunReport run_workload(const RunOptions& options) {
  if (options.workload == "cold-estimate") {
    return run_offline(options, cold_estimate(options.seed));
  }
  if (options.workload == "whatif-sweep") {
    return run_offline(options, whatif_sweep(options.seed));
  }
  if (options.workload == "plan-search") {
    return run_offline(options, plan_search(options.seed));
  }
  if (options.workload == "serve-mixed") return run_serve(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace xmem::perf
