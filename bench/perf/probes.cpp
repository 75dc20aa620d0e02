// Run machinery shared by every workload (declared in run.h): the
// correctness gate, the output digest, the traced-run probes and the
// per-layer metric table.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <set>
#include <thread>

#include "alloc/backend_registry.h"
#include "run.h"
#include "util/rng.h"

namespace xmem::perf {

std::unique_ptr<core::EstimationService> make_service(
    std::size_t threads, std::size_t result_cache_capacity) {
  core::ServiceOptions options;
  options.threads = threads;
  options.result_cache_capacity = result_cache_capacity;
  return std::make_unique<core::EstimationService>(options);
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

GateResult run_gate(const std::map<std::size_t, Kept>& kept) {
  std::map<std::string, const Question*> distinct;
  std::vector<std::pair<std::size_t, std::string>> due;
  for (const auto& [index, reply] : kept) {
    if (index % kGateStride != 0 && !reply.question.cold) continue;
    std::string key = reply.question.type();
    key += reply.question.document().dump();
    distinct.emplace(key, &reply.question);
    due.emplace_back(index, std::move(key));
  }
  const std::vector<std::pair<std::string, const Question*>> work(
      distinct.begin(), distinct.end());
  std::vector<std::string> expected(work.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < worker_threads(); ++t) {
    threads.emplace_back([&] {
      const auto service = make_service(1, 0);
      for (std::size_t i = next++; i < work.size(); i = next++) {
        try {
          expected[i] = ask(*service, *work[i].second).deterministic().dump();
        } catch (const std::exception& error) {
          expected[i] = std::string("gate error: ") + error.what();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::map<std::string, const std::string*> by_key;
  for (std::size_t i = 0; i < work.size(); ++i) {
    by_key[work[i].first] = &expected[i];
  }
  GateResult result;
  for (const auto& [index, key] : due) {
    ++result.checked;
    if (kept.at(index).reply != *by_key.at(key)) {
      ++result.mismatched;
      result.messages.push_back("request " + std::to_string(index) + " (" +
                                kept.at(index).question.type() +
                                ") differs from a fresh serial service");
    }
  }
  return result;
}

std::string output_digest(const std::map<std::size_t, Kept>& kept,
                          std::size_t count) {
  std::uint64_t hash = fnv1a("");
  for (std::size_t index = 0; index < count; ++index) {
    const auto it = kept.find(index);
    if (it == kept.end()) return "incomplete";
    hash = fnv1a(it->second.reply, hash);
    hash = fnv1a("\n", hash);
  }
  return hex64(hash);
}

void LayerInputs::tally(const Answer& answer) {
  const auto add_entries = [this](const std::vector<core::EstimateEntry>& list) {
    std::set<std::string> replayed;
    for (const core::EstimateEntry& entry : list) {
      ++entries;
      if (entry.timings.result_cache_hit) {
        ++result_hits;
      } else {
        replayed.insert(entry.allocator);
      }
    }
    distinct_replays += replayed.size();
  };
  switch (answer.kind) {
    case Kind::kSweep:
      add_entries(answer.sweep.entries);
      replays_run += answer.sweep.replays_run;
      break;
    case Kind::kPlan:
      add_entries(answer.plan.single_device_entries);
      replays_run += answer.plan.replays_run;
      ++plans;
      rank_replays += answer.plan.rank_replays_run;
      replay_cache_hits += answer.plan.replay_cache_hits;
      replays_deduped += answer.plan.replays_deduped;
      break;
    case Kind::kFleet:
      break;
  }
}

void decompose_twice(core::EstimationService& service, Tracer& tracer,
                     Decomposer& untraced, Decomposer& traced,
                     std::int64_t request, const Question& question,
                     const Answer& answer, LayerInputs& inputs) {
  tracer.set_enabled(false);
  const auto start = Clock::now();
  untraced.decompose(service, question, answer);
  const auto middle = Clock::now();
  tracer.set_enabled(true);
  tracer.set_request(request);
  {
    auto span = tracer.span("request", question.type());
    traced.decompose(service, question, answer);
  }
  tracer.set_enabled(false);
  const auto end = Clock::now();
  inputs.decompose_off_ms += ms_between(start, middle);
  inputs.decompose_on_ms += ms_between(middle, end);
  inputs.last_decompose_ms = ms_between(start, middle);
}

Answer traced_request(core::EstimationService& service, Tracer& tracer,
                      Decomposer& untraced, Decomposer& traced,
                      std::size_t index, const Question& question,
                      LayerInputs& inputs) {
  const auto start = Clock::now();
  Answer answer = ask(service, question);
  const double service_ms = ms_between(start, Clock::now());
  inputs.service_ms.push_back(service_ms);
  inputs.tally(answer);
  decompose_twice(service, tracer, untraced, traced,
                  static_cast<std::int64_t>(index), question, answer, inputs);
  inputs.glue_ms.push_back(service_ms - inputs.last_decompose_ms);
  ++inputs.traced_requests;
  return answer;
}

namespace {

/// Ask the probe daemon every question twice and compare each reply with
/// the in-process answer.
std::size_t probe_daemon(const RunOptions& options,
                         core::EstimationService& service, Tracer& tracer,
                         const std::vector<Question>& questions,
                         bool daemon_counters, LayerInputs& inputs) {
  std::vector<std::string> expected;
  std::vector<std::string> envelopes;
  for (std::size_t i = 0; i < questions.size(); ++i) {
    expected.push_back(ask(service, questions[i]).deterministic().dump());
    envelopes.push_back(
        envelope(i, questions[i].type(), questions[i].document().dump()));
  }
  std::size_t mismatches = 0;
  Daemon daemon(options.cli,
                options.work_dir + "/probe-" + std::to_string(::getpid()) +
                    ".sock",
                3);
  server::Client client(daemon.socket(), 60000);
  for (int i = 0; i < 20; ++i) {
    auto span = tracer.span("server.ping");
    client.ping();
  }
  std::string reply;
  std::set<std::string> profiled;
  // The first pass executes every question; the second is answered from
  // the daemon's reply cache.
  for (const bool first_pass : {true, false}) {
    for (std::size_t i = 0; i < questions.size(); ++i) {
      const Question& question = questions[i];
      std::string kind = question.type();
      if (question.kind == Kind::kSweep &&
          profiled.insert(question.sweep.job.label()).second) {
        kind = "cold";
      } else if (question.kind == Kind::kPlan) {
        profiled.insert(question.plan.job.label());
      }
      bool ok = false;
      const auto start = Clock::now();
      {
        auto span = tracer.span(first_pass ? "server.request" : "server.hit",
                                question.type());
        ok = round_trip(client, envelopes[i], reply) && reply_ok(reply);
      }
      // serve-mixed times its own daemon's traffic instead.
      if (daemon_counters) {
        inputs.server_ms[kind].push_back(ms_between(start, Clock::now()));
      }
      if (!ok) {
        ++mismatches;
        continue;
      }
      const auto parse_start = Clock::now();
      const util::Json parsed = util::Json::parse(reply);
      inputs.parse_ms += ms_between(parse_start, Clock::now());
      inputs.parse_bytes += static_cast<double>(reply.size());
      if (first_pass) {
        inputs.reply_bytes.push_back(static_cast<double>(reply.size()));
      }
      if (strip_cache_counters(parsed.at("report")).dump() != expected[i]) {
        ++mismatches;
      }
    }
  }
  if (daemon_counters) {
    const util::Json stats = client.stats();
    inputs.executed = static_cast<std::uint64_t>(stats.get_int_or("executed", 0));
    inputs.coalesced =
        static_cast<std::uint64_t>(stats.get_int_or("coalesced", 0));
    inputs.reply_hits =
        static_cast<std::uint64_t>(stats.get_int_or("reply_cache_hits", 0));
    inputs.data_requests =
        static_cast<std::uint64_t>(stats.get_int_or("data_requests", 0));
    inputs.busy = static_cast<std::uint64_t>(stats.get_int_or("server_busy", 0));
  }
  if (!daemon.stop()) ++mismatches;
  return mismatches;
}

}  // namespace

std::size_t run_probes(const RunOptions& options,
                       core::EstimationService& service, Tracer& tracer,
                       Decomposer& decomposer,
                       const std::vector<core::TrainJob>& jobs,
                       std::vector<Question> questions, bool daemon_counters,
                       LayerInputs& inputs) {
  tracer.set_enabled(true);
  tracer.set_request(-1);
  const gpu::DeviceModel a100 = gpu::a100_40gb();
  sched::FleetRequest fleet;
  fleet.policy = "best-fit-decreasing";
  fleet.headroom.base.percent = 5;
  fleet.pools = {{gpu::rtx3060(), 4}, {gpu::rtx4060(), 4}, {a100, 2}};
  for (const core::TrainJob& job : jobs) {
    const Question backends =
        sweep_question(job, {a100}, alloc::backend_names());
    const Answer swept = ask(service, backends);
    decomposer.decompose(service, backends, swept);
    for (const core::EstimateEntry& entry : swept.sweep.entries) {
      if (entry.allocator == alloc::kDefaultBackendName) {
        inputs.accuracy.add(tracer, job, entry.estimated_peak, a100);
      }
    }

    Question plan;
    plan.kind = Kind::kPlan;
    plan.plan.job = job;
    plan.plan.devices = {gpu::rtx3060(), a100};
    const Answer planned = ask(service, plan);
    decomposer.decompose(service, plan, planned);
    inputs.tally(planned);

    for (int copy = 0; copy < 10; ++copy) {
      sched::FleetJob entry;
      entry.id = "probe-" + std::to_string(fleet.jobs.size());
      entry.job = job;
      entry.priority = copy % 3;
      fleet.jobs.push_back(std::move(entry));
    }
    questions.push_back(backends);
    questions.push_back(plan);
  }
  Question pack;
  pack.kind = Kind::kFleet;
  pack.fleet = fleet;
  const Answer packed = ask(service, pack);  // warms every job's estimate
  for (int i = 0; i < 3; ++i) decomposer.decompose(service, pack, packed);
  questions.push_back(pack);

  const std::size_t mismatches = probe_daemon(options, service, tracer,
                                              questions, daemon_counters,
                                              inputs);
  tracer.set_enabled(false);
  return mismatches;
}

namespace {

double median_of(const Tracer& tracer, std::string_view name) {
  return median(tracer.durations_ms(name));
}

double median_value(const Tracer& tracer, std::string_view name) {
  std::vector<double> values;
  for (const Tracer::Span& span : tracer.spans()) {
    if (name == span.name) values.push_back(static_cast<double>(span.value));
  }
  return median(values);
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const Tracer& tracer = *in.tracer;
  const double requests = static_cast<double>(in.traced_requests);
  std::vector<Metric> out;
  const auto add = [&out](const char* name, double value, const char* unit) {
    out.push_back(Metric{name, value, unit});
  };
  add("models.build_ms", median_of(tracer, "models.build"), "ms");
  add("fw.profile_ms", median_of(tracer, "fw.profile"), "ms");
  add("fw.profile_calls",
      ratio(static_cast<double>(in.session_misses),
            static_cast<double>(in.load_requests)),
      "count");
  add("trace.to_json_ms", median_of(tracer, "trace.to_json"), "ms");
  add("trace.from_json_ms", median_of(tracer, "trace.from_json"), "ms");
  add("trace.json_bytes", median_value(tracer, "trace.to_json"), "bytes");
  add("core.analyzer_ms", median_of(tracer, "core.analyzer"), "ms");
  add("core.analyzer_events", median_value(tracer, "core.analyzer"), "count");
  add("core.orchestrator_ms", median_of(tracer, "core.orchestrator"), "ms");
  add("core.session.lookup_us",
      1000.0 * median_of(tracer, "core.session.lookup"), "us");
  add("core.session.hit_ratio",
      ratio(static_cast<double>(in.session_hits),
            static_cast<double>(in.session_hits + in.session_misses)),
      "ratio");
  add("core.session.misses", static_cast<double>(in.session_misses), "count");
  add("core.simulator.replay_ms", median_of(tracer, "core.simulator.replay"),
      "ms");
  add("core.simulator.replays",
      ratio(static_cast<double>(in.loop_replays), requests), "count");
  add("core.simulator.memo_hit_ratio",
      ratio(static_cast<double>(in.decomposer->memo_hits()),
            static_cast<double>(in.decomposer->memo_lookups())),
      "ratio");
  std::map<std::string, std::vector<double>> per_event_us;
  for (const Tracer::Span& span : tracer.spans()) {
    if (std::string_view(span.name) == "core.simulator.replay" &&
        span.value > 0) {
      per_event_us[span.detail].push_back(span.duration_us() /
                                          static_cast<double>(span.value));
    }
  }
  for (const std::string& backend : alloc::backend_names()) {
    out.push_back(Metric{"alloc." + backend + ".replay_us_per_event",
                         median(per_event_us[backend]), "us"});
  }
  add("core.service.request_ms", median(in.service_ms), "ms");
  add("core.service.glue_ms", median(in.glue_ms), "ms");
  add("core.service.pool_busy_pct",
      100.0 * ratio(in.load_cpu_s,
                    in.load_wall_s * static_cast<double>(in.service_threads)),
      "%");
  add("core.service.result_hit_ratio",
      ratio(static_cast<double>(in.result_hits),
            static_cast<double>(in.entries)),
      "ratio");
  add("core.service.distinct_replay_ratio",
      ratio(static_cast<double>(in.distinct_replays),
            static_cast<double>(in.replays_run)),
      "ratio");
  add("core.planner.phase1_ms", median_of(tracer, "core.planner.phase1"),
      "ms");
  add("core.planner.candidates", median_value(tracer, "core.planner.phase1"),
      "count");
  add("core.transform.rank_sequence_ms",
      median_of(tracer, "core.transform.rank_sequence"), "ms");
  add("core.transform.fingerprint_us",
      1000.0 * median_of(tracer, "core.transform.fingerprint"), "us");
  const double plans = static_cast<double>(in.plans);
  add("plan.rank_replays_run", ratio(static_cast<double>(in.rank_replays), plans),
      "count");
  add("plan.replay_cache_hits",
      ratio(static_cast<double>(in.replay_cache_hits), plans), "count");
  add("plan.replays_deduped",
      ratio(static_cast<double>(in.replays_deduped), plans), "count");
  add("sched.pack_ms", median_of(tracer, "sched.pack"), "ms");
  add("sched.jobs_per_pack", median_value(tracer, "sched.pack"), "count");
  add("server.ping_rtt_us", 1000.0 * median_of(tracer, "server.ping"), "us");
  for (const char* kind : {"sweep", "plan", "fleet", "cold"}) {
    const auto it = in.server_ms.find(kind);
    out.push_back(Metric{std::string("server.") + kind + ".p50_ms",
                         it == in.server_ms.end() ? 0.0 : median(it->second),
                         "ms"});
  }
  add("server.reply_hit_ratio",
      ratio(static_cast<double>(in.reply_hits),
            static_cast<double>(in.data_requests)),
      "ratio");
  add("server.coalesced", static_cast<double>(in.coalesced), "count");
  add("server.executed", static_cast<double>(in.executed), "count");
  add("server.busy_rejections", static_cast<double>(in.busy), "count");
  add("util.json.reply_bytes_p50", median(in.reply_bytes), "bytes");
  add("util.json.reply_parse_mb_per_s",
      ratio(in.parse_bytes / 1e6, in.parse_ms / 1000.0), "MB/s");
  add("loadgen.lag_p99_ms", percentile(in.load_lag_ms, 99.0), "ms");
  add("loadgen.latency_p99_ms", percentile(in.load_latency_ms, 99.0), "ms");
  add("gpu.truth_ms", median_of(tracer, "gpu.truth"), "ms");
  add("gpu.mre_pct", in.accuracy.mre_pct(), "%");
  add("gpu.pef_pct", in.accuracy.pef_pct(), "%");

  // Share of request time no layer span covers: the decomposition's own
  // bookkeeping between layer calls.
  const auto& spans = tracer.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Tracer::Span& span : spans) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] += span.duration_us();
    }
  }
  double request_us = 0.0;
  double covered_us = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) != "request") continue;
    request_us += spans[i].duration_us();
    covered_us += child_us[i];
  }
  add("harness.unaccounted_pct",
      100.0 * ratio(request_us - covered_us, request_us), "%");
  add("harness.trace_overhead_pct",
      100.0 * ratio(in.decompose_on_ms - in.decompose_off_ms,
                    in.decompose_off_ms),
      "%");
  add("harness.spans", static_cast<double>(spans.size()), "count");
  return out;
}

std::string fixed(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

std::string write_trace(const RunOptions& options, const Tracer& tracer) {
  const std::string path =
      options.trace_file.empty()
          ? options.work_dir + "/trace-" + options.workload + "-" +
                std::to_string(options.seed) + ".json"
          : options.trace_file;
  std::ofstream file(path);
  file << tracer.chrome_trace().dump() << '\n';
  if (!file) throw std::runtime_error("cannot write trace " + path);
  return path;
}

}  // namespace xmem::perf
