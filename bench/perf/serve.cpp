// serve-mixed: the real `xmem serve` daemon as a child process, driven over
// its Unix socket. Phase A is an open loop on up to min(4, nproc)
// connections (Poisson arrivals at a fixed rate, latency timed from each
// request's due time); phase B is a closed loop on one connection and gives
// the throughput. One connection keeps at most one request in the daemon,
// so the phase needs one core and the others absorb the host's own load.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <mutex>
#include <set>
#include <thread>

#include "alloc/backend_registry.h"
#include "run.h"
#include "util/rng.h"

namespace xmem::perf {

namespace {

/// Phase-A arrival rate: low enough that the generator's connections are
/// almost never all held by cold jobs at once, so a request's latency is
/// the daemon's and not the generator's queue (README.md, "Choosing R").
constexpr double kOpenLoopRate = 100.0;
/// A generator thread sleeps until this long before a request is due, then
/// spins: a timer wakes tens of microseconds late, a large share of a
/// cached reply's round trip.
constexpr auto kSpinBeforeDue = std::chrono::microseconds(500);
/// A phase-A request slower than this from its due time misses the SLO.
constexpr double kSloMs = 250.0;
constexpr int kDaemonWorkers = 3;
/// One request in this many sweeps a job no earlier request named (5%).
constexpr std::size_t kColdStride = 20;

struct ServeSpec {
  std::uint64_t seed = 1;
  std::vector<Question> pool;          ///< in popularity order
  std::vector<std::string> documents;  ///< pool request documents, dumped
  std::vector<double> zipf_cdf;        ///< over popularity ranks
  std::vector<core::TrainJob> grid;    ///< configs cold jobs draw from
};

/// 64 questions: 70% sweeps, 20% top-4 plans, 10% fleet packs of a 200-job
/// queue onto 3 pools, all over 12 job archetypes. The seed picks what each
/// question asks; its type and size follow from its popularity rank alone,
/// so every seed sends the same mix of reply sizes and the same share of
/// each type. A fleet pack is the third most popular question: packs, the
/// slowest replies the reply cache serves, then carry about 10% of the
/// traffic, and with the 5% cold jobs they set latency_p90_ms.
ServeSpec make_spec(std::uint64_t seed, bool smoke) {
  ServeSpec spec;
  spec.seed = seed;
  const std::size_t size = smoke ? 16 : 64;
  const std::size_t queue = smoke ? 20 : 200;
  const std::vector<core::TrainJob> jobs = archetypes(
      {"MobileNetV2", "ResNet101", "VGG16", "RegNetY400MF", "ConvNeXtTiny",
       "MnasNet", "gpt2", "distilgpt2", "T5-small", "opt-350m", "pythia-1b",
       "Qwen3-0.6B"});
  const std::vector<gpu::DeviceModel> cards = {
      gpu::rtx3060(), gpu::rtx4060(), gpu::a100_40gb()};
  const std::vector<std::string> backends = alloc::backend_names();
  // Types by rank, ten at a time: 7 sweeps, 2 plans, 1 fleet pack.
  static const char kPattern[] = "SSFSSPSSPS";
  util::Rng rng(util::derive_seed(seed, 0x9001));
  std::set<std::string> seen;
  for (std::size_t rank = 0; rank < size;) {
    Question question;
    switch (kPattern[rank % 10]) {
      case 'S': {
        std::vector<gpu::DeviceModel> devices;
        std::vector<std::string> allocators;
        const auto card_order = permutation(cards.size(), rng.next_u64());
        const auto backend_order = permutation(backends.size(), rng.next_u64());
        for (std::size_t c = 0; c <= rank % cards.size(); ++c) {
          devices.push_back(cards[card_order[c]]);
        }
        for (std::size_t b = 0; b <= rank % backends.size(); ++b) {
          allocators.push_back(backends[backend_order[b]]);
        }
        question = sweep_question(pick(jobs, rng), devices, allocators);
        break;
      }
      case 'P':
        question.kind = Kind::kPlan;
        question.plan.job = pick(jobs, rng);
        question.plan.devices = {gpu::rtx3060(), gpu::rtx4060()};
        question.plan.max_gpus = std::vector<int>{2, 4, 8}[(rank / 10) % 3];
        break;
      default: {
        question.kind = Kind::kFleet;
        sched::FleetRequest& fleet = question.fleet;
        for (std::size_t j = 0; j < queue; ++j) {
          sched::FleetJob entry;
          entry.id = "job-" + std::to_string(j);
          entry.job = pick(jobs, rng);
          entry.priority = static_cast<int>(rng.next_below(4));
          fleet.jobs.push_back(std::move(entry));
        }
        fleet.pools = {{gpu::rtx3060(), 4}, {gpu::rtx4060(), 4},
                       {gpu::a100_40gb(), 2}};
        fleet.policy = std::vector<std::string>{
            "best-fit-decreasing", "first-fit", "whole-gpu"}[(rank / 10) % 3];
        fleet.headroom.base.percent = 5;
        break;
      }
    }
    std::string document = question.document().dump();
    if (!seen.insert(std::string(question.type()) + document).second) continue;
    spec.pool.push_back(std::move(question));
    spec.documents.push_back(std::move(document));
    ++rank;
  }
  double total = 0.0;
  for (std::size_t rank = 1; rank <= size; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), 1.1);
    spec.zipf_cdf.push_back(total);
  }
  for (double& value : spec.zipf_cdf) value /= total;
  spec.grid = stratified_grid_jobs(seed);
  return spec;
}

/// Request i of the stream: a cold sweep or a Zipf-chosen pool question.
struct Item {
  bool cold = false;
  std::size_t pool = 0;
  core::TrainJob job;
};

Item item_at(const ServeSpec& spec, std::size_t index) {
  Item item;
  // Every kColdStride-th request is cold, walking the stratified grid, so
  // each run sends the same share of cold jobs and the same model mix.
  item.cold = index % kColdStride == kColdStride - 1;
  util::Rng rng(util::derive_seed(spec.seed ^ 0x5E7E5E7EULL, index));
  if (item.cold) {
    item.job = spec.grid[(index / kColdStride) % spec.grid.size()];
    item.job.seed = rng.next_u64();  // a jitter stream no other job uses
  } else {
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(spec.zipf_cdf.begin(), spec.zipf_cdf.end(),
                         rng.next_double()) -
        spec.zipf_cdf.begin());
    item.pool = std::min(rank, spec.pool.size() - 1);
  }
  return item;
}

Question question_of(const ServeSpec& spec, const Item& item) {
  if (!item.cold) return spec.pool[item.pool];
  Question question = sweep_question(item.job, {gpu::rtx3060()}, {"pytorch"});
  question.cold = true;
  return question;
}

std::string request_bytes(const ServeSpec& spec, std::size_t index,
                          const Item& item) {
  if (!item.cold) {
    return envelope(index, spec.pool[item.pool].type(),
                    spec.documents[item.pool]);
  }
  return envelope(index, "sweep", question_of(spec, item).document().dump());
}

bool keep(std::size_t index, const Item& item, std::size_t digest_count) {
  return index % kGateStride == 0 || item.cold || index < digest_count;
}

/// A reply envelope as the deterministic report text ("" unless ok).
std::string deterministic_reply(const std::string& reply) {
  if (!reply_ok(reply)) return std::string();
  return strip_cache_counters(util::Json::parse(reply).at("report")).dump();
}

/// One phase of the timed load. Sample i is request index[i], which took
/// latency_ms[i].
struct Phase {
  std::size_t first = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double seconds = 0.0;  ///< closed loop: wall time, first send to last reply
  std::vector<double> latency_ms;
  std::vector<std::size_t> index;
  std::vector<double> lag_ms;

  std::size_t completed() const { return attempted - failed; }
};

/// Run `body(client)` on `connections` threads, one connection each, and
/// rethrow the first failure after every thread has joined.
void on_connections(const std::string& socket, std::size_t connections,
                    const std::function<void(server::Client&)>& body) {
  std::vector<std::unique_ptr<server::Client>> clients;
  for (std::size_t t = 0; t < connections; ++t) {
    clients.push_back(std::make_unique<server::Client>(socket, 60000));
  }
  std::mutex error_mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&, raw = client.get()] {
      try {
        body(*raw);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

class Replies {
 public:
  void put(std::size_t index, std::string reply) {
    std::lock_guard<std::mutex> lock(mutex_);
    replies_[index] = std::move(reply);
  }
  std::map<std::size_t, std::string>& all() { return replies_; }

 private:
  std::mutex mutex_;
  std::map<std::size_t, std::string> replies_;
};

Phase open_loop(const ServeSpec& spec, const std::string& socket,
                double seconds, std::size_t digest_count, Replies& replies) {
  std::vector<double> due_s;
  util::Rng rng(util::derive_seed(spec.seed, 0xA11));
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.next_double()) / kOpenLoopRate;
    if (t >= seconds) break;
    due_s.push_back(t);
  }
  const std::size_t count = due_s.size();
  Phase phase;
  phase.attempted = count;
  phase.latency_ms.assign(count, 0.0);
  phase.index.resize(count);
  for (std::size_t k = 0; k < count; ++k) phase.index[k] = k;
  phase.lag_ms.assign(count, 0.0);
  std::vector<char> ok(count, 0);
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(10);
  on_connections(socket, worker_threads(), [&](server::Client& client) {
    std::string reply;
    for (std::size_t k = next++; k < count; k = next++) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due_s[k]));
      const Item item = item_at(spec, k);
      const std::string bytes = request_bytes(spec, k, item);
      std::this_thread::sleep_until(due - kSpinBeforeDue);
      while (Clock::now() < due) {
      }
      const auto sent = Clock::now();
      const bool good = round_trip(client, bytes, reply) && reply_ok(reply);
      const auto done = Clock::now();
      phase.latency_ms[k] = ms_between(due, done);
      phase.lag_ms[k] = ms_between(due, sent);
      ok[k] = good ? 1 : 0;
      if (keep(k, item, digest_count)) replies.put(k, good ? reply : "");
    }
  });
  phase.failed = static_cast<std::size_t>(std::count(ok.begin(), ok.end(), 0));
  return phase;
}

Phase closed_loop(const ServeSpec& spec, const std::string& socket,
                  double seconds, std::size_t first, std::size_t digest_count,
                  Replies& replies) {
  Phase phase;
  phase.first = first;
  std::mutex merge_mutex;
  std::atomic<std::size_t> next{first};
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  on_connections(socket, 1, [&](server::Client& client) {
    std::vector<double> latency;
    std::vector<std::size_t> index;
    std::size_t failed = 0;
    std::string reply;
    while (Clock::now() < end) {
      const std::size_t k = next++;
      const Item item = item_at(spec, k);
      const std::string bytes = request_bytes(spec, k, item);
      const auto sent = Clock::now();
      const bool good = round_trip(client, bytes, reply) && reply_ok(reply);
      latency.push_back(ms_between(sent, Clock::now()));
      index.push_back(k);
      if (!good) ++failed;
      if (keep(k, item, digest_count)) replies.put(k, good ? reply : "");
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    phase.latency_ms.insert(phase.latency_ms.end(), latency.begin(),
                            latency.end());
    phase.index.insert(phase.index.end(), index.begin(), index.end());
    phase.failed += failed;
  });
  phase.seconds = ms_between(start, Clock::now()) / 1000.0;
  phase.attempted = next.load() - first;
  return phase;
}

/// Ask every pool question once, over every connection.
void warm_pool(const ServeSpec& spec, const std::string& socket) {
  std::atomic<std::size_t> next{0};
  on_connections(socket, worker_threads(), [&](server::Client& client) {
    std::string reply;
    for (std::size_t j = next++; j < spec.pool.size(); j = next++) {
      if (!round_trip(client,
                      envelope(j, spec.pool[j].type(), spec.documents[j]),
                      reply) ||
          !reply_ok(reply)) {
        throw std::runtime_error("serve set-up: pool question " +
                                 std::to_string(j) + " failed: " +
                                 reply.substr(0, 200));
      }
    }
  });
}

struct DaemonCounters {
  std::uint64_t profiles = 0, profile_hits = 0, executed = 0, coalesced = 0,
                reply_hits = 0, data_requests = 0, busy = 0;

  static DaemonCounters read(const std::string& socket) {
    server::Client client(socket, 60000);
    const util::Json stats = client.stats();
    const auto get = [&stats](const char* key) {
      return static_cast<std::uint64_t>(stats.get_int_or(key, 0));
    };
    return {get("profiles_run"), get("profile_cache_hits"), get("executed"),
            get("coalesced"),    get("reply_cache_hits"),   get("data_requests"),
            get("server_busy")};
  }
  DaemonCounters since(const DaemonCounters& before) const {
    return {profiles - before.profiles,       profile_hits - before.profile_hits,
            executed - before.executed,       coalesced - before.coalesced,
            reply_hits - before.reply_hits,   data_requests - before.data_requests,
            busy - before.busy};
  }
};

}  // namespace

RunReport run_serve(const RunOptions& options) {
  const ServeSpec spec = make_spec(options.seed, options.smoke);
  const std::size_t digest_count = options.smoke ? 8 : 64;
  const std::string socket =
      options.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  RunReport report;

  const int setups = options.trace || options.smoke ? 1 : 3;
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    if (daemon && !daemon->stop()) ++report.failed;
    daemon.reset();
    const auto start = Clock::now();
    daemon = std::make_unique<Daemon>(options.cli, socket, kDaemonWorkers);
    warm_pool(spec, socket);
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }

  const double load_seconds = options.trace ? options.seconds / 2
                                            : options.seconds;
  const DaemonCounters before = DaemonCounters::read(socket);
  const double cpu_before = cpu_seconds_of(daemon->pid());
  Replies replies;
  const auto load_start = Clock::now();
  const Phase open =
      open_loop(spec, socket, load_seconds / 2, digest_count, replies);
  const Phase closed = closed_loop(spec, socket, load_seconds / 2,
                                   open.attempted, digest_count, replies);
  const double cpu_s = cpu_seconds_of(daemon->pid()) - cpu_before;
  const double load_wall_s = ms_between(load_start, Clock::now()) / 1000.0;
  const double rss_mb = peak_rss_mb(daemon->pid());
  const DaemonCounters load = DaemonCounters::read(socket).since(before);

  // Replies the digest covers but phase A did not reach.
  if (open.attempted < digest_count) {
    server::Client client(socket, 60000);
    std::string reply;
    for (std::size_t i = open.attempted; i < digest_count; ++i) {
      if (replies.all().count(i) > 0) continue;
      const bool good =
          round_trip(client, request_bytes(spec, i, item_at(spec, i)), reply);
      replies.put(i, good ? reply : "");
    }
  }

  Tracer tracer;
  Decomposer untraced(tracer);
  Decomposer traced(tracer);
  LayerInputs inputs;
  inputs.tracer = &tracer;
  inputs.decomposer = &traced;
  std::unique_ptr<core::EstimationService> local;
  std::vector<Question> daemon_questions;
  std::size_t traced_mismatches = 0;
  if (options.trace) {
    // Each request crosses the daemon, then is answered and decomposed
    // in process by a service configured like the daemon's.
    local = make_service(1);
    server::Client client(socket, 60000);
    std::string reply;
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            options.seconds / 2));
    for (std::size_t i = closed.first + closed.attempted; Clock::now() < end;
         ++i) {
      const Item item = item_at(spec, i);
      const Question question = question_of(spec, item);
      bool good = false;
      {
        tracer.set_enabled(true);
        tracer.set_request(static_cast<std::int64_t>(i));
        auto span = tracer.span("server.call", question.type());
        good = round_trip(client, request_bytes(spec, i, item), reply);
        tracer.set_enabled(false);
      }
      const Answer answer =
          traced_request(*local, tracer, untraced, traced, i, question, inputs);
      ++report.attempted;
      if (!good || deterministic_reply(reply) != answer.deterministic().dump()) {
        ++traced_mismatches;
      }
      if (daemon_questions.size() < 6) daemon_questions.push_back(question);
    }
  }
  if (!daemon->stop()) ++report.failed;
  daemon.reset();

  std::map<std::size_t, Kept> kept;
  for (auto& [index, reply] : replies.all()) {
    kept[index] =
        Kept{question_of(spec, item_at(spec, index)), deterministic_reply(reply)};
  }
  const GateResult gate = run_gate(kept);
  for (const std::string& message : gate.messages) {
    std::fprintf(stderr, "gate: %s\n", message.c_str());
  }

  const std::size_t attempted = open.attempted + closed.attempted;
  const std::size_t failed = open.failed + closed.failed;
  report.attempted += attempted;
  report.failed += failed + gate.mismatched + traced_mismatches;
  std::size_t slo_misses = 0;
  for (const double latency : open.latency_ms) {
    if (latency > kSloMs) ++slo_misses;
  }
  slo_misses += open.failed;  // a failed request misses any limit
  std::vector<double> all_latency = open.latency_ms;
  all_latency.insert(all_latency.end(), closed.latency_ms.begin(),
                     closed.latency_ms.end());
  const auto pct = [](std::size_t part, std::size_t whole) {
    return 100.0 * static_cast<double>(part) /
           static_cast<double>(std::max<std::size_t>(whole, 1));
  };
  report.notes.push_back("output_digest." + options.workload + "=" +
                         output_digest(kept, digest_count) + " over " +
                         std::to_string(digest_count) + " replies");
  report.notes.push_back("gate=" + std::to_string(gate.checked) +
                         " checked, " + std::to_string(gate.mismatched) +
                         " mismatched");
  report.notes.push_back("phase_a=" + std::to_string(open.attempted) +
                         " requests at " + fixed(kOpenLoopRate) +
                         "/s, phase_b=" + std::to_string(closed.attempted) +
                         " requests");
  report.notes.push_back("latency_p99_ms=" +
                         fixed(percentile(open.latency_ms, 99.0)) + " over " +
                         std::to_string(open.latency_ms.size()) + " samples");
  report.notes.push_back("error_pct=" + fixed(pct(failed, attempted)) +
                         " slo_miss_pct=" +
                         fixed(pct(slo_misses, open.attempted)));
  report.notes.push_back("loadgen_lag_p99_ms=" +
                         fixed(percentile(open.lag_ms, 99.0)));
  report.notes.push_back(
      "daemon: executed=" + std::to_string(load.executed) +
      " reply_cache_hits=" + std::to_string(load.reply_hits) +
      " coalesced=" + std::to_string(load.coalesced) +
      " profiles_run=" + std::to_string(load.profiles));

  if (!options.trace) {
    const double completed =
        static_cast<double>(open.completed() + closed.completed());
    report.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"throughput_per_s",
         static_cast<double>(closed.completed()) / closed.seconds, "1/s"},
        {"latency_p50_ms", percentile(open.latency_ms, 50.0), "ms"},
        {"latency_p90_ms", percentile(open.latency_ms, 90.0), "ms"},
        {"cpu_ms_per_op", 1000.0 * cpu_s / std::max(completed, 1.0), "ms"},
        {"peak_rss_mb", rss_mb, "MiB"},
    };
    return report;
  }

  inputs.loop_replays = traced.replays();
  inputs.load_latency_ms = std::move(all_latency);
  inputs.load_lag_ms = open.lag_ms;
  inputs.load_requests = attempted;
  inputs.load_cpu_s = cpu_s;
  inputs.load_wall_s = load_wall_s;
  inputs.service_threads = kDaemonWorkers;
  for (const Phase* phase : {&open, &closed}) {
    for (std::size_t i = 0; i < phase->index.size(); ++i) {
      const Item item = item_at(spec, phase->index[i]);
      inputs.server_ms[item.cold ? "cold" : spec.pool[item.pool].type()]
          .push_back(phase->latency_ms[i]);
    }
  }
  inputs.session_hits = load.profile_hits;
  inputs.session_misses = load.profiles;
  inputs.executed = load.executed;
  inputs.coalesced = load.coalesced;
  inputs.reply_hits = load.reply_hits;
  inputs.data_requests = load.data_requests;
  inputs.busy = load.busy;
  std::vector<core::TrainJob> probe_jobs;
  std::set<std::string> labels;
  for (const Question& question : spec.pool) {
    if (question.kind == Kind::kSweep && probe_jobs.size() < 4 &&
        labels.insert(question.sweep.job.label()).second) {
      probe_jobs.push_back(question.sweep.job);
    }
  }
  report.failed += run_probes(options, *local, tracer, traced, probe_jobs,
                              daemon_questions, false, inputs);
  report.failed += traced.mismatches().size() + untraced.mismatches().size();
  for (const std::string& message : traced.mismatches()) {
    std::fprintf(stderr, "decomposition: %s\n", message.c_str());
  }
  report.metrics = layer_metrics(inputs);
  report.notes.push_back("traced_requests=" +
                         std::to_string(inputs.traced_requests));
  report.notes.push_back("trace_file=" + write_trace(options, tracer));
  return report;
}

}  // namespace xmem::perf
