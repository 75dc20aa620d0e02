// Shared pieces of the xmem_perf benchmark program: seeded inputs, the
// request/answer pair every workload speaks, span recording, statistics and
// process accounting. See README.md for the workloads and metrics.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimation_service.h"
#include "core/sequence_transform.h"
#include "core/simulator.h"
#include "eval/metrics.h"
#include "sched/fleet_planner.h"
#include "server/client.h"
#include "util/json.h"
#include "util/rng.h"

namespace xmem::perf {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---------------------------------------------------------------------------
// Questions and answers

enum class Kind { kSweep, kPlan, kFleet };

/// One request a scheduler sends: a what-if sweep, a placement plan or a
/// fleet pack. Only the member matching `kind` is meaningful.
struct Question {
  Kind kind = Kind::kSweep;
  core::EstimateRequest sweep;
  core::PlanRequest plan;
  sched::FleetRequest fleet;
  /// serve-mixed: a job no earlier request named (profile and reply miss).
  bool cold = false;

  const char* type() const;
  /// The request document, as `xmem sweep|plan|fleet` and the daemon read it.
  util::Json document() const;
};

/// An in-process service's answer to a Question.
struct Answer {
  Kind kind = Kind::kSweep;
  core::EstimateReport sweep;
  core::PlanReport plan;
  sched::FleetReport fleet;

  /// The report without wall-clock fields or cache-warmth counters: the
  /// bytes every correct answer to the question shares, in-process or over
  /// the daemon, cold or warm.
  util::Json deterministic() const;
};

Answer ask(core::EstimationService& service, const Question& question);

/// Drop the counters whose values depend on what the caches held
/// (profiles_run, profile_cache_hits, replays_run, result_cache_hits).
util::Json strip_cache_counters(util::Json report);

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 1469598103934665603ULL);
std::string hex64(std::uint64_t value);

// ---------------------------------------------------------------------------
// Seeded inputs (inputs.cpp)

template <typename T>
const T& pick(const std::vector<T>& values, util::Rng& rng) {
  return values[rng.next_below(values.size())];
}

/// Configs of the Table-2 ANOVA grid (22 RQ1-4 models), each at most once,
/// in rounds: round r holds one config of each model, with the model's
/// (r mod n)-th optimizer and a seeded batch size, in a seeded order. Only
/// whole rounds are kept: 30 rounds, 660 of the grid's 776 configs. What a
/// config costs to estimate depends mostly on its model and optimizer, so
/// every seed's rounds cost alike; the seed picks the batch sizes and the
/// order.
std::vector<core::TrainJob> stratified_grid_jobs(std::uint64_t seed);
/// Jobs per round of stratified_grid_jobs(): the number of grid models.
std::size_t models_per_round();

/// One fixed config of each named model (AdamW, the middle batch size of
/// its grid, zero_grad at iteration start), so every seed asks about jobs
/// of the same cost.
std::vector<core::TrainJob> archetypes(const std::vector<std::string>& models);

/// Allocator knobs for the three knobbed backends, drawn from valid ranges,
/// except stream-pool's (release threshold, chunk) pair: the
/// `stream_pool_setting`-th (mod 9) of its nine, the knob that most sets
/// what a replay costs.
std::map<std::string, alloc::BackendKnobs> seeded_knobs(
    std::uint64_t seed, std::size_t stream_pool_setting);

/// A what-if card with constant footprints and a seeded capacity in the
/// `band`-th quarter (0-3) of 4-80 GiB.
gpu::DeviceModel seeded_device(const std::string& name, std::size_t band,
                               std::uint64_t seed);

Question sweep_question(const core::TrainJob& job,
                        std::vector<gpu::DeviceModel> devices,
                        std::vector<std::string> allocators);

// ---------------------------------------------------------------------------
// Span recording

/// In-memory span recorder for the traced run. Spans nest by scope on one
/// thread; a disabled tracer costs one branch per scope.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::string detail;      ///< e.g. the allocator backend of a replay
    std::int64_t request = -1;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 = none
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t value = 0;  ///< per-span quantity (events, bytes, jobs)

    double duration_us() const { return end_us - start_us; }
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::string detail);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_value(std::int64_t value);
    void rename(const char* name);

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  Tracer();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_request(std::int64_t request) { request_ = request; }

  Scope span(const char* name, std::string detail = std::string()) {
    return Scope(enabled_ ? this : nullptr, name, std::move(detail));
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of every span named `name`.
  std::vector<double> durations_ms(std::string_view name) const;
  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  util::Json chrome_trace() const;

 private:
  double now_us() const;

  bool enabled_ = false;
  std::int64_t request_ = -1;
  std::int64_t open_ = -1;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Layer decomposition (layers.cpp)

/// Re-executes a service answer through the public function of each layer,
/// with a span around every call, and checks each number the service
/// reported. It mirrors what the service did for that request: a profile
/// the service ran is rebuilt (model -> CPU profile -> trace JSON round trip
/// -> analyzer -> orchestrator), a profile it found is looked up in its
/// session, and only the entries it replayed are replayed. Its replay
/// scratch persists across requests, like a service worker's.
class Decomposer {
 public:
  explicit Decomposer(Tracer& tracer) : tracer_(tracer) {}

  void decompose(core::EstimationService& service, const Question& question,
                 const Answer& answer);

  std::size_t replays() const { return replays_; }
  std::size_t memo_lookups() const { return memo_lookups_; }
  std::size_t memo_hits() const { return memo_hits_; }
  /// One message per number that differed from the service's.
  const std::vector<std::string>& mismatches() const { return mismatches_; }

 private:
  /// Replay one sequence on one backend under a `core.simulator.replay` span.
  std::int64_t replay(const core::OrchestratedSequence& sequence,
                      const std::string& backend,
                      const alloc::BackendKnobs& knobs);
  std::shared_ptr<const core::ProfileArtifacts> profile(
      core::EstimationService& service, const core::TrainJob& job,
      int iterations, bool profiled_by_service);
  void sweep(core::EstimationService& service,
             const core::EstimateRequest& request,
             const core::EstimateReport& report);
  void plan(core::EstimationService& service, const core::PlanRequest& request,
            const core::PlanReport& report);
  void fleet(core::EstimationService& service,
             const sched::FleetRequest& request, const Answer& answer);
  std::int64_t memo_replay(const core::OrchestratedSequence& sequence,
                           const core::SimulationOptions& options);
  void check(bool ok, const std::string& what);

  Tracer& tracer_;
  core::MemorySimulator simulator_;
  core::ReplayScratch replay_scratch_;
  core::RankScratch rank_scratch_;
  std::size_t replays_ = 0;
  std::size_t memo_lookups_ = 0;
  std::size_t memo_hits_ = 0;
  std::vector<std::string> mismatches_;
};

/// Ground truth for estimates: the paper's two-round protocol (§4.1.4) run
/// on the simulated GPU, one `gpu.truth` span per job.
class Accuracy {
 public:
  void add(Tracer& tracer, const core::TrainJob& job, std::int64_t estimate,
           const gpu::DeviceModel& device);
  std::size_t jobs() const { return records_.size(); }
  /// Median relative error (Eq. 2) in percent over jobs that fit round 1;
  /// 0 when none did.
  double mre_pct() const;
  /// Estimation-failure probability (Eq. 6, i = 2) in percent.
  double pef_pct() const;

 private:
  std::vector<eval::RunRecord> records_;
};

// ---------------------------------------------------------------------------
// The `xmem serve` daemon as a child process (daemon.cpp)

class Daemon {
 public:
  /// Spawn `cli serve --socket <socket> --workers <workers>` and wait until
  /// the socket accepts connections. Throws std::runtime_error on failure.
  Daemon(const std::string& cli, const std::string& socket, int workers);
  /// Stops the daemon if still running (see stop()).
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Ask for a graceful drain and wait for the process to exit; kill it if
  /// it has not exited within 10 s. Returns true on a clean exit 0.
  bool stop();

  pid_t pid() const { return pid_; }
  const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// One framed request over an open connection. `envelope` is the payload;
/// returns false on a transport failure.
bool round_trip(server::Client& client, const std::string& envelope,
                std::string& reply);
/// The envelope bytes for request `id` whose request document serializes to
/// `document`: {"id":..,"request":..,"type":..}.
std::string envelope(std::size_t id, const char* type,
                     const std::string& document);
/// True when the reply envelope says ok:true.
bool reply_ok(const std::string& reply);

// ---------------------------------------------------------------------------
// Workload runs (workloads.cpp)

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// 1/20-size inputs and one set-up, every check still on.
  bool smoke = false;
  std::string work_dir;    ///< daemon sockets and trace files
  std::string trace_file;  ///< Chrome trace output of a traced run
  std::string cli;         ///< the xmem_cli executable
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::size_t attempted = 0;
  /// Requests that failed, plus every output a check found wrong.
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// `name=value` lines printed ahead of the result (sample counts,
  /// digests, gate tallies, accuracy).
  std::vector<std::string> notes;
};

const std::vector<std::string>& workload_names();
RunReport run_workload(const RunOptions& options);

// ---------------------------------------------------------------------------
// Statistics and process accounting

/// Type-7 percentile (p in 0..100); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
/// Quartiles exactly as Python's statistics.quantiles(values, n=4).
std::vector<double> quartiles(std::vector<double> values);

/// User+system CPU seconds of this process (all threads).
double cpu_seconds_self();
/// User+system CPU seconds of another process, from /proc/<pid>/stat.
double cpu_seconds_of(pid_t pid);
/// VmHWM (peak resident set) in MiB; pid 0 = this process.
double peak_rss_mb(pid_t pid = 0);

std::size_t worker_threads();  ///< min(4, hardware threads)

}  // namespace xmem::perf
