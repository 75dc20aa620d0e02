// Pieces shared by the offline workloads (workloads.cpp) and serve-mixed
// (serve.cpp): the correctness gate, the output digest, the traced-run
// probes and the per-layer metric table. End-to-end timings are computed
// over every sample of a timed phase: percentiles over all its requests,
// rates and CPU per request over its whole wall time.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perf.h"

namespace xmem::perf {

/// Every 16th request is recomputed by the gate, as is every cold one.
inline constexpr std::size_t kGateStride = 16;

std::unique_ptr<core::EstimationService> make_service(
    std::size_t threads, std::size_t result_cache_capacity = 256);

/// A seeded permutation of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/// A reply kept from a timed phase, as deterministic JSON text ("" when
/// the request failed).
struct Kept {
  Question question;
  std::string reply;
};

struct GateResult {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  std::vector<std::string> messages;
};

/// Recompute the kept replies due for checking (every kGateStride-th
/// index, and every cold question) with fresh serial services that cache
/// no results, and compare byte for byte. Questions repeated across kept
/// indices are recomputed once; the work fans out on worker_threads().
GateResult run_gate(const std::map<std::size_t, Kept>& kept);

/// FNV-1a over the replies to requests 0..count-1, in index order.
std::string output_digest(const std::map<std::size_t, Kept>& kept,
                          std::size_t count);

/// Everything the per-layer table is computed from.
struct LayerInputs {
  const Tracer* tracer = nullptr;
  // Traced loop: service calls, each decomposed twice (tracer off, on).
  std::size_t traced_requests = 0;
  std::vector<double> service_ms;
  double decompose_off_ms = 0.0;
  double decompose_on_ms = 0.0;
  double last_decompose_ms = 0.0;  ///< the latest untraced decomposition
  /// Per traced request: service time minus the untraced decomposition's,
  /// the time the service spends outside the layers' public calls.
  std::vector<double> glue_ms;
  std::size_t entries = 0;
  std::size_t result_hits = 0;
  std::size_t replays_run = 0;
  std::size_t distinct_replays = 0;
  /// Simulator replays the traced loop's decompositions ran (probes
  /// excluded).
  std::size_t loop_replays = 0;
  std::size_t plans = 0;
  std::size_t rank_replays = 0;
  std::size_t replay_cache_hits = 0;
  std::size_t replays_deduped = 0;
  const Decomposer* decomposer = nullptr;
  // The untraced load phase that precedes the traced loop.
  std::vector<double> load_latency_ms;
  std::vector<double> load_lag_ms;
  std::size_t load_requests = 0;
  /// CPU seconds of the process that answers (the daemon for serve-mixed)
  /// over `load_wall_s`, and the threads it answers with.
  double load_cpu_s = 0.0;
  double load_wall_s = 0.0;
  std::size_t service_threads = 1;
  std::uint64_t session_hits = 0;
  std::uint64_t session_misses = 0;
  // Daemon counters: the workload's own daemon for serve-mixed, the probe
  // daemon otherwise.
  std::uint64_t executed = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t reply_hits = 0;
  std::uint64_t data_requests = 0;
  std::uint64_t busy = 0;
  /// Daemon round trips (ms) by kind: "sweep", "plan", "fleet", and "cold"
  /// for a sweep whose job the daemon had not profiled yet.
  std::map<std::string, std::vector<double>> server_ms;
  // Daemon probe.
  std::vector<double> reply_bytes;
  double parse_bytes = 0.0;
  double parse_ms = 0.0;
  Accuracy accuracy;

  /// Add one traced service answer to the cache and plan tallies.
  void tally(const Answer& answer);
};

/// A traced run reports every per-layer metric in BENCHMARK.json, but no
/// workload's own traffic reaches every layer (cold-estimate plans nothing,
/// only serve-mixed has a daemon). Probes fill the gaps with real calls on
/// a few of the workload's own jobs, after its traced loop:
///   * each job's sequence replayed once on every allocator backend;
///   * a top-4 plan per job (rtx3060 + A100, up to 8 GPUs), decomposed;
///   * a warm fleet pack of the jobs, decomposed three times;
///   * ground truth per job on the A100 (fits most configs);
///   * a fresh daemon: pings, then `questions` asked twice (execute, then
///     reply-cache hit), each reply compared with the in-process answer.
/// Returns the mismatches found.
std::size_t run_probes(const RunOptions& options,
                       core::EstimationService& service, Tracer& tracer,
                       Decomposer& decomposer,
                       const std::vector<core::TrainJob>& jobs,
                       std::vector<Question> questions, bool daemon_counters,
                       LayerInputs& inputs);

std::vector<Metric> layer_metrics(const LayerInputs& inputs);

/// Decompose `question`/`answer` twice — tracer off, then on under a
/// `request` span — and add the timings to `inputs`.
void decompose_twice(core::EstimationService& service, Tracer& tracer,
                     Decomposer& untraced, Decomposer& traced,
                     std::int64_t request, const Question& question,
                     const Answer& answer, LayerInputs& inputs);

/// One request of a traced loop: the service answers it (timed), then it is
/// decomposed twice and tallied.
Answer traced_request(core::EstimationService& service, Tracer& tracer,
                      Decomposer& untraced, Decomposer& traced,
                      std::size_t index, const Question& question,
                      LayerInputs& inputs);

/// Write the tracer's Chrome trace; returns the path written.
std::string write_trace(const RunOptions& options, const Tracer& tracer);

/// `value` with six decimals, for the note lines.
std::string fixed(double value);

RunReport run_serve(const RunOptions& options);

}  // namespace xmem::perf
