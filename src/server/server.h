// `xmem serve`: a long-running estimation daemon over core::EstimationService.
//
// The profile-once/estimate-many service (PR 3) answers what-if questions
// orders of magnitude cheaper than a cold pipeline run, but every CLI
// invocation so far rebuilt the caches from nothing. The server is the
// missing process boundary: one resident EstimationService, a Unix-domain
// stream socket speaking length-prefixed JSON frames (server/protocol.h),
// and the admission machinery a shared frontend needs —
//
//   * request coalescing: identical in-flight (type, tenant, canonical
//     request) work collapses onto one execution, the same way
//     ProfileSession already dedups in-flight profiles; completed replies
//     park in a bounded LRU, as the report's compact bytes, so an identical
//     later request is served the byte-identical report without
//     re-executing. Replies are therefore deterministic: every client
//     asking a given question gets the bytes a cold serial execution would
//     have produced.
//   * repeats by text: a plain envelope (type, request, optional id) whose
//     request bytes are already a key, i.e. the canonical text of a
//     question validated earlier, is answered with no DOM and no
//     canonicalization: one scan, one lookup, the stored bytes spliced
//     around its id. Everything else takes the parse + canonicalize path,
//     which decides every error frame and counter.
//   * backpressure: the work queue is bounded. A request that would
//     overflow it is answered with an explicit `server_busy` error frame —
//     never queued unboundedly, never silently dropped.
//   * per-tenant quotas: the request's `tenant` field is charged for its
//     profile-LRU footprint (core::SessionQuota); in hard mode an
//     over-quota tenant gets an actionable `quota_exceeded` error.
//   * graceful shutdown: stop() stops accepting, drains every queued and
//     executing request (their clients get real replies), then closes
//     connections. request_stop() is async-signal-safe for SIGTERM.
//   * observability: a `stats` endpoint exposes cache hits, profiles run,
//     coalescing counters, queue depths, and per-tenant residency.
//
// Control-plane requests (ping/stats/shutdown) are answered inline on the
// connection thread so they work even when the work queue is saturated;
// data-plane requests (sweep/plan/fleet) go through admission + the worker pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/estimation_service.h"
#include "server/protocol.h"

namespace xmem::server {

struct ServerConfig {
  /// Filesystem path of the Unix-domain socket. A stale socket file at the
  /// path is unlinked before bind (the daemon owns its path).
  std::string socket_path;
  /// Worker threads executing sweep/plan/fleet requests.
  std::size_t workers = 4;
  /// Data-plane requests allowed to wait for a worker; one more may be
  /// executing per worker. Beyond this: `server_busy` error frames.
  std::size_t max_queue = 64;
  /// Concurrent client connections; excess connects are answered with a
  /// `server_busy` frame and closed.
  std::size_t max_connections = 64;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Completed replies kept for identical later requests (LRU entries).
  std::size_t reply_cache_capacity = 256;
  /// EstimationService knobs (threads inside ONE request's fan-out; the
  /// worker pool above already parallelizes across requests).
  std::size_t service_threads = 1;
  std::size_t profile_cache_capacity = core::ProfileSession::kDefaultCapacity;
  /// Per-tenant profile-LRU quota (0 = off; see core::SessionQuota).
  core::SessionQuota session_quota;
  /// Test/bench aid: artificial per-request execution delay, so admission
  /// and coalescing races can be pinned deterministically.
  int handler_delay_ms = 0;
};

/// Counter snapshot (the `stats` endpoint renders exactly this).
struct ServerStats {
  std::uint64_t frames_received = 0;    ///< well-framed payloads read
  std::uint64_t requests_total = 0;     ///< parsed envelopes, any type
  std::uint64_t data_requests = 0;      ///< sweep + plan + fleet arrivals
  std::uint64_t executed = 0;           ///< sweep/plan/fleet actually run
  std::uint64_t coalesced_inflight = 0; ///< collapsed onto an in-flight twin
  std::uint64_t reply_cache_hits = 0;   ///< served a completed twin's reply
  std::uint64_t busy_rejections = 0;    ///< server_busy error frames sent
  std::uint64_t shutdown_rejections = 0;///< arrived while draining
  std::uint64_t protocol_errors = 0;    ///< unparseable/oversized/truncated
  std::uint64_t request_errors = 0;     ///< well-framed but failed requests
  std::uint64_t quota_rejections = 0;   ///< hard-quota rejections
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t executing = 0;
  std::size_t active_connections = 0;
  std::uint64_t profiles_run = 0;        ///< session misses == CPU profiles
  std::uint64_t profile_cache_hits = 0;  ///< session hits
  std::size_t profile_entries = 0;       ///< resident LRU entries
  std::uint64_t quota_evictions = 0;     ///< soft-quota self-evictions
  std::map<std::string, std::size_t> tenants;  ///< resident profiles/tenant

  /// In-flight + completed collapses: every duplicate of an already-asked
  /// question lands in exactly one of the two buckets.
  std::uint64_t coalesced_total() const {
    return coalesced_inflight + reply_cache_hits;
  }
  util::Json to_json() const;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();  ///< stops gracefully if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the accept loop and worker pool. Throws
  /// std::runtime_error on socket errors (path too long, bind failure).
  void start();

  /// start() (unless already started), then block until request_stop() (a
  /// signal, a `shutdown` request, or another thread), then stop(). The
  /// daemon entry point.
  void run();

  /// Async-signal-safe stop trigger: flips the stop latch and wakes run().
  /// Safe to call from a signal handler or any thread, multiple times.
  void request_stop();

  /// Graceful shutdown: stop accepting, drain queued + executing requests
  /// (every waiting client gets its reply), close connections, join all
  /// threads, unlink the socket. Idempotent; callable from any thread
  /// except a connection/worker thread (those use request_stop()).
  void stop();

  bool started() const { return started_.load(); }
  bool stop_requested() const { return stop_flag_.load(); }

  ServerStats stats() const;
  const ServerConfig& config() const { return config_; }

 private:
  struct Impl;

  ServerConfig config_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_flag_{false};
  std::unique_ptr<Impl> impl_;
};

}  // namespace xmem::server
