#include "server/server.h"

#include "sched/fleet_planner.h"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <list>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace xmem::server {

namespace {

/// What one executed data request produced. Shared (never mutated) between
/// the executor, every coalesced waiter, and the reply cache; each waiter
/// stamps its own envelope id around it, so coalescing is invisible in the
/// reply bytes apart from being faster.
struct Outcome {
  bool ok = true;
  std::string type;     ///< "sweep" | "plan" | "fleet"
  std::string report;   ///< the report's compact bytes (no timings)
  std::string code;     ///< error code when !ok
  std::string message;  ///< error message when !ok
};
using OutcomePtr = std::shared_ptr<const Outcome>;

/// A completed reply kept for later twins. The entry owns its key; the
/// index views it.
struct CachedReply {
  std::string key;
  OutcomePtr outcome;
};

struct Job {
  std::string key;
  std::string type;  ///< "sweep" | "plan" | "fleet"
  core::EstimateRequest sweep;
  core::PlanRequest plan;
  sched::FleetRequest fleet;
  std::promise<OutcomePtr> promise;
};

/// The reply envelope for `outcome`, stamped with the asker's id (null
/// when the envelope had none). An ok reply splices the stored report
/// bytes: object keys dump sorted (id < ok < report < type), so these are
/// the bytes make_ok_envelope with a "report" member would dump.
std::string reply_for(const util::Json* id, const Outcome& outcome) {
  if (!outcome.ok) {
    return make_error_envelope(id, outcome.code, outcome.message).dump();
  }
  std::string reply;
  reply.reserve(outcome.report.size() + 64);
  reply += '{';
  if (id != nullptr) {
    reply += "\"id\":";
    reply += id->dump();
    reply += ',';
  }
  reply += "\"ok\":true,\"report\":";
  reply += outcome.report;
  reply += ",\"type\":";
  util::append_json_string(reply, outcome.type);
  reply += '}';
  return reply;
}

/// The parts of a data-request envelope the repeat lookup reads. Views
/// into the payload.
struct EnvelopeScan {
  std::string_view type;     ///< "sweep" | "plan" | "fleet"
  std::string_view id;       ///< the id value's bytes; empty when absent
  std::string_view request;  ///< the request value's bytes
};

/// Read `payload` without building a DOM. True only for one object holding
/// a "type" of sweep, plan or fleet, a "request" and at most an "id", each
/// key once, and nothing after it. Everything else (a tenant, an unknown or
/// repeated key, a syntax error) is left to the full path, which judges it
/// the way it always has.
bool scan_envelope(std::string_view payload, EnvelopeScan& scan) {
  try {
    util::JsonCursor cursor(payload);
    if (cursor.peek_value() != '{' || !cursor.enter_object()) return false;
    std::string scratch;
    bool has_type = false;
    bool has_id = false;
    bool has_request = false;
    // The bytes of the next value, syntax-checked; JsonCursor bounds its
    // nesting, so this recursion is bounded too.
    const auto value_span = [&] {
      cursor.peek_value();  // skips the whitespace before the value
      const std::size_t start = payload.size() - cursor.remaining();
      cursor.skip_value();
      return payload.substr(start, payload.size() - cursor.remaining() - start);
    };
    do {
      const std::string_view key = cursor.read_key(scratch);
      if (key == "type" && !has_type) {
        has_type = true;
        if (cursor.peek_value() != '"') return false;
        // A decoded string may live in `scratch`; keep a literal instead.
        const std::string_view type = cursor.read_string(scratch);
        for (const std::string_view known : {"sweep", "plan", "fleet"}) {
          if (type == known) scan.type = known;
        }
        if (scan.type.empty()) return false;
      } else if (key == "id" && !has_id) {
        has_id = true;
        scan.id = value_span();
      } else if (key == "request" && !has_request) {
        has_request = true;
        scan.request = value_span();
      } else {
        return false;
      }
    } while (cursor.next_member());
    cursor.finish();
    return has_type && has_request;
  } catch (const util::JsonParseError&) {
    return false;
  }
}

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Wind down a connection WITHOUT discarding the replies already written.
/// A plain close(2) with unread input pending aborts the stream on Linux
/// (AF_UNIX included): the peer reads ECONNRESET and the error frame we
/// just sent may never arrive. So: half-close the write side (the peer
/// sees EOF after our last frame), then swallow the remaining input until
/// the peer's EOF — bounded, so a firehosing client cannot pin the thread.
/// The caller closes the fd afterwards; this runs with the fd still
/// registered in conn_fds, so stop() can SHUT_RD it to unblock the drain.
void drain_before_close(int fd) {
  ::shutdown(fd, SHUT_WR);
  constexpr std::size_t kMaxDrainBytes = std::size_t{4} * 1024 * 1024;
  char sink[4096];
  std::size_t drained = 0;
  while (drained < kMaxDrainBytes) {
    const ssize_t n = ::read(fd, sink, sizeof(sink));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    drained += static_cast<std::size_t>(n);
  }
}

}  // namespace

util::Json ServerStats::to_json() const {
  util::Json json = util::Json::object();
  json["frames_received"] = util::Json(static_cast<std::int64_t>(
      frames_received));
  json["requests_total"] = util::Json(static_cast<std::int64_t>(
      requests_total));
  json["data_requests"] = util::Json(static_cast<std::int64_t>(data_requests));
  json["executed"] = util::Json(static_cast<std::int64_t>(executed));
  json["coalesced"] = util::Json(static_cast<std::int64_t>(coalesced_total()));
  json["coalesced_inflight"] = util::Json(static_cast<std::int64_t>(
      coalesced_inflight));
  json["reply_cache_hits"] = util::Json(static_cast<std::int64_t>(
      reply_cache_hits));
  json["server_busy"] = util::Json(static_cast<std::int64_t>(busy_rejections));
  json["shutdown_rejections"] = util::Json(static_cast<std::int64_t>(
      shutdown_rejections));
  json["protocol_errors"] = util::Json(static_cast<std::int64_t>(
      protocol_errors));
  json["request_errors"] = util::Json(static_cast<std::int64_t>(
      request_errors));
  json["quota_rejections"] = util::Json(static_cast<std::int64_t>(
      quota_rejections));
  json["connections_accepted"] = util::Json(static_cast<std::int64_t>(
      connections_accepted));
  json["connections_rejected"] = util::Json(static_cast<std::int64_t>(
      connections_rejected));
  json["queue_depth"] = util::Json(static_cast<std::int64_t>(queue_depth));
  json["queue_capacity"] = util::Json(static_cast<std::int64_t>(
      queue_capacity));
  json["executing"] = util::Json(static_cast<std::int64_t>(executing));
  json["active_connections"] = util::Json(static_cast<std::int64_t>(
      active_connections));
  json["profiles_run"] = util::Json(static_cast<std::int64_t>(profiles_run));
  json["profile_cache_hits"] = util::Json(static_cast<std::int64_t>(
      profile_cache_hits));
  json["profile_entries"] = util::Json(static_cast<std::int64_t>(
      profile_entries));
  json["quota_evictions"] = util::Json(static_cast<std::int64_t>(
      quota_evictions));
  util::Json tenant_json = util::Json::object();
  for (const auto& [tenant, resident] : tenants) {
    tenant_json[tenant] = util::Json(static_cast<std::int64_t>(resident));
  }
  json["tenants"] = std::move(tenant_json);
  return json;
}

struct Server::Impl {
  explicit Impl(Server& server)
      : owner(server), service(make_options(server.config_)) {}

  static core::ServiceOptions make_options(const ServerConfig& config) {
    core::ServiceOptions options;
    options.threads = config.service_threads == 0 ? 1 : config.service_threads;
    options.profile_cache_capacity = config.profile_cache_capacity;
    options.session_quota = config.session_quota;
    return options;
  }

  const ServerConfig& config() const { return owner.config_; }

  Server& owner;
  core::EstimationService service;

  // --- sockets + lifecycle --------------------------------------------------
  int listen_fd = -1;
  int stop_pipe_rd = -1;  ///< one-way latch: written once, never drained
  int stop_pipe_wr = -1;
  std::thread accept_thread;
  std::mutex stop_mutex;
  bool stopped = false;

  // --- connections ----------------------------------------------------------
  mutable std::mutex conn_mutex;
  std::map<std::uint64_t, std::thread> conn_threads;
  std::vector<std::thread> finished_conn_threads;
  std::set<int> conn_fds;
  std::uint64_t next_conn_id = 0;

  // --- dispatch: queue + coalescing + reply cache ---------------------------
  mutable std::mutex dispatch_mutex;
  std::condition_variable queue_cv;
  std::deque<Job> queue;
  bool draining = false;  ///< set under dispatch_mutex during stop()
  std::map<std::string, std::shared_future<OutcomePtr>> inflight;
  std::list<CachedReply> reply_lru;  ///< front = most recently used
  /// Keys view reply_lru's entries, so each key is stored once.
  std::unordered_map<std::string_view, std::list<CachedReply>::iterator>
      reply_cache;
  std::vector<std::thread> workers;

  // --- counters -------------------------------------------------------------
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> requests_total{0};
  std::atomic<std::uint64_t> data_requests{0};
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> coalesced_inflight{0};
  std::atomic<std::uint64_t> reply_cache_hits{0};
  std::atomic<std::uint64_t> busy_rejections{0};
  std::atomic<std::uint64_t> shutdown_rejections{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> request_errors{0};
  std::atomic<std::uint64_t> quota_rejections{0};
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_rejected{0};
  std::atomic<std::size_t> executing{0};

  void accept_loop();
  void connection_loop(int fd, std::uint64_t id);
  std::string handle_payload(const std::string& payload,
                             bool& stop_after_reply);
  std::optional<std::string> answer_repeat(std::string_view payload);
  /// With dispatch_mutex held: join `key`'s in-flight twin (`future`) or
  /// take its cached reply (`ready`), counting which. False when neither.
  bool find_answer(const std::string& key,
                   std::shared_future<OutcomePtr>& future, OutcomePtr& ready);
  std::string dispatch_data_request(const util::Json& envelope,
                                    const util::Json* id,
                                    const std::string& type);
  void worker_loop();
  OutcomePtr execute_job(Job& job);
  ServerStats snapshot();
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
  impl_ = std::make_unique<Impl>(*this);
}

Server::~Server() {
  if (started_.load()) stop();
}

void Server::start() {
  if (started_.load()) throw std::runtime_error("server already started");
  if (config_.socket_path.empty()) {
    throw std::runtime_error("server: socket_path is required");
  }

  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("server: socket path too long for AF_UNIX: " +
                             config_.socket_path);
  }
  std::memcpy(address.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error("server: pipe() failed: " +
                             std::string(std::strerror(errno)));
  }
  impl_->stop_pipe_rd = pipe_fds[0];
  impl_->stop_pipe_wr = pipe_fds[1];

  impl_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) {
    const std::string reason = std::strerror(errno);
    close_if_open(impl_->stop_pipe_rd);
    close_if_open(impl_->stop_pipe_wr);
    throw std::runtime_error("server: socket() failed: " + reason);
  }
  // The daemon owns its path: a leftover file from a crashed run would
  // otherwise make every restart fail with EADDRINUSE.
  ::unlink(config_.socket_path.c_str());
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(impl_->listen_fd, 64) != 0) {
    const std::string reason = std::strerror(errno);
    close_if_open(impl_->listen_fd);
    close_if_open(impl_->stop_pipe_rd);
    close_if_open(impl_->stop_pipe_wr);
    throw std::runtime_error("server: cannot listen on " +
                             config_.socket_path + ": " + reason);
  }

  started_.store(true);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
}

void Server::run() {
  if (!started_.load()) start();
  // Block until the stop latch is written — by a signal handler through
  // request_stop(), a `shutdown` request, or another thread. The pipe is
  // polled, never read: level-triggered readability doubles as the latch
  // for the accept loop.
  pollfd wait_fd{impl_->stop_pipe_rd, POLLIN, 0};
  while (::poll(&wait_fd, 1, -1) < 0 && errno == EINTR) {
  }
  stop();
}

void Server::request_stop() {
  stop_flag_.store(true);
  if (impl_->stop_pipe_wr >= 0) {
    // Async-signal-safe: one write(2), nothing else. Repeated calls just
    // add bytes to a pipe nobody drains.
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(impl_->stop_pipe_wr, &byte, 1);
  }
}

void Server::stop() {
  std::lock_guard<std::mutex> stop_lock(impl_->stop_mutex);
  if (impl_->stopped || !started_.load()) return;
  impl_->stopped = true;

  // 1. Latch + stop accepting. The accept loop polls the stop pipe and
  //    exits; no new connections arrive.
  request_stop();
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  close_if_open(impl_->listen_fd);
  ::unlink(config_.socket_path.c_str());

  // 2. Drain the data plane: workers finish every queued and executing
  //    request (their promises are fulfilled, so every waiting connection
  //    gets a real reply), then exit. New enqueues are refused with
  //    `shutting_down` from here on.
  {
    std::lock_guard<std::mutex> lock(impl_->dispatch_mutex);
    impl_->draining = true;
  }
  impl_->queue_cv.notify_all();
  for (std::thread& worker : impl_->workers) {
    if (worker.joinable()) worker.join();
  }
  impl_->workers.clear();

  // 3. Unblock connection readers (SHUT_RD: pending reply writes still
  //    flush) and join every connection thread.
  {
    std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    for (const int fd : impl_->conn_fds) ::shutdown(fd, SHUT_RD);
  }
  while (true) {
    std::map<std::uint64_t, std::thread> active;
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(impl_->conn_mutex);
      active.swap(impl_->conn_threads);
      finished.swap(impl_->finished_conn_threads);
    }
    if (active.empty() && finished.empty()) break;
    for (auto& [id, thread] : active) {
      if (thread.joinable()) thread.join();
    }
    for (std::thread& thread : finished) {
      if (thread.joinable()) thread.join();
    }
  }

  close_if_open(impl_->stop_pipe_rd);
  close_if_open(impl_->stop_pipe_wr);
  started_.store(false);
}

ServerStats Server::stats() const { return impl_->snapshot(); }

ServerStats Server::Impl::snapshot() {
  ServerStats stats;
  stats.frames_received = frames_received.load();
  stats.requests_total = requests_total.load();
  stats.data_requests = data_requests.load();
  stats.executed = executed.load();
  stats.coalesced_inflight = coalesced_inflight.load();
  stats.reply_cache_hits = reply_cache_hits.load();
  stats.busy_rejections = busy_rejections.load();
  stats.shutdown_rejections = shutdown_rejections.load();
  stats.protocol_errors = protocol_errors.load();
  stats.request_errors = request_errors.load();
  stats.quota_rejections = quota_rejections.load();
  stats.connections_accepted = connections_accepted.load();
  stats.connections_rejected = connections_rejected.load();
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex);
    stats.queue_depth = queue.size();
  }
  stats.queue_capacity = config().max_queue;
  stats.executing = executing.load();
  {
    std::lock_guard<std::mutex> lock(conn_mutex);
    stats.active_connections = conn_fds.size();
  }
  const core::ProfileSession& session = service.session();
  stats.profiles_run = session.misses();
  stats.profile_cache_hits = session.hits();
  stats.profile_entries = session.size();
  stats.quota_evictions = session.quota_evictions();
  stats.tenants = session.resident_by_tenant();
  return stats;
}

// ---------------------------------------------------------------------------
// accept + connection plumbing

void Server::Impl::accept_loop() {
  pollfd fds[2] = {{listen_fd, POLLIN, 0}, {stop_pipe_rd, POLLIN, 0}};
  while (true) {
    fds[0].revents = 0;
    fds[1].revents = 0;
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // stop latch written
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket gone: stop() is tearing down
    }

    std::lock_guard<std::mutex> lock(conn_mutex);
    // Reap connection threads that already finished so a long-lived daemon
    // does not accumulate joinable corpses.
    for (std::thread& done : finished_conn_threads) {
      if (done.joinable()) done.join();
    }
    finished_conn_threads.clear();

    if (conn_fds.size() >= config().max_connections) {
      connections_rejected.fetch_add(1);
      write_frame(fd, make_error_envelope(
                          nullptr, kErrBusy,
                          "connection limit reached (" +
                              std::to_string(config().max_connections) +
                              " active); retry later")
                          .dump());
      ::close(fd);
      continue;
    }

    connections_accepted.fetch_add(1);
    const std::uint64_t id = next_conn_id++;
    conn_fds.insert(fd);
    conn_threads.emplace(
        id, std::thread([this, fd, id] { connection_loop(fd, id); }));
  }
}

void Server::Impl::connection_loop(int fd, std::uint64_t id) {
  std::string payload;
  while (true) {
    std::uint64_t announced = 0;
    const FrameStatus status =
        read_frame(fd, payload, config().max_frame_bytes, &announced);
    if (status == FrameStatus::kClosed) break;
    if (status == FrameStatus::kTruncated) {
      // EOF mid-frame: nothing to answer to; close quietly.
      protocol_errors.fetch_add(1);
      break;
    }
    if (status == FrameStatus::kOversized) {
      protocol_errors.fetch_add(1);
      write_frame(fd, make_error_envelope(
                          nullptr, kErrFrameTooLarge,
                          "frame announces " + std::to_string(announced) +
                              " bytes; limit is " +
                              std::to_string(config().max_frame_bytes))
                          .dump());
      break;  // the byte stream is no longer framed: close
    }
    if (status == FrameStatus::kError) break;

    frames_received.fetch_add(1);
    bool stop_after_reply = false;
    const std::string reply = handle_payload(payload, stop_after_reply);
    if (!write_frame(fd, reply)) break;
    if (stop_after_reply) owner.request_stop();
  }

  drain_before_close(fd);
  std::lock_guard<std::mutex> lock(conn_mutex);
  // Erase + close under the lock: once closed, the kernel may hand the same
  // fd NUMBER to the next accept, and a stale erase would then knock the
  // new connection out of conn_fds (stop() could never unblock it).
  conn_fds.erase(fd);
  ::close(fd);
  const auto it = conn_threads.find(id);
  if (it != conn_threads.end()) {
    // Move our own handle to the finished list; stop() or the next accept
    // joins it. (Moving a std::thread does not affect the running thread.)
    finished_conn_threads.push_back(std::move(it->second));
    conn_threads.erase(it);
  }
}

// ---------------------------------------------------------------------------
// request handling

std::string Server::Impl::handle_payload(const std::string& payload,
                                         bool& stop_after_reply) {
  if (std::optional<std::string> reply = answer_repeat(payload)) {
    return std::move(*reply);
  }

  util::Json envelope;
  try {
    envelope = util::Json::parse(payload);
  } catch (const std::exception& error) {
    protocol_errors.fetch_add(1);
    return make_error_envelope(nullptr, kErrParse,
                               std::string("payload is not valid JSON: ") +
                                   error.what())
        .dump();
  }
  if (!envelope.is_object()) {
    protocol_errors.fetch_add(1);
    return make_error_envelope(nullptr, kErrBadRequest,
                               "envelope must be a JSON object")
        .dump();
  }

  const util::Json* id = envelope.contains("id") ? &envelope.at("id") : nullptr;
  if (id != nullptr) {
    // An id that parsed to a non-finite double (1e999) cannot be echoed.
    try {
      id->dump();
    } catch (const std::invalid_argument& error) {
      protocol_errors.fetch_add(1);
      return make_error_envelope(nullptr, kErrBadRequest,
                                 std::string("envelope \"id\" cannot be "
                                             "echoed: ") +
                                     error.what())
          .dump();
    }
  }
  const std::string type = envelope.get_string_or("type", "");
  requests_total.fetch_add(1);

  if (type == "ping") {
    return make_ok_envelope(id, type).dump();
  }
  if (type == "stats") {
    util::Json reply = make_ok_envelope(id, type);
    reply["stats"] = snapshot().to_json();
    return reply.dump();
  }
  if (type == "shutdown") {
    stop_after_reply = true;
    util::Json reply = make_ok_envelope(id, type);
    reply["draining"] = util::Json(true);
    return reply.dump();
  }
  if (type == "sweep" || type == "plan" || type == "fleet") {
    return dispatch_data_request(envelope, id, type);
  }
  request_errors.fetch_add(1);
  return make_error_envelope(
             id, kErrUnsupportedType,
             "unknown request type '" + type +
                 "'; expected sweep|plan|fleet|stats|ping|shutdown")
      .dump();
}

/// A repeat served by its own text: when the request's bytes are a key of
/// the in-flight map or the reply cache they are the canonical text of a
/// question validated earlier (canonical texts are fixed points of
/// from_json -> to_json), so the full path would derive this very key.
/// Nullopt sends the payload down the full path instead.
std::optional<std::string> Server::Impl::answer_repeat(
    std::string_view payload) {
  EnvelopeScan scan;
  if (!scan_envelope(payload, scan)) return std::nullopt;
  std::optional<util::Json> id;
  if (!scan.id.empty()) {
    id = util::Json::parse(scan.id);
    try {
      id->dump();
    } catch (const std::invalid_argument&) {
      return std::nullopt;  // the full path answers the non-finite id
    }
  }

  std::string key;
  key.reserve(scan.type.size() + 1 + scan.request.size());
  key += scan.type;
  key += '|';
  key += scan.request;

  std::shared_future<OutcomePtr> future;
  OutcomePtr ready;
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex);
    if (!find_answer(key, future, ready)) return std::nullopt;
  }
  requests_total.fetch_add(1);
  data_requests.fetch_add(1);

  const OutcomePtr outcome = ready ? ready : future.get();
  return reply_for(id ? &*id : nullptr, *outcome);
}

bool Server::Impl::find_answer(const std::string& key,
                               std::shared_future<OutcomePtr>& future,
                               OutcomePtr& ready) {
  if (const auto inflight_it = inflight.find(key);
      inflight_it != inflight.end()) {
    coalesced_inflight.fetch_add(1);
    future = inflight_it->second;
    return true;
  }
  if (const auto cache_it = reply_cache.find(key);
      cache_it != reply_cache.end()) {
    reply_cache_hits.fetch_add(1);
    reply_lru.splice(reply_lru.begin(), reply_lru, cache_it->second);
    ready = cache_it->second->outcome;
    return true;
  }
  return false;
}

std::string Server::Impl::dispatch_data_request(const util::Json& envelope,
                                                const util::Json* id,
                                                const std::string& type) {
  data_requests.fetch_add(1);

  // Parse + canonicalize on the connection thread, so malformed documents
  // are rejected immediately (with the service's own actionable message)
  // and never occupy a queue slot. Canonicalization (from_json -> to_json)
  // means cosmetically different but semantically identical requests share
  // one coalescing key.
  Job job;
  job.type = type;
  try {
    if (!envelope.contains("request")) {
      throw std::invalid_argument("envelope: missing \"request\" document");
    }
    const std::string tenant = envelope.get_string_or("tenant", "");
    std::string canonical;
    if (type == "plan") {
      job.plan = core::PlanRequest::from_json(envelope.at("request"));
      if (!tenant.empty()) job.plan.tenant = tenant;
      canonical = job.plan.to_json().dump();
    } else if (type == "fleet") {
      job.fleet = sched::FleetRequest::from_json(envelope.at("request"));
      if (!tenant.empty()) job.fleet.tenant = tenant;
      canonical = job.fleet.to_json().dump();
    } else {
      job.sweep = core::EstimateRequest::from_json(envelope.at("request"));
      if (!tenant.empty()) job.sweep.tenant = tenant;
      canonical = job.sweep.to_json().dump();
    }
    job.key = type + '|' + canonical;
  } catch (const std::exception& error) {
    request_errors.fetch_add(1);
    return make_error_envelope(id, kErrBadRequest, error.what()).dump();
  }

  std::shared_future<OutcomePtr> future;
  OutcomePtr ready;
  {
    std::unique_lock<std::mutex> lock(dispatch_mutex);
    if (!find_answer(job.key, future, ready)) {
      if (draining) {
        shutdown_rejections.fetch_add(1);
        return make_error_envelope(
                   id, kErrShuttingDown,
                   "server is draining; not accepting new work")
            .dump();
      }
      if (queue.size() >= config().max_queue) {
        busy_rejections.fetch_add(1);
        return make_error_envelope(
                   id, kErrBusy,
                   "work queue full (" + std::to_string(queue.size()) +
                       " pending); retry later")
            .dump();
      }
      future = job.promise.get_future().share();
      inflight.emplace(job.key, future);
      queue.push_back(std::move(job));
      queue_cv.notify_one();
    }
  }

  const OutcomePtr outcome = ready ? ready : future.get();
  return reply_for(id, *outcome);
}

// ---------------------------------------------------------------------------
// workers

void Server::Impl::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(dispatch_mutex);
      queue_cv.wait(lock, [this] { return draining || !queue.empty(); });
      if (queue.empty()) {
        if (draining) return;
        continue;
      }
      job = std::move(queue.front());
      queue.pop_front();
      executing.fetch_add(1);
    }

    const OutcomePtr outcome = execute_job(job);

    {
      std::lock_guard<std::mutex> lock(dispatch_mutex);
      executing.fetch_sub(1);
      inflight.erase(job.key);
      // Cache successes only: errors are cheap to recompute and may be
      // transient (quota freed, a model registered later).
      if (outcome->ok && config().reply_cache_capacity > 0 &&
          reply_cache.find(job.key) == reply_cache.end()) {
        reply_lru.push_front(CachedReply{std::move(job.key), outcome});
        reply_cache.emplace(reply_lru.front().key, reply_lru.begin());
        while (reply_cache.size() > config().reply_cache_capacity) {
          reply_cache.erase(reply_lru.back().key);
          reply_lru.pop_back();
        }
      }
    }
    job.promise.set_value(outcome);
  }
}

OutcomePtr Server::Impl::execute_job(Job& job) {
  if (config().handler_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config().handler_delay_ms));
  }
  auto outcome = std::make_shared<Outcome>();
  outcome->type = job.type;
  try {
    if (job.type == "plan") {
      outcome->report =
          service.plan(job.plan).to_json(/*include_timings=*/false).dump();
    } else if (job.type == "fleet") {
      outcome->report =
          service.fleet(job.fleet).to_json(/*include_timings=*/false).dump();
    } else {
      outcome->report =
          service.sweep(job.sweep).to_json(/*include_timings=*/false).dump();
    }
    executed.fetch_add(1);
  } catch (const core::QuotaExceededError& error) {
    quota_rejections.fetch_add(1);
    request_errors.fetch_add(1);
    outcome->ok = false;
    outcome->code = kErrQuota;
    outcome->message = error.what();
  } catch (const std::invalid_argument& error) {
    request_errors.fetch_add(1);
    outcome->ok = false;
    outcome->code = kErrBadRequest;
    outcome->message = error.what();
  } catch (const std::exception& error) {
    request_errors.fetch_add(1);
    outcome->ok = false;
    outcome->code = kErrInternal;
    outcome->message = error.what();
  }
  return outcome;
}

}  // namespace xmem::server
