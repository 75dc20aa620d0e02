#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <stdexcept>
#include <thread>

#include "perf.h"
#include "server/protocol.h"

namespace xmem::perf {

namespace {

/// Poll for the child's exit for up to `limit`; true once it has been reaped.
bool wait_for_exit(pid_t pid, std::chrono::milliseconds limit, int& status) {
  const auto deadline = Clock::now() + limit;
  while (true) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid || (done < 0 && errno != EINTR)) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

Daemon::Daemon(const std::string& cli, const std::string& socket, int workers)
    : socket_(socket) {
  ::unlink(socket_.c_str());
  const std::string workers_arg = std::to_string(workers);
  std::vector<const char*> argv = {cli.c_str(),   "serve",
                                   "--socket",    socket_.c_str(),
                                   "--workers",   workers_arg.c_str(),
                                   nullptr};
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::close(null_fd);
    }
    ::execv(argv[0], const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (true) {
    try {
      server::Client probe(socket_, 1000);
      return;
    } catch (const server::TransportError&) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("xmem serve exited before listening (" + cli +
                               ")");
    }
    if (Clock::now() >= deadline) {
      stop();
      throw std::runtime_error("xmem serve did not listen on " + socket_);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Daemon::~Daemon() { stop(); }

bool Daemon::stop() {
  if (pid_ < 0) return true;
  try {
    server::Client client(socket_, 5000);
    client.shutdown_server();
  } catch (const std::exception&) {
    ::kill(pid_, SIGTERM);
  }
  int status = 0;
  bool clean = wait_for_exit(pid_, std::chrono::seconds(10), status);
  if (!clean) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  ::unlink(socket_.c_str());
  return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool round_trip(server::Client& client, const std::string& envelope,
                std::string& reply) {
  return client.send_frame(envelope) &&
         client.read_reply(reply) == server::FrameStatus::kOk;
}

std::string envelope(std::size_t id, const char* type,
                     const std::string& document) {
  std::string out = "{\"id\":";
  out += std::to_string(id);
  out += ",\"request\":";
  out += document;
  out += ",\"type\":\"";
  out += type;
  out += "\"}";
  return out;
}

bool reply_ok(const std::string& reply) {
  // Envelope keys serialize sorted ("id" < "ok" < ...), so the verdict sits
  // in the first few bytes.
  return reply.substr(0, 48).find("\"ok\":true") != std::string::npos;
}

}  // namespace xmem::perf
