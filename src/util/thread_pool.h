// Small fixed-size thread pool for fan-out work inside the estimation
// service (concurrent what-if sweeps: one task per allocator replay) and
// the fleet planner (one sweep per job archetype).
// Deliberately minimal: submit() returns a std::future, the destructor
// drains the queue and joins. Tasks must not submit follow-up work to the
// same pool from inside a task and then block on it (no work stealing),
// which the flat fan_out() below never needs.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace xmem::util {

class ThreadPool {
 public:
  /// `threads` is clamped to at least 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a callable; the returned future yields its result (or
  /// rethrows its exception).
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// Sensible default width for CPU-bound replay fan-out.
  static std::size_t default_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

/// The pool behind a `threads` option: 0 = ThreadPool::default_threads(),
/// 1 = no pool (null — fan_out then runs serially on the caller's thread).
std::unique_ptr<ThreadPool> make_pool(std::size_t threads);

/// Run task(0..count-1) on `pool`, or inline in index order when `pool` is
/// null or there is a single task. Waits for EVERY task before rethrowing
/// the lowest-index failure, so a sibling still running never observes the
/// caller's state mid-unwind. Callers fill per-index slots and merge them
/// in index order afterwards, which keeps results thread-count independent.
void fan_out(ThreadPool* pool, std::size_t count,
             const std::function<void(std::size_t)>& task);

}  // namespace xmem::util
