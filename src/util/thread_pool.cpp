#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace xmem::util {

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

std::size_t ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 4 : hw, 1, 8);
}

std::unique_ptr<ThreadPool> make_pool(std::size_t threads) {
  if (threads == 0) threads = ThreadPool::default_threads();
  return threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

void fan_out(ThreadPool* pool, const std::size_t count,
             const std::function<void(std::size_t)>& task) {
  if (pool == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(pool->submit([&task, i] { task(i); }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace xmem::util
