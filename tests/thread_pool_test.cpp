// util::ThreadPool tests: the fan-out substrate under the estimation
// service's sweeps and the planner's hybrid search, previously exercised
// only indirectly through service_test.
//
//   * submitted tasks run and their futures yield results;
//   * a task's exception propagates through its future without harming
//     the pool or other tasks;
//   * the destructor drains the queue — every submitted task runs even
//     when the pool is torn down immediately after submission;
//   * many concurrent writers fill disjoint slots exactly once (the
//     invariant the sweep's slot-per-entry fan-out relies on);
//   * fan_out() waits for every sibling before rethrowing a failure, and
//     make_pool() maps the `threads` option (0 = default, 1 = serial).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace xmem {
namespace {

TEST(ThreadPool, RunsTasksAndReturnsResults) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DefaultThreadsStayInTheReplayFanOutRange) {
  const std::size_t threads = util::ThreadPool::default_threads();
  EXPECT_GE(threads, 1u);
  EXPECT_LE(threads, 8u);
}

TEST(ThreadPool, TaskExceptionPropagatesThroughItsFuture) {
  util::ThreadPool pool(2);
  std::future<int> failing =
      pool.submit([]() -> int { throw std::runtime_error("boom"); });
  std::future<int> healthy = pool.submit([] { return 41; });

  EXPECT_THROW(
      {
        try {
          failing.get();
        } catch (const std::runtime_error& error) {
          EXPECT_STREQ(error.what(), "boom");
          throw;
        }
      },
      std::runtime_error);
  // The worker that unwound keeps serving: the pool is not poisoned.
  EXPECT_EQ(healthy.get(), 41);
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

TEST(ThreadPool, DestructorDrainsTheQueue) {
  std::atomic<int> executed{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        executed.fetch_add(1);
      });
    }
    // Destruction must block until every queued task has run, not drop the
    // backlog on the floor.
  }
  EXPECT_EQ(executed.load(), 64);
}

TEST(ThreadPool, ManyWritersFillDisjointSlotsExactlyOnce) {
  constexpr std::size_t kSlots = 512;
  util::ThreadPool pool(8);
  std::vector<int> slots(kSlots, -1);
  std::vector<std::atomic<int>> writes(kSlots);
  for (auto& w : writes) w.store(0);

  std::vector<std::future<void>> futures;
  futures.reserve(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) {
    futures.push_back(pool.submit([&slots, &writes, i] {
      slots[i] = static_cast<int>(i);
      writes[i].fetch_add(1);
    }));
  }
  for (auto& future : futures) future.get();

  for (std::size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i));
    EXPECT_EQ(writes[i].load(), 1);
  }
}

TEST(ThreadPool, StressSubmissionFromManyThreads) {
  // N producer threads race submissions into one pool; every task must run
  // exactly once (sum of 1..total).
  util::ThreadPool pool(4);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 100;
  std::atomic<std::int64_t> sum{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &sum, p] {
      std::vector<std::future<void>> futures;
      futures.reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int64_t value = p * kPerProducer + i + 1;
        futures.push_back(pool.submit([&sum, value] { sum.fetch_add(value); }));
      }
      for (auto& future : futures) future.get();
    });
  }
  for (std::thread& producer : producers) producer.join();

  const std::int64_t total = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), total * (total + 1) / 2);
}

TEST(FanOut, FailureWaitsForEverySiblingBeforeRethrowing) {
  // Callers hand fan_out tasks that reference their stack; returning while
  // a sibling still runs would let it read freed memory mid-unwind.
  util::ThreadPool pool(4);
  constexpr int kTasks = 16;
  std::atomic<int> finished{0};
  EXPECT_THROW(util::fan_out(&pool, kTasks,
                             [&finished](std::size_t i) {
                               if (i == 0) throw std::runtime_error("first");
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(5));
                               finished.fetch_add(1);
                             }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), kTasks - 1);
}

TEST(FanOut, RethrowsTheLowestIndexFailure) {
  util::ThreadPool pool(4);
  try {
    util::fan_out(&pool, 8, [](std::size_t i) {
      if (i == 5 || i == 2) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "fan_out swallowed the failures";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 2");
  }
}

TEST(FanOut, NullPoolRunsInIndexOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  util::fan_out(nullptr, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(FanOut, MakePoolMapsTheThreadsOption) {
  EXPECT_EQ(util::make_pool(1), nullptr);
  EXPECT_EQ(util::make_pool(3)->size(), 3u);
  const std::unique_ptr<util::ThreadPool> fallback = util::make_pool(0);
  const std::size_t width = util::ThreadPool::default_threads();
  EXPECT_EQ(fallback ? fallback->size() : 1u, width);
}

}  // namespace
}  // namespace xmem
