// ThreadPool, the pool parallel shard recovery runs on
// (ShardedCatalogService::RecoverAll): RunBatch basics (every task runs
// exactly once, a zero-worker pool runs on the caller, concurrent
// batches all complete), then the Shutdown() protocol (first caller
// joins, later callers wait), its interaction with batches racing the
// stop, the zero-worker degenerate case, and the destructor path.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace mvopt {
namespace {

TEST(ThreadPoolTest, RunBatchRunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kTasks = 257;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks.emplace_back([&runs, i] { runs[i].fetch_add(1); });
  }
  pool.RunBatch(tasks);
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ZeroWorkerPoolDegeneratesToCallerExecution) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(3);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < ran_on.size(); ++i) {
    tasks.emplace_back([&ran_on, i] { ran_on[i] = std::this_thread::get_id(); });
  }
  pool.RunBatch(tasks);
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ConcurrentBatchesFromManyCallersAllComplete) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kTasksPerCaller = 64;
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &total] {
      std::vector<std::function<void()>> tasks;
      for (int i = 0; i < kTasksPerCaller; ++i) {
        tasks.emplace_back([&total] { total.fetch_add(1); });
      }
      pool.RunBatch(tasks);
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * kTasksPerCaller);
}

TEST(ThreadPoolShutdownTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Shutdown();
  pool.Shutdown();  // second call must return immediately, not deadlock
  EXPECT_EQ(pool.num_workers(), 2);
}

TEST(ThreadPoolShutdownTest, ConcurrentShutdownCallersAllReturn) {
  ThreadPool pool(3);
  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&pool] { pool.Shutdown(); });
  }
  for (std::thread& t : callers) t.join();
}

TEST(ThreadPoolShutdownTest, RunBatchAfterShutdownRunsOnTheCaller) {
  ThreadPool pool(2);
  pool.Shutdown();
  // Workers are gone, but RunBatch's caller-participation contract
  // still completes every task — now serially, on this thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(5);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < ran_on.size(); ++i) {
    tasks.emplace_back([&ran_on, i] { ran_on[i] = std::this_thread::get_id(); });
  }
  pool.RunBatch(tasks);
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolShutdownTest, BatchesRacingShutdownAllComplete) {
  // Callers hammer RunBatch while the main thread stops the pool: every
  // task still runs exactly once — either on a worker that saw it
  // before stopping or on the submitting thread.
  constexpr int kCallers = 4;
  constexpr int kBatches = 32;
  constexpr int kTasksPerBatch = 16;
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &total] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < kTasksPerBatch; ++i) {
          tasks.emplace_back([&total] { total.fetch_add(1); });
        }
        pool.RunBatch(tasks);
      }
    });
  }
  pool.Shutdown();  // races the submissions above
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * kBatches * kTasksPerBatch);
}

TEST(ThreadPoolShutdownTest, ZeroWorkerPoolShutsDownCleanly) {
  ThreadPool pool(0);
  pool.Shutdown();
  std::atomic<int> runs{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 3; ++i) tasks.emplace_back([&runs] { runs.fetch_add(1); });
  pool.RunBatch(tasks);
  EXPECT_EQ(runs.load(), 3);
  pool.Shutdown();
}

TEST(ThreadPoolShutdownTest, DestructorAfterExplicitShutdownJoinsOnce) {
  // The destructor re-enters Shutdown(); after an explicit call it must
  // take the already-joined path, not double-join the workers. (Batches
  // pending when the stop lands are covered by
  // BatchesRacingShutdownAllComplete — the pool's contract requires it
  // to outlive every RunBatch caller, so a destructor racing RunBatch
  // is not a supported schedule.)
  std::atomic<int> total{0};
  {
    ThreadPool pool(2);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.emplace_back([&total] { total.fetch_add(1); });
    }
    pool.RunBatch(tasks);
    pool.Shutdown();
    pool.RunBatch(tasks);  // post-shutdown batch, caller-executed
  }  // ~ThreadPool: second Shutdown, must be a no-op join
  EXPECT_EQ(total.load(), 32);
}

}  // namespace
}  // namespace mvopt
