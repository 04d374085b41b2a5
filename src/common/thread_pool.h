// A small fixed thread pool for parallel shard recovery
// (ShardedCatalogService::RecoverAll runs one task per shard on it).
// Design goals, in order:
//
//   1. Determinism stays the caller's property: the pool only runs the
//      closures it is given; callers assign each work item its own
//      output slot, so results are merged in item order regardless of
//      which worker ran what.
//   2. Batches from concurrent callers interleave safely: RunBatch may
//      be invoked from many threads against one shared pool; each batch
//      tracks its own completion, and the calling thread participates
//      in its own batch (so a pool with zero workers still makes
//      progress and degenerates to serial execution).
//   3. No surprises under sanitizers or the thread-safety gate: all
//      cross-thread communication is annotated-mutex / condition-
//      variable / atomic based (every guarded member carries its
//      MVOPT_GUARDED_BY); tasks must not throw (wrap fallible work, as
//      shard recovery does per shard).
//
// Lock order: the pool-wide mu_ and a batch's Batch::mu are never held
// together — queue operations take mu_, completion accounting takes the
// batch's own lock after mu_ is dropped.
//
// The pool is intentionally minimal — no futures, no stealing, no
// priorities. It exists for shard recovery, not as a general executor.

#ifndef MVOPT_COMMON_THREAD_POOL_H_
#define MVOPT_COMMON_THREAD_POOL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mvopt {

class ThreadPool {
 public:
  /// Starts `num_workers` threads (0 is allowed: RunBatch then executes
  /// everything on the calling thread).
  explicit ThreadPool(int num_workers) {
    if (num_workers < 0) num_workers = 0;
    workers_.reserve(static_cast<size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { Shutdown(); }

  /// Stops the workers and joins them. Idempotent and safe to call from
  /// several threads (the first caller joins; later callers wait until
  /// the join is done). Workers finish any batches already queued before
  /// exiting, and RunBatch stays usable after shutdown: the caller
  /// participates in its own batch, so every batch — including one
  /// racing the stop — still completes, just on the submitting thread.
  void Shutdown() MVOPT_EXCLUDES(mu_) {
    bool do_join = false;
    {
      MutexLock lock(mu_);
      stop_ = true;
      if (!join_started_) {
        join_started_ = true;
        do_join = true;
      }
    }
    cv_.NotifyAll();
    if (do_join) {
      for (std::thread& w : workers_) w.join();
      {
        MutexLock lock(mu_);
        join_done_ = true;
      }
      joined_cv_.NotifyAll();
    } else {
      MutexLock lock(mu_);
      while (!join_done_) joined_cv_.Wait(lock);
    }
  }

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs every task across the workers and the calling thread; returns
  /// when all of them have completed. Tasks must not throw. Safe to call
  /// from multiple threads concurrently.
  void RunBatch(const std::vector<std::function<void()>>& tasks)
      MVOPT_EXCLUDES(mu_) {
    if (tasks.empty()) return;
    auto batch = std::make_shared<Batch>();
    batch->tasks = &tasks;
    batch->size = tasks.size();
    {
      MutexLock lock(mu_);
      batches_.push_back(batch);
    }
    cv_.NotifyAll();
    // The caller participates: claim and run tasks until none are left.
    DrainBatch(*batch);
    RetireBatch(batch);
    MutexLock lock(batch->mu);
    while (batch->completed != batch->size) batch->done_cv.Wait(lock);
  }

 private:
  struct Batch {
    const std::vector<std::function<void()>>* tasks = nullptr;
    size_t size = 0;
    std::atomic<size_t> next{0};
    Mutex mu;
    CondVar done_cv;
    size_t completed MVOPT_GUARDED_BY(mu) = 0;
  };

  /// Claims and runs tasks from `batch` until every index is taken.
  /// Runs the closures unlocked; only the completion count takes the
  /// batch lock.
  void DrainBatch(Batch& batch) MVOPT_EXCLUDES(mu_) {
    for (;;) {
      const size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.size) return;
      (*batch.tasks)[i]();
      bool all_done = false;
      {
        MutexLock lock(batch.mu);
        all_done = ++batch.completed == batch.size;
      }
      if (all_done) batch.done_cv.NotifyAll();
    }
  }

  /// Removes a fully claimed batch from the shared queue (idempotent).
  void RetireBatch(const std::shared_ptr<Batch>& batch) MVOPT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (auto it = batches_.begin(); it != batches_.end(); ++it) {
      if (*it == batch) {
        batches_.erase(it);
        return;
      }
    }
  }

  void WorkerLoop() MVOPT_EXCLUDES(mu_) {
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        MutexLock lock(mu_);
        while (!stop_ && batches_.empty()) cv_.Wait(lock);
        if (batches_.empty()) {
          if (stop_) return;
          continue;
        }
        batch = batches_.front();
      }
      if (batch->next.load(std::memory_order_relaxed) >= batch->size) {
        // Fully claimed (tasks may still be running on other threads);
        // retire it so waiters stop rediscovering it.
        RetireBatch(batch);
        continue;
      }
      DrainBatch(*batch);
      RetireBatch(batch);
    }
  }

  Mutex mu_;
  CondVar cv_;
  CondVar joined_cv_;
  std::deque<std::shared_ptr<Batch>> batches_ MVOPT_GUARDED_BY(mu_);
  bool stop_ MVOPT_GUARDED_BY(mu_) = false;
  /// Shutdown state: exactly one caller joins the workers; others wait
  /// on joined_cv_ until the join completes.
  bool join_started_ MVOPT_GUARDED_BY(mu_) = false;
  bool join_done_ MVOPT_GUARDED_BY(mu_) = false;
  /// Started in the constructor, joined in the destructor, immutable in
  /// between — no guard needed (num_workers() reads only the size).
  std::vector<std::thread> workers_;
};

}  // namespace mvopt

#endif  // MVOPT_COMMON_THREAD_POOL_H_
