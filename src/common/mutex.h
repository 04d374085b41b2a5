// Annotated mutex types: thin wrappers over std::mutex carrying the
// Clang Thread Safety Analysis capability attributes
// (common/thread_annotations.h), so that
// MVOPT_GUARDED_BY declarations on shared state are actually enforced —
// the std types are invisible to the analysis.
//
// The wrappers add no state and no behavior beyond the std primitives;
// a release build compiles them away entirely. Condition-variable waits
// go through CondVar, whose Wait takes the scoped MutexLock so the wait
// is only expressible with the lock held. Predicate waits are written
// as explicit `while (!cond) cv.Wait(lock);` loops in the caller — the
// analysis cannot see through a predicate lambda, and the loop keeps
// every guarded access inside the annotated function body.
//
// Lock-ordering rules for the repo's mutexes are documented in
// DESIGN.md §12 and, where two locks are owned by one class, declared
// with MVOPT_ACQUIRED_BEFORE so the gate enforces them.

#ifndef MVOPT_COMMON_MUTEX_H_
#define MVOPT_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace mvopt {

class CondVar;

/// Plain exclusive mutex (annotated std::mutex).
class MVOPT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MVOPT_ACQUIRE() { mu_.lock(); }
  void Unlock() MVOPT_RELEASE() { mu_.unlock(); }
  bool TryLock() MVOPT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped exclusive lock over a Mutex (the std::lock_guard analogue;
/// also the handle CondVar::Wait requires).
class MVOPT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MVOPT_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() MVOPT_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to Mutex/MutexLock. Wait releases the lock
/// while blocked and reacquires it before returning, so from the
/// analysis' point of view the capability is held across the call —
/// which is exactly the contract the caller's `while` loop relies on.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mvopt

#endif  // MVOPT_COMMON_MUTEX_H_
