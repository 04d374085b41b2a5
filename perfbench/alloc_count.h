// Allocation counting for the traced benchmark binary. alloc_count.cc
// replaces the global operator new/delete family; only mvbench_traced links
// it, so the end-to-end binary allocates through the unmodified runtime.

#ifndef MVOPT_PERFBENCH_ALLOC_COUNT_H_
#define MVOPT_PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Per-thread running totals since the thread started.
struct AllocTally {
  int64_t count = 0;  ///< operator new calls
  int64_t bytes = 0;  ///< usable bytes handed out by those calls
  int64_t freed = 0;  ///< usable bytes returned through operator delete
};

/// The calling thread's totals (counted only while counting is enabled).
AllocTally ThreadAllocTally();

/// Turns counting on or off for every thread (off at start).
void SetAllocCounting(bool on);

/// Suspends counting on the calling thread while alive, so the benchmark's
/// own bookkeeping (the span recorder) is not charged to the library.
class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;
};

}  // namespace perfbench

#endif  // MVOPT_PERFBENCH_ALLOC_COUNT_H_
