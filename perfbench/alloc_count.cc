// Counting replacement of the global operator new/delete family (traced
// binary only). Totals are thread-local, so counting adds no shared write
// and a thread's own delta around a call is exact even while other threads
// allocate. Sizes are the allocator's usable sizes, so a delete subtracts
// exactly what the matching new added.

#include "alloc_count.h"

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
thread_local AllocTally t_tally;
thread_local int t_paused = 0;

bool Counting() {
  return t_paused == 0 && g_counting.load(std::memory_order_relaxed);
}

void* Allocate(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (::posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p != nullptr && Counting()) {
    t_tally.count += 1;
    t_tally.bytes += static_cast<int64_t>(::malloc_usable_size(p));
  }
  return p;
}

void* AllocateOrThrow(std::size_t size, std::size_t align) {
  void* p = Allocate(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  if (Counting()) {
    t_tally.freed += static_cast<int64_t>(::malloc_usable_size(p));
  }
  std::free(p);
}

}  // namespace

AllocTally ThreadAllocTally() { return t_tally; }

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocPause::AllocPause() { ++t_paused; }
AllocPause::~AllocPause() { --t_paused; }

}  // namespace perfbench

using perfbench::Allocate;
using perfbench::AllocateOrThrow;
using perfbench::Release;

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

void* operator new(std::size_t n) { return AllocateOrThrow(n, kDefaultAlign); }
void* operator new[](std::size_t n) {
  return AllocateOrThrow(n, kDefaultAlign);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}
