// Clang Thread Safety Analysis annotations, making the repo's lock
// discipline machine-checked instead of comment-checked: every shared
// mutable member declares which capability (mutex) guards it, and every
// function that assumes a caller-held lock says so in its signature.
// Under Clang with -Wthread-safety (the MVOPT_THREAD_SAFETY CMake
// option turns it into -Werror=thread-safety), violating a declaration
// — reading a MVOPT_GUARDED_BY member without its lock, forgetting an
// unlock on one path, acquiring two mutexes against their declared
// MVOPT_ACQUIRED_BEFORE order — is a compile error. Under GCC (and any
// compiler without the attributes) every macro expands to nothing, so
// the annotations are free documentation.
//
// The annotated capability types the rest of the tree uses (Mutex,
// MutexLock, CondVar) live in common/mutex.h; raw std::mutex members are
// invisible to the analysis and should not be used for shared state.
//
// tools/ci/run_static_analysis.sh builds the tree with the gate on and
// additionally proves the gate *bites* via a negative-compile harness
// (tools/ci/negative_compile) that seeds one violation of each class
// and asserts the compiler rejects it.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#ifndef MVOPT_COMMON_THREAD_ANNOTATIONS_H_
#define MVOPT_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define MVOPT_THREAD_ANNOTATION_(x) __has_attribute(x)
#else
#define MVOPT_THREAD_ANNOTATION_(x) 0
#endif

#if MVOPT_THREAD_ANNOTATION_(guarded_by)
#define MVOPT_TSA_(x) __attribute__((x))
#else
#define MVOPT_TSA_(x)  // no-op outside Clang
#endif

// --- capability types ------------------------------------------------------

/// Marks a type as a capability (lockable). `x` names the capability
/// kind in diagnostics, e.g. MVOPT_CAPABILITY("mutex").
#define MVOPT_CAPABILITY(x) MVOPT_TSA_(capability(x))

/// Marks an RAII type whose constructor acquires and destructor
/// releases a capability (MutexLock).
#define MVOPT_SCOPED_CAPABILITY MVOPT_TSA_(scoped_lockable)

// --- data annotations ------------------------------------------------------

/// The member may only be touched while holding `x` (read: at least
/// shared; write: exclusive).
#define MVOPT_GUARDED_BY(x) MVOPT_TSA_(guarded_by(x))

/// The pointed-to data (not the pointer itself) is guarded by `x`.
#define MVOPT_PT_GUARDED_BY(x) MVOPT_TSA_(pt_guarded_by(x))

/// Declared lock-ordering edges: this capability must be acquired
/// before / after the listed ones. An acquisition violating the order
/// is a compile error under the gate.
#define MVOPT_ACQUIRED_BEFORE(...) MVOPT_TSA_(acquired_before(__VA_ARGS__))
#define MVOPT_ACQUIRED_AFTER(...) MVOPT_TSA_(acquired_after(__VA_ARGS__))

// --- function annotations --------------------------------------------------

/// The caller must already hold the capability exclusively / shared.
#define MVOPT_REQUIRES(...) MVOPT_TSA_(requires_capability(__VA_ARGS__))
#define MVOPT_REQUIRES_SHARED(...) \
  MVOPT_TSA_(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define MVOPT_ACQUIRE(...) MVOPT_TSA_(acquire_capability(__VA_ARGS__))
#define MVOPT_ACQUIRE_SHARED(...) \
  MVOPT_TSA_(acquire_shared_capability(__VA_ARGS__))

/// The function releases a capability the caller held on entry.
#define MVOPT_RELEASE(...) MVOPT_TSA_(release_capability(__VA_ARGS__))
#define MVOPT_RELEASE_SHARED(...) \
  MVOPT_TSA_(release_shared_capability(__VA_ARGS__))

/// Conditional acquisition: holds the capability iff the function
/// returned `b`.
#define MVOPT_TRY_ACQUIRE(...) MVOPT_TSA_(try_acquire_capability(__VA_ARGS__))
#define MVOPT_TRY_ACQUIRE_SHARED(...) \
  MVOPT_TSA_(try_acquire_shared_capability(__VA_ARGS__))

/// The function must NOT be called with the capability held (it will
/// acquire it itself — the reentrance / self-deadlock guard).
#define MVOPT_EXCLUDES(...) MVOPT_TSA_(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (no static proof).
#define MVOPT_ASSERT_CAPABILITY(x) MVOPT_TSA_(assert_capability(x))

/// The function returns a reference to the given capability.
#define MVOPT_RETURN_CAPABILITY(x) MVOPT_TSA_(lock_returned(x))

/// Escape hatch for functions deliberately outside the analysis —
/// documented single-threaded accessors and test seams. Every use
/// carries a comment saying why the exemption is sound.
#define MVOPT_NO_THREAD_SAFETY_ANALYSIS \
  MVOPT_TSA_(no_thread_safety_analysis)

#endif  // MVOPT_COMMON_THREAD_ANNOTATIONS_H_
