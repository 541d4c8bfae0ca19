// Clang thread-safety annotation macros (abseil idiom, PSO_ prefix).
//
// Annotating which mutex guards which member turns the locking discipline
// into a compile-time contract: clang's -Wthread-safety analysis rejects
// any access to a PSO_GUARDED_BY member outside its mutex, any call to a
// PSO_REQUIRES function without the lock held, and any double-acquire of
// a PSO_EXCLUDES mutex. The CI `static-analysis` job builds tier-1 with
// clang and -Wthread-safety -Werror; under GCC (the default local
// toolchain) every macro expands to nothing and the code is unchanged.
//
// Use these together with pso::Mutex / pso::MutexLock (common/mutex.h) —
// a bare std::mutex carries no capability attribute, so the analysis
// cannot see it (and tools/pso_lint.py bans bare std::mutex outside
// src/common/ for exactly that reason).

#ifndef PSO_COMMON_THREAD_ANNOTATIONS_H_
#define PSO_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define PSO_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define PSO_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside clang
#endif

/// Declares a data member readable/writable only while `x` is held.
#define PSO_GUARDED_BY(x) PSO_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Declares that callers must hold every listed capability exclusively
/// before calling (checked at every call site).
#define PSO_REQUIRES(...) \
  PSO_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Declares that callers must NOT hold the listed capabilities (guards
/// against self-deadlock on non-reentrant mutexes).
#define PSO_EXCLUDES(...) \
  PSO_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function acquires the capability (a mutex Lock() method, or a scoped
/// lock constructor taking the mutex as argument).
#define PSO_ACQUIRE(...) \
  PSO_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define PSO_RELEASE(...) \
  PSO_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Marks a class as a lockable capability ("mutex" names it in
/// diagnostics).
#define PSO_CAPABILITY(name) PSO_THREAD_ANNOTATION_ATTRIBUTE(capability(name))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability.
#define PSO_SCOPED_CAPABILITY \
  PSO_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

#endif  // PSO_COMMON_THREAD_ANNOTATIONS_H_
