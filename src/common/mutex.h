// pso::Mutex / pso::MutexLock / pso::CondVar: thin wrappers over the
// standard primitives that carry Clang thread-safety capability
// attributes (common/thread_annotations.h), so -Wthread-safety can check
// the locking discipline at compile time. Under GCC the attributes
// vanish and these are zero-cost aliases for std::mutex et al.
//
// Every long-lived mutex additionally names its position in the global
// lock-rank table (common/lock_rank.h): pass a LockRank and a stable
// name to the constructor and attach PSO_LOCK_ORDER(rank) to the
// declaration. Building with -DPSO_DEADLOCK_CHECK=ON arms a runtime
// verifier: each acquisition is checked against the calling thread's
// held-lock stack (rank must strictly decrease) and against a global
// graph of every acquisition pair ever observed (a cycle means two
// threads disagree about the order). Violations PSO_CHECK with a witness
// chain naming each mutex and the file:line of every held acquisition.
// When the option is off the hooks compile away entirely.
//
// All concurrent code in this repo uses these wrappers; bare std::mutex /
// std::condition_variable / std::thread outside src/common/ are rejected
// by tools/pso_lint.py (rule `bare-mutex`).

#ifndef PSO_COMMON_MUTEX_H_
#define PSO_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

#ifndef PSO_DEADLOCK_CHECK
#define PSO_DEADLOCK_CHECK 0
#endif

namespace pso {

class Mutex;

namespace deadlock {
#if PSO_DEADLOCK_CHECK
/// Verifier hooks called by Mutex; not for direct use. `blocking` is
/// false for try-acquisitions, which skip the rank-inversion check (a
/// failed try_lock cannot deadlock) but still feed the pair graph.
void OnAcquire(const Mutex& mu, bool blocking, const char* file, int line);
void OnRelease(const Mutex& mu);

/// Number of locks the calling thread currently holds (test hook).
int HeldCount();
#endif
}  // namespace deadlock

/// Annotated exclusive mutex. Prefer MutexLock over manual Lock/Unlock.
///
/// Long-lived mutexes must be constructed with a LockRank and a stable
/// dotted name ("metrics.registry"); the default constructor is reserved
/// for short-lived scratch locks (rank checks are skipped, but recursive
/// acquisition is still caught under PSO_DEADLOCK_CHECK).
class PSO_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if PSO_DEADLOCK_CHECK
  explicit constexpr Mutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}

  void Lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) PSO_ACQUIRE() {
    // Check before blocking: a true deadlock would otherwise hang the
    // process before the witness could be reported.
    deadlock::OnAcquire(*this, /*blocking=*/true, file, line);
    mu_.lock();
  }
  void Unlock() PSO_RELEASE() {
    deadlock::OnRelease(*this);
    mu_.unlock();
  }
  bool TryLock(const char* file = __builtin_FILE(),
               int line = __builtin_LINE()) PSO_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    deadlock::OnAcquire(*this, /*blocking=*/false, file, line);
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }  // nullptr when unranked
#else
  explicit constexpr Mutex(LockRank /*rank*/, const char* /*name*/) {}

  void Lock() PSO_ACQUIRE() { mu_.lock(); }
  void Unlock() PSO_RELEASE() { mu_.unlock(); }
  bool TryLock() PSO_TRY_ACQUIRE(true) { return mu_.try_lock(); }
#endif

 private:
  friend class CondVar;
  std::mutex mu_;
#if PSO_DEADLOCK_CHECK
  const LockRank rank_ = LockRank::kUnranked;
  const char* const name_ = nullptr;
#endif
};

/// RAII scoped lock (lock_guard shape: held for the full scope).
class PSO_SCOPED_CAPABILITY MutexLock {
 public:
#if PSO_DEADLOCK_CHECK
  explicit MutexLock(Mutex& mu, const char* file = __builtin_FILE(),
                     int line = __builtin_LINE()) PSO_ACQUIRE(mu)
      : mu_(mu) {
    mu_.Lock(file, line);
  }
#else
  explicit MutexLock(Mutex& mu) PSO_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
#endif
  ~MutexLock() PSO_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with pso::Mutex. Wait() atomically releases
/// and reacquires the mutex, which the annotations model as "requires
/// `mu` held across the call". Write predicate loops inline so the
/// analysis sees the guarded reads under the lock:
///
///   MutexLock lock(mu_);
///   while (queue_.empty() && !shutdown_) cv_.Wait(mu_);
///
/// Under PSO_DEADLOCK_CHECK the mutex stays on the waiter's held-lock
/// stack across the wait (the release/reacquire pair inside the CV is
/// invisible to the verifier, and by the time Wait returns the stack is
/// accurate again).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. `mu` must be held; it is released while
  /// blocked and reacquired before returning.
  void Wait(Mutex& mu) PSO_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // caller's MutexLock still owns the mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pso

#endif  // PSO_COMMON_MUTEX_H_
