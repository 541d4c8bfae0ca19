// pso::Mutex / pso::MutexLock / pso::CondVar: thin wrappers over the
// standard primitives that carry Clang thread-safety capability
// attributes (common/thread_annotations.h), so -Wthread-safety can check
// the locking discipline at compile time. Under GCC the attributes
// vanish and these are zero-cost aliases for std::mutex et al.
//
// Lock order: every pso::Mutex in src/ is a leaf. No code takes a
// second pso::Mutex while it holds one, so there is no global order to
// rank or verify. Code that must nest two mutexes says so in a comment
// where it does, naming both and the order; the TSan lane (ctest under
// -DPSO_SANITIZE=thread) reports any pair taken in both orders as a
// lock-order-inversion, and tests/tsan_lock_order_probe.cc proves it
// still does.
//
// All concurrent code in this repo uses these wrappers; bare std::mutex /
// std::condition_variable / std::thread outside src/common/ are rejected
// by tools/pso_lint.py (rule `bare-mutex`).

#ifndef PSO_COMMON_MUTEX_H_
#define PSO_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace pso {

/// Annotated exclusive mutex. Prefer MutexLock over manual Lock/Unlock.
class PSO_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PSO_ACQUIRE() { mu_.lock(); }
  void Unlock() PSO_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped lock (lock_guard shape: held for the full scope).
class PSO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PSO_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
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
