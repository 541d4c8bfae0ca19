// Fixture for the `blocking-under-lock` rule: outside src/common/, no
// Wait / WaitFor / Submit / recv / accept while a MutexLock is held.
// Blocking (or queueing onto a pool) under a lock is how lock-order
// cycles start; shrink the critical section instead.
// pso-lint-fixture-path: src/service/blocking_under_lock_fixture.cc

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/parallel.h"

namespace pso {

class Handler {
 public:
  void WaitUnderLock() {
    MutexLock lock(mu_);
    while (pending_ != 0) cv_.Wait(mu_);  // lint-expect: blocking-under-lock
  }

  void TimedWaitUnderLock() {
    MutexLock lock(mu_);
    cv_.WaitFor(mu_, default_timeout_);  // lint-expect: blocking-under-lock
  }

  void SubmitUnderLock(ThreadPool* pool) {
    MutexLock lock(mu_);
    pool->Submit([] {});  // lint-expect: blocking-under-lock
  }

  void SocketCallsUnderLock(int fd, char* buf, unsigned long len) {
    MutexLock lock(mu_);
    recv(fd, buf, len, 0);  // lint-expect: blocking-under-lock
    accept(fd, nullptr, nullptr);  // lint-expect: blocking-under-lock
  }

  void ShrunkCriticalSection(ThreadPool* pool) {
    {
      MutexLock lock(mu_);
      ++pending_;
    }
    pool->Submit([] {});  // lock already released: fine
  }

  void SuppressedHandoff() {
    MutexLock lock(mu_);
    cv_.Wait(mu_);  // pso-lint: allow(blocking-under-lock)
  }

 private:
  Mutex mu_ PSO_LOCK_ORDER(kBudget){LockRank::kBudget, "fixture.blocking"};
  CondVar cv_;
  int pending_ PSO_GUARDED_BY(mu_) = 0;
  std::chrono::milliseconds default_timeout_{5};
};

}  // namespace pso
