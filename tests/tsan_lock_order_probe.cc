// Proves that the one lock-order check on pso::Mutex is alive: under
// ThreadSanitizer, two mutexes taken in opposite orders must produce a
// lock-order-inversion report even though the two threads never run at
// the same time (TSan checks the order, not a live deadlock). ctest
// passes the test only when that report appears. Off TSan there is
// nothing to check, and the probe exits 77 (skipped).
//
// The probe never prints the report text itself, so only TSan can make
// it pass.

#include <cstdio>
#include <thread>

#include "common/mutex.h"

#if defined(__SANITIZE_THREAD__)
#define PSO_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSO_TSAN_BUILD 1
#endif
#endif

int main() {
#ifndef PSO_TSAN_BUILD
  std::puts("not a ThreadSanitizer build (-DPSO_SANITIZE=thread): skipped");
  return 77;
#else
  pso::Mutex first;
  pso::Mutex second;
  std::thread forward([&] {
    pso::MutexLock a(first);
    pso::MutexLock b(second);
  });
  forward.join();
  std::thread backward([&] {
    pso::MutexLock b(second);
    pso::MutexLock a(first);
  });
  backward.join();
  return 0;
#endif
}
