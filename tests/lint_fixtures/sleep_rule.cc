// Fixture for the `sleep` rule: no sleep_for/usleep-style polling in
// src/ outside src/common/. A sleep loop cannot be interrupted by
// notify/shutdown and turns every state change into worst-case latency;
// wait on a pso::CondVar instead.
// pso-lint-fixture-path: src/solver/sleep_fixture.cc

#include <atomic>
#include <chrono>
#include <thread>

namespace pso {

void PollWithSleepFor(const std::atomic<bool>& done) {
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));  // lint-expect: sleep
  }
}

void PollWithSleepUntil(std::chrono::steady_clock::time_point deadline) {  // pso-lint: allow(wall-clock)
  std::this_thread::sleep_until(deadline);  // lint-expect: sleep
}

void PollWithUsleep() {
  usleep(1000);  // lint-expect: sleep
}

// `sleep` must match as a call token, not as a substring.
void RecordSleepiness(double sleep_score);

void SuppressedBackoff() {
  // Justified suppressions stay possible (e.g. backoff in a signal-free
  // context), but need the inline comment.
  std::this_thread::sleep_for(std::chrono::seconds(1));  // pso-lint: allow(sleep)
}

}  // namespace pso
