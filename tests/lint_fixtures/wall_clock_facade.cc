// pso-lint-fixture-path: src/common/metrics.cc
//
// Negative fixture for the monotonic half of the `wall-clock` rule: the
// timing facade (src/common/{metrics,trace,parallel}) may read
// steady_clock / high_resolution_clock directly — that is where latency
// recording is implemented. Calendar time stays forbidden even here.
// The match is exact on the stem: src/common/metrics_helper.cc would
// NOT be exempt.
#include <chrono>
#include <ctime>

double FacadeTimer() {
  auto a = std::chrono::steady_clock::now();          // allowed: facade
  auto b = std::chrono::high_resolution_clock::now();  // allowed: facade
  return std::chrono::duration<double>(b.time_since_epoch() -
                                       a.time_since_epoch())
      .count();
}

long StillBad() {
  return static_cast<long>(time(nullptr));           // lint-expect: wall-clock
}
