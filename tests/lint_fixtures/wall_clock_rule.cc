// pso-lint-fixture-path: src/example/wall_clock_rule.cc
//
// Fixture for the `wall-clock` rule: calendar time leaks run-dependent
// values into library output. Monotonic clocks (steady_clock,
// high_resolution_clock) are confined to the timing facade
// (src/common/{metrics,trace,parallel}); outside it they need
// an explicit allow so latency measurement has one recording path.
#include <chrono>
#include <ctime>

long Bad() {
  std::time_t t = time(nullptr);                     // lint-expect: wall-clock
  long c = clock();                                  // lint-expect: wall-clock
  auto now = std::chrono::system_clock::now();       // lint-expect: wall-clock
  return static_cast<long>(t) + c + now.time_since_epoch().count();
}

long BadMonotonic() {
  auto a = std::chrono::steady_clock::now();         // lint-expect: wall-clock
  auto b =
      std::chrono::high_resolution_clock::now();     // lint-expect: wall-clock
  return (b.time_since_epoch() - a.time_since_epoch()).count();
}

long Suppressed() {
  long t = static_cast<long>(time(nullptr));  // pso-lint: allow(wall-clock)
  auto a = std::chrono::steady_clock::now();  // pso-lint: allow(wall-clock)
  return t + a.time_since_epoch().count();
}

long Clean() {
  // Identifiers containing "time"/"clock" as substrings never fire:
  long wall_time(long);
  long my_clock_skew = 0;
  return wall_time(my_clock_skew);
}
