// Tests for solver liveness: the deterministic work-count cadence, the
// heartbeat instant's args, the engines' final beat (tiny budgets still
// leave evidence, no work leaves none), and the counters the solvers
// publish to the registry while they run. The live-counter tests read
// the registry from one thread while another solves, so this suite also
// runs in the TSan `parallel` lane.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/progress.h"
#include "common/rng.h"
#include "common/trace.h"
#include "recon/attacks.h"
#include "recon/oracle.h"
#include "solver/sat.h"

namespace pso {
namespace {

// RAII enable/disable so a failing test cannot leak tracing into others.
struct ScopedTracing {
  ScopedTracing() { trace::Collector::Global().Enable(); }
  ~ScopedTracing() { trace::Collector::Global().Disable(); }
};

// The "phase" arg ("tick" / "final") of every progress.heartbeat instant.
std::vector<std::string> HeartbeatPhases(
    const std::vector<trace::Event>& events) {
  std::vector<std::string> phases;
  for (const trace::Event& e : events) {
    if (e.name != "progress.heartbeat") continue;
    for (const auto& [k, v] : e.args) {
      if (k == "phase") phases.push_back(v);
    }
  }
  return phases;
}

// Pigeonhole: `pigeons` pigeons in `pigeons - 1` holes. Unsatisfiable,
// and CDCL needs exponentially many conflicts to prove it.
SatSolver Pigeonhole(uint32_t pigeons) {
  const uint32_t holes = pigeons - 1;
  SatSolver solver(pigeons * holes);
  for (uint32_t p = 0; p < pigeons; ++p) {
    std::vector<Lit> somewhere;
    for (uint32_t h = 0; h < holes; ++h) {
      somewhere.push_back(MakeLit(p * holes + h, true));
    }
    solver.AddClause(somewhere);
  }
  for (uint32_t h = 0; h < holes; ++h) {
    for (uint32_t p1 = 0; p1 < pigeons; ++p1) {
      for (uint32_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        solver.AddBinary(MakeLit(p1 * holes + h, false),
                         MakeLit(p2 * holes + h, false));
      }
    }
  }
  return solver;
}

// Runs `solve` on another thread while this one polls counter `name`.
// Returns the smallest value seen above `before` (0 if none), which the
// caller compares with the final total: a value strictly between the two
// was published while the solve was running.
template <class Solve>
uint64_t SmallestValueSeenWhileSolving(const std::string& name,
                                       uint64_t before, Solve solve) {
  metrics::Counter& counter = metrics::GetCounter(name);
  std::atomic<bool> done{false};
  std::thread solver([&] {
    solve();
    done.store(true, std::memory_order_release);
  });
  uint64_t smallest = 0;
  while (!done.load(std::memory_order_acquire)) {
    const uint64_t value = counter.value();
    if (value > before && (smallest == 0 || value < smallest)) {
      smallest = value;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  solver.join();
  return smallest;
}

TEST(HeartbeatTest, DueAtWorkCountCadence) {
  progress::Heartbeat beat(/*every=*/10);
  int beats = 0;
  for (uint64_t work = 1; work <= 35; ++work) {
    if (beat.Due(work)) ++beats;
  }
  // Boundaries crossed at 10, 20, 30 — deterministic in the work count,
  // independent of how long the loop took.
  EXPECT_EQ(beats, 3);
  EXPECT_EQ(beat.work(), 35u);
}

TEST(HeartbeatTest, BurstyWorkIsOneBeatNotABacklog) {
  progress::Heartbeat beat(/*every=*/10);
  EXPECT_TRUE(beat.Due(95));   // one jump over nine boundaries
  EXPECT_FALSE(beat.Due(99));  // next boundary is 100, not 20
  EXPECT_TRUE(beat.Due(100));
}

TEST(HeartbeatTest, WorkBelowTheCadenceIsStillRecorded) {
  // A solve that stops before its first boundary (tiny budget) still
  // owes a final beat: work() says how far it got.
  progress::Heartbeat beat(/*every=*/1000);
  EXPECT_FALSE(beat.Due(3));
  EXPECT_EQ(beat.work(), 3u);
}

TEST(HeartbeatTest, NoWorkRecordsNothing) {
  progress::Heartbeat beat(/*every=*/10);
  EXPECT_EQ(beat.work(), 0u);
}

TEST(HeartbeatTest, InstantCarriesEngineAndStats) {
  ScopedTracing tracing;
  progress::EmitInstant("cdcl", "tick", 5,
                        {{"conflicts", 5.0}, {"objective", 0.25}});
  std::vector<trace::Event> events = trace::Collector::Global().TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "progress.heartbeat");
  const std::vector<std::pair<std::string, std::string>> want = {
      {"engine", "cdcl"}, {"phase", "tick"},  {"work", "5"},
      {"conflicts", "5"}, {"objective", "0.25"}};
  EXPECT_EQ(events[0].args, want);
}

TEST(HeartbeatTest, EngineEmitsFinalBeatForTinyBudgets) {
  ScopedTracing tracing;
  // Three decisions stay below the 64-unit CDCL cadence.
  auto solved = Pigeonhole(6).Solve(/*max_decisions=*/3);
  EXPECT_FALSE(solved.ok());
  EXPECT_EQ(HeartbeatPhases(trace::Collector::Global().TakeEvents()),
            std::vector<std::string>{"final"});
}

TEST(HeartbeatTest, EngineWithoutWorkEmitsNoBeat) {
  ScopedTracing tracing;
  SatSolver solver(2);  // decided by unit propagation alone
  solver.AddClause({MakeLit(0, true)});
  solver.AddClause({MakeLit(0, false), MakeLit(1, true)});
  auto solved = solver.Solve();
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved->satisfiable);
  EXPECT_TRUE(HeartbeatPhases(trace::Collector::Global().TakeEvents())
                  .empty());
}

TEST(LiveCountersTest, LpPivotsRiseDuringTheSolve) {
  const size_t n = 512;  // about 1,300 dual pivots: five heartbeats
  Rng rng(7);
  const std::vector<uint8_t> secret = recon::RandomBits(n, rng);
  std::vector<recon::SubsetQuery> queries(5 * n);
  std::vector<double> answers;
  for (recon::SubsetQuery& q : queries) {
    q.resize(n);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      q[i] = rng.Bernoulli(0.5) ? 1 : 0;
      sum += q[i] * secret[i];
    }
    answers.push_back(sum);  // exact answers
  }
  metrics::Counter& pivots = metrics::GetCounter("lp.pivots");
  const uint64_t before = pivots.value();
  const uint64_t seen =
      SmallestValueSeenWhileSolving("lp.pivots", before, [&] {
        auto decoded = recon::LpDecodeRecorded(n, queries, answers);
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(recon::FractionAgree(decoded->estimate, secret), 1.0);
      });
  const uint64_t after = pivots.value();
  EXPECT_GT(seen, before);
  EXPECT_LT(seen, after) << "lp.pivots moved only when the solve returned";
}

TEST(LiveCountersTest, SatConflictsRiseDuringTheSolve) {
  const SatSolver solver = Pigeonhole(9);  // about a second of search
  metrics::Counter& conflicts = metrics::GetCounter("sat.conflicts");
  const uint64_t before = conflicts.value();
  const uint64_t seen =
      SmallestValueSeenWhileSolving("sat.conflicts", before, [&] {
        auto solved = solver.Solve();
        ASSERT_TRUE(solved.ok());
        EXPECT_FALSE(solved->satisfiable);
      });
  const uint64_t after = conflicts.value();
  EXPECT_GT(seen, before);
  EXPECT_LT(seen, after) << "sat.conflicts moved only when the solve returned";
}

}  // namespace
}  // namespace pso
