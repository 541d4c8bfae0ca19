// Tests for the runtime lock-order verifier (-DPSO_DEADLOCK_CHECK=ON,
// common/mutex.h). Violations abort, so the negative cases are death
// tests: each asserts the witness chain names the mutexes involved and
// the acquisition sites. In builds without the verifier the whole suite
// self-skips — the `deadlock-check` CI lane (and the TSan lane) build
// with the option ON.

#include <cstdint>

#include "common/lock_rank.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "dp/budget.h"
#include "gtest/gtest.h"

namespace pso {
namespace {

#if PSO_DEADLOCK_CHECK

TEST(DeadlockCheckTest, DescendingRankAcquisitionRuns) {
  // Static storage: on the stack these could reuse the addresses of the
  // mutexes ObservedPairCycleDies locks in the opposite order, and
  // ThreadSanitizer, which never sees a std::mutex destroyed, would report
  // that as a lock-order inversion.
  static Mutex budget_mu{LockRank::kBudget, "test.order_budget"};
  static Mutex log_mu{LockRank::kLog, "test.order_log"};
  static Mutex metrics_mu{LockRank::kMetrics, "test.order_metrics"};
  EXPECT_EQ(deadlock::HeldCount(), 0);
  {
    MutexLock budget(budget_mu);
    MutexLock log(log_mu);
    MutexLock metrics(metrics_mu);
    EXPECT_EQ(deadlock::HeldCount(), 3);
  }
  EXPECT_EQ(deadlock::HeldCount(), 0);
}

TEST(DeadlockCheckTest, ReacquisitionAfterReleaseRuns) {
  Mutex high_mu{LockRank::kBudget, "test.seq_high"};
  Mutex low_mu{LockRank::kMetrics, "test.seq_low"};
  // Sequential (non-nested) acquisitions are order-free by definition.
  for (int i = 0; i < 3; ++i) {
    { MutexLock low(low_mu); }
    { MutexLock high(high_mu); }
  }
  EXPECT_EQ(deadlock::HeldCount(), 0);
}

TEST(DeadlockCheckDeathTest, RankInversionDiesNamingBothMutexes) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex budget_mu{LockRank::kBudget, "test.inv_budget"};
  Mutex metrics_mu{LockRank::kMetrics, "test.inv_metrics"};
  // Acquiring budget (rank 4) under metrics (rank 1) inverts the global
  // order. The witness head line must name both mutexes and both ranks.
  EXPECT_DEATH(
      {
        MutexLock metrics(metrics_mu);
        MutexLock budget(budget_mu);
      },
      "lock-rank inversion: acquiring 'test\\.inv_budget' \\(rank budget\\) "
      "while holding 'test\\.inv_metrics' \\(rank metrics\\)");
}

TEST(DeadlockCheckDeathTest, WitnessNamesHeldAcquisitionSites) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex budget_mu{LockRank::kBudget, "test.site_budget"};
  Mutex metrics_mu{LockRank::kMetrics, "test.site_metrics"};
  // The held-lock stack in the witness carries the file:line of every
  // held acquisition — this file, since MutexLock captures its caller.
  EXPECT_DEATH(
      {
        MutexLock metrics(metrics_mu);
        MutexLock budget(budget_mu);
      },
      "held\\[0\\]: 'test\\.site_metrics' \\(rank metrics\\) acquired at "
      ".*deadlock_test\\.cc:[0-9]+");
}

TEST(DeadlockCheckDeathTest, SameRankNestingDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex first_mu{LockRank::kParallel, "test.peer_a"};
  Mutex second_mu{LockRank::kParallel, "test.peer_b"};
  // Equal ranks are unordered: nesting them is rejected, since another
  // thread could nest them the other way around.
  EXPECT_DEATH(
      {
        MutexLock first(first_mu);
        MutexLock second(second_mu);
      },
      "lock-rank inversion: acquiring 'test\\.peer_b' \\(rank parallel\\) "
      "while holding 'test\\.peer_a' \\(rank parallel\\)");
}

TEST(DeadlockCheckDeathTest, RecursiveAcquisitionDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu{LockRank::kMetrics, "test.recursive"};
  EXPECT_DEATH(
      {
        MutexLock outer(mu);
        MutexLock inner(mu);
      },
      "recursive acquisition: 'test\\.recursive' is already held");
}

TEST(DeadlockCheckDeathTest, ObservedPairCycleDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Declared outside EXPECT_DEATH: the braced initializers hold commas,
  // which the preprocessor would split into extra macro arguments. The
  // threadsafe death-test child re-runs the whole test body, so the
  // legal-direction acquisition below is re-observed there too.
  Mutex low_mu{LockRank::kMetrics, "test.cyc_low"};
  Mutex high_mu{LockRank::kBudget, "test.cyc_high"};
  {
    // Legal direction, recorded in the global pair graph.
    MutexLock high(high_mu);
    MutexLock low(low_mu);
  }
  EXPECT_DEATH(
      {
        // TryLock skips the rank check (a failed try_lock cannot block),
        // but the graph still sees low -> high contradict high -> low.
        MutexLock low(low_mu);
        if (high_mu.TryLock()) high_mu.Unlock();
      },
      "lock-order cycle: acquiring 'test\\.cyc_high' while holding "
      "'test\\.cyc_low'");
}

TEST(DeadlockCheckTest, RealModulesRunCleanUnderVerifier) {
  // Drive the production nesting (service work -> budget ledger ->
  // metrics/log) through the real classes at several thread counts; the
  // verifier aborts the test on any ordering violation.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    ThreadPool pool(threads);
    dp::BudgetLedger ledger(1.0);
    ParallelFor(&pool, 64, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const uint64_t client = i % 8;
        Result<uint64_t> charged = ledger.Charge(client, 0.05);
        metrics::GetCounter("deadlock_test.charges").Add(1);
        if (!charged.ok()) {
          metrics::GetCounter("deadlock_test.rejections").Add(1);
        }
      }
    });
    EXPECT_EQ(ledger.TotalAnswered() + ledger.TotalRejected(), 64u);
  }
  EXPECT_EQ(deadlock::HeldCount(), 0);
}

#else  // !PSO_DEADLOCK_CHECK

TEST(DeadlockCheckTest, VerifierCompiledOut) {
  GTEST_SKIP() << "build with -DPSO_DEADLOCK_CHECK=ON to run the "
                  "lock-order verifier tests";
}

#endif  // PSO_DEADLOCK_CHECK

}  // namespace
}  // namespace pso
