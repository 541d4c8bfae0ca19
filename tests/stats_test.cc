// Tests for statistics utilities and the baseline isolation curve of
// Section 2.2.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/stats.h"

namespace pso {
namespace {

// An estimator that has seen `successes` out of `trials`.
BernoulliEstimator Observed(size_t successes, size_t trials) {
  BernoulliEstimator e;
  for (size_t i = 0; i < trials; ++i) e.Add(i < successes);
  return e;
}

// `e` has the rate and interval of `successes` out of `trials`: the
// interval pins the trial count, the rate then pins the successes.
void ExpectCounts(const BernoulliEstimator& e, size_t successes,
                  size_t trials) {
  const BernoulliEstimator want = Observed(successes, trials);
  EXPECT_EQ(e.rate(), want.rate());
  EXPECT_EQ(e.WilsonInterval().lo, want.WilsonInterval().lo);
  EXPECT_EQ(e.WilsonInterval().hi, want.WilsonInterval().hi);
}

TEST(RunningStatsTest, Mean) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

// Chunked accumulation (the parallel trial runner's merge step) must
// reproduce the single-stream statistics exactly.
TEST(RunningStatsTest, MergeMatchesSingleStream) {
  std::vector<double> xs;
  uint64_t state = 0x9E3779B97F4A7C15ull;  // cheap deterministic values
  for (int i = 0; i < 257; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    xs.push_back(static_cast<double>(state >> 11) / 9.0e15 - 0.5);
  }
  RunningStats whole;
  for (double x : xs) whole.Add(x);
  // Merge uneven chunks (including a chunk of size 1).
  RunningStats merged;
  size_t sizes[] = {100, 1, 56, 100};
  size_t pos = 0;
  for (size_t len : sizes) {
    RunningStats chunk;
    for (size_t i = 0; i < len; ++i) chunk.Add(xs[pos++]);
    merged.Merge(chunk);
  }
  ASSERT_EQ(pos, xs.size());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
}

TEST(RunningStatsTest, MergeEmptyChunksIsIdentity) {
  RunningStats s;
  s.Add(1.5);
  s.Add(-2.5);
  RunningStats empty;
  RunningStats copy = s;
  copy.Merge(empty);  // s + 0 = s
  EXPECT_DOUBLE_EQ(copy.mean(), s.mean());
  RunningStats other;  // 0 + s = s
  other.Merge(s);
  EXPECT_DOUBLE_EQ(other.mean(), s.mean());
  // The merged count is s's: one more observation moves the mean by a
  // third of its distance.
  other.Add(s.mean() + 3.0);
  EXPECT_DOUBLE_EQ(other.mean(), s.mean() + 1.0);
  RunningStats both;  // 0 + 0 = 0
  both.Merge(empty);
  EXPECT_DOUBLE_EQ(both.mean(), 0.0);
}

TEST(RunningStatsTest, MergeSingleElementChunks) {
  // Degenerate chunking: every chunk holds one observation.
  RunningStats merged;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    RunningStats one;
    one.Add(x);
    merged.Merge(one);
  }
  EXPECT_DOUBLE_EQ(merged.mean(), 5.0);
}

TEST(BernoulliEstimatorTest, MergeSumsCounts) {
  BernoulliEstimator a = Observed(3, 10);
  BernoulliEstimator b = Observed(5, 6);
  a.Merge(b);
  ExpectCounts(a, 8, 16);
  BernoulliEstimator empty;
  a.Merge(empty);
  ExpectCounts(a, 8, 16);
}

TEST(BernoulliEstimatorTest, RateAndBatch) {
  BernoulliEstimator e;
  e.Add(true);
  e.Add(false);
  e.Merge(Observed(3, 8));
  ExpectCounts(e, 4, 10);
  EXPECT_DOUBLE_EQ(e.rate(), 0.4);
}

TEST(BernoulliEstimatorTest, WilsonIntervalContainsRate) {
  BernoulliEstimator e = Observed(30, 100);
  Interval ci = e.WilsonInterval();
  EXPECT_LE(ci.lo, 0.3);
  EXPECT_GE(ci.hi, 0.3);
  EXPECT_GT(ci.lo, 0.2);
  EXPECT_LT(ci.hi, 0.42);
}

TEST(BernoulliEstimatorTest, WilsonAtZeroSuccesses) {
  BernoulliEstimator e = Observed(0, 1000);
  Interval ci = e.WilsonInterval();
  EXPECT_DOUBLE_EQ(ci.lo, 0.0);
  EXPECT_LT(ci.hi, 0.005);  // informative even with 0 hits
  EXPECT_GT(ci.hi, 0.0);
}

TEST(BernoulliEstimatorTest, WilsonShrinksWithTrials) {
  BernoulliEstimator small = Observed(5, 10);
  BernoulliEstimator large = Observed(500, 1000);
  EXPECT_LT(large.WilsonInterval().hi - large.WilsonInterval().lo,
            small.WilsonInterval().hi - small.WilsonInterval().lo);
}

TEST(BernoulliEstimatorTest, NoTrialsGivesVacuousInterval) {
  BernoulliEstimator e;
  Interval ci = e.WilsonInterval();
  EXPECT_DOUBLE_EQ(ci.lo, 0.0);
  EXPECT_DOUBLE_EQ(ci.hi, 1.0);
}

// Section 2.2: a weight-1/n predicate isolates with probability
// n * (1/n) * (1 - 1/n)^{n-1} -> 1/e ~ 37%; the paper computes ~37% for
// the birthday example with n = 365.
TEST(BaselineIsolationTest, BirthdayExampleIs37Percent) {
  double p = BaselineIsolationProbability(365, 1.0 / 365.0);
  EXPECT_NEAR(p, 0.3688, 5e-4);
}

TEST(BaselineIsolationTest, PeaksAtOneOverN) {
  const size_t n = 1000;
  double at_peak = BaselineIsolationProbability(n, 1.0 / n);
  EXPECT_GT(at_peak, BaselineIsolationProbability(n, 0.2 / n));
  EXPECT_GT(at_peak, BaselineIsolationProbability(n, 5.0 / n));
  EXPECT_NEAR(at_peak, std::exp(-1.0), 0.01);
}

TEST(BaselineIsolationTest, NegligibleWeightGivesNegligibleSuccess) {
  const size_t n = 1000;
  // At w = 1/n^2 the success is ~ 1/n.
  double p = BaselineIsolationProbability(n, 1.0 / (1000.0 * 1000.0));
  EXPECT_NEAR(p, 1e-3, 1e-4);
  // And it decays linearly with w below the peak.
  EXPECT_NEAR(BaselineIsolationProbability(n, 1e-8), 1e-5, 1e-6);
}

TEST(BaselineIsolationTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(BaselineIsolationProbability(0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(BaselineIsolationProbability(10, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(BaselineIsolationProbability(10, 1.0), 0.0);
}

// Heavy-weight predicates also fail to isolate (the "w = omega(log n / n)"
// side of the paper's dichotomy).
TEST(BaselineIsolationTest, HeavyPredicatesFailToo) {
  const size_t n = 1000;
  double heavy = BaselineIsolationProbability(n, 50.0 / n);
  EXPECT_LT(heavy, 1e-15);
}

// Property sweep: Wilson interval coverage across rates.
class WilsonCoverageTest : public ::testing::TestWithParam<double> {};

TEST_P(WilsonCoverageTest, IntervalBracketsTruthInExpectation) {
  double p = GetParam();
  // With k = round(p * n) observed, the interval must contain p.
  const size_t n = 400;
  BernoulliEstimator e = Observed(static_cast<size_t>(p * n), n);
  const Interval ci = e.WilsonInterval();
  EXPECT_TRUE(ci.lo <= p && p <= ci.hi) << "p=" << p << " not in interval";
}

INSTANTIATE_TEST_SUITE_P(Rates, WilsonCoverageTest,
                         ::testing::Values(0.0, 0.01, 0.1, 0.25, 0.5, 0.75,
                                           0.99, 1.0));

}  // namespace
}  // namespace pso
