// Tests for the count-constraint CSP solver.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>

#include "csp_brute_force.h"
#include "solver/csp.h"

namespace pso {
namespace {

// One bit per element, in order: Mask({false, true}) is {1} over a domain
// of two.
BitVector Mask(std::initializer_list<bool> bits) {
  BitVector mask(bits.size());
  size_t i = 0;
  for (bool bit : bits) {
    if (bit) mask.Set(i);
    ++i;
  }
  return mask;
}

TEST(CspTest, UnconstrainedEnumeratesMultisets) {
  // 2 variables over 3 values: C(3+2-1, 2) = 6 multisets.
  CountCsp csp(2, 3);
  CspStats stats;
  auto sols = csp.Enumerate(100, 100000, &stats);
  EXPECT_EQ(sols.size(), 6u);
  EXPECT_TRUE(stats.complete);
  for (const auto& s : sols) {
    ASSERT_EQ(s.size(), 2u);
    EXPECT_LE(s[0], s[1]);  // symmetry-broken: non-decreasing
  }
}

TEST(CspTest, ExactCountPinsSolution) {
  // 3 vars over {0,1}; exactly two 1s -> unique multiset {0,1,1}.
  CountCsp csp(3, 2);
  const BitVector ones = Mask({false, true});
  csp.AddCountConstraint(&ones, 2, 2);
  CspStats stats;
  auto sols = csp.Enumerate(10, 100000, &stats);
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0], (std::vector<size_t>{0, 1, 1}));
  EXPECT_TRUE(stats.complete);
}

TEST(CspTest, MultipleConstraintsIntersect) {
  // 4 vars over {0,1,2}; exactly one 0, exactly one 1 => {0,1,2,2}.
  CountCsp csp(4, 3);
  const BitVector zeros = Mask({true, false, false});
  const BitVector ones = Mask({false, true, false});
  csp.AddCountConstraint(&zeros, 1, 1);
  csp.AddCountConstraint(&ones, 1, 1);
  CspStats stats;
  auto sols = csp.Enumerate(10, 100000, &stats);
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0], (std::vector<size_t>{0, 1, 2, 2}));
}

TEST(CspTest, InfeasibleHasNoSolutions) {
  CountCsp csp(2, 2);
  // Three 1s from two variables.
  const BitVector ones = Mask({false, true});
  csp.AddCountConstraint(&ones, 3, 3);
  CspStats stats;
  auto sols = csp.Enumerate(10, 100000, &stats);
  EXPECT_TRUE(sols.empty());
  EXPECT_TRUE(stats.complete);
}

TEST(CspTest, IntervalConstraintsWidenSolutionSpace) {
  const BitVector ones = Mask({false, true});
  CountCsp exact(3, 2);
  exact.AddCountConstraint(&ones, 1, 1);
  CountCsp slack(3, 2);
  slack.AddCountConstraint(&ones, 0, 2);
  CspStats s1;
  CspStats s2;
  auto e = exact.Enumerate(100, 100000, &s1);
  auto w = slack.Enumerate(100, 100000, &s2);
  EXPECT_LT(e.size(), w.size());
}

TEST(CspTest, SolutionCapReported) {
  CountCsp csp(3, 4);  // 20 multisets
  CspStats stats;
  auto sols = csp.Enumerate(5, 100000, &stats);
  EXPECT_EQ(sols.size(), 5u);
  EXPECT_FALSE(stats.complete);
}

TEST(CspTest, NodeCapReported) {
  CountCsp csp(6, 6);
  CspStats stats;
  csp.Enumerate(100000, 10, &stats);
  EXPECT_FALSE(stats.complete);
  EXPECT_LE(stats.nodes, 11u);
}

TEST(CspTest, PruningCutsSearch) {
  // A constraint violated at depth 1 should keep node count tiny compared
  // to the full tree.
  CountCsp csp(4, 10);
  const BitVector all =
      Mask({true, true, true, true, true, true, true, true, true, true});
  csp.AddCountConstraint(&all, 0, 0);  // impossible
  CspStats stats;
  auto sols = csp.Enumerate(10, 1000000, &stats);
  EXPECT_TRUE(sols.empty());
  EXPECT_LT(stats.nodes, 50u);
}

TEST(CspTest, SingleVariable) {
  CountCsp csp(1, 5);
  const BitVector three = Mask({false, false, false, true, false});
  csp.AddCountConstraint(&three, 1, 1);
  CspStats stats;
  auto sols = csp.Enumerate(10, 1000, &stats);
  ASSERT_EQ(sols.size(), 1u);
  EXPECT_EQ(sols[0][0], 3u);
}

TEST(CspTest, IsSolutionChecksEveryWindow) {
  // 3 vars over {0,1,2}: one or two 1s, and no 2s.
  CountCsp csp(3, 3);
  const BitVector ones = Mask({false, true, false});
  const BitVector twos = Mask({false, false, true});
  csp.AddCountConstraint(&ones, 1, 2);
  csp.AddCountConstraint(&twos, 0, 0);
  EXPECT_EQ(csp.Candidates(), (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(csp.IsSolution({1, 0, 1}));
  EXPECT_FALSE(csp.IsSolution({0, 0, 0}));  // below lo
  EXPECT_FALSE(csp.IsSolution({1, 1, 1}));  // above hi
  EXPECT_FALSE(csp.IsSolution({1, 0, 2}));  // in a zero window
  EXPECT_FALSE(csp.IsSolution({1, 0}));     // one value short
  EXPECT_FALSE(csp.IsSolution({1, 0, 3}));  // outside the domain
}

// Property: solutions returned always satisfy every constraint.
class CspVerifyTest : public ::testing::TestWithParam<int> {};

TEST_P(CspVerifyTest, SolutionsSatisfyConstraints) {
  const int seed = GetParam();
  const size_t vars = 4 + seed % 3;
  const size_t domain = 5;
  // The CSP borrows its masks; reserved, so none moves while it lives.
  std::vector<BitVector> masks;
  masks.reserve(3);
  CountCsp csp(vars, domain);
  // Deterministic pseudo-random constraints from the seed.
  std::vector<std::pair<int64_t, int64_t>> bounds;
  for (int c = 0; c < 3; ++c) {
    BitVector& mask = masks.emplace_back(domain);
    for (size_t v = 0; v < domain; ++v) {
      if ((seed * 7 + c * 13 + static_cast<int>(v) * 31) % 3 == 0) {
        mask.Set(v);
      }
    }
    int64_t lo = c % 2;
    int64_t hi = lo + 2;
    csp.AddCountConstraint(&mask, lo, hi);
    bounds.emplace_back(lo, hi);
  }
  CspStats stats;
  auto sols = csp.Enumerate(50, 500000, &stats);
  for (const auto& sol : sols) {
    EXPECT_TRUE(csp.IsSolution(sol));
    for (size_t c = 0; c < masks.size(); ++c) {
      int64_t count = 0;
      for (size_t v : sol) count += masks[c].Test(v) ? 1 : 0;
      EXPECT_GE(count, bounds[c].first);
      EXPECT_LE(count, bounds[c].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CspVerifyTest, ::testing::Range(0, 10));

// Packed masks at 64-bit word boundaries: domains ending just before, at
// and just after a word, and one spanning three words. Solution counts
// come from the brute-force oracle; node counts are pinned, since the
// search must not depend on how masks are stored.
struct WordEdgeCase {
  size_t domain;
  bool zero_window;  ///< Add the hi == 0 constraint on the last word.
  size_t solutions;
  size_t nodes;
};

class CspWordEdgeTest : public ::testing::TestWithParam<WordEdgeCase> {};

TEST_P(CspWordEdgeTest, MatchesBruteForce) {
  const WordEdgeCase& param = GetParam();
  const size_t d = param.domain;
  CspCase c{/*num_vars=*/3, d, {}};
  const auto mask = [d](std::initializer_list<size_t> bits) {
    BitVector m(d);
    for (size_t v : bits) {
      if (v < d) m.Set(v);
    }
    return m;
  };
  // Bits 63, 64 and the last bit.
  c.counts.push_back({mask({63, 64, d - 1}), 1, 2});
  // Every third value, so the mask fills every word.
  BitVector thirds(d);
  for (size_t v = 0; v < d; v += 3) thirds.Set(v);
  c.counts.push_back({thirds, 0, 1});
  c.counts.push_back({mask({0, 64, d - 2}), 1, 3});
  // A zero window hitting only the partial last word (none when the
  // domain fills its last word). When that word holds just the last bit,
  // the variant without it is what keeps the last bit a live candidate.
  const size_t last_word_start = (d - 1) / 64 * 64;
  const size_t zero_bit = std::max(last_word_start, d - 2);
  const bool blocked = param.zero_window && d % 64 != 0;
  if (blocked) c.counts.push_back({mask({zero_bit}), 0, 0});

  CountCsp csp(c.num_vars, d);
  for (const CspCase::Count& count : c.counts) {
    csp.AddCountConstraint(&count.match, count.lo, count.hi);
  }
  ASSERT_TRUE(csp.build_status().ok());
  CspStats stats;
  auto sols = csp.Enumerate(/*max_solutions=*/1000000,
                            /*max_nodes=*/10000000, &stats);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(sols.size(), BruteForceCspSolutions(c));
  EXPECT_EQ(sols.size(), param.solutions);
  EXPECT_EQ(stats.nodes, param.nodes);
  for (const auto& sol : sols) {
    for (size_t v : sol) EXPECT_FALSE(blocked && v == zero_bit);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Domains, CspWordEdgeTest,
    ::testing::Values(WordEdgeCase{63, true, 41, 32206},
                      WordEdgeCase{64, true, 42, 35002},
                      WordEdgeCase{65, true, 903, 35002},
                      WordEdgeCase{129, true, 7392, 270597},
                      WordEdgeCase{63, false, 104, 34055},
                      WordEdgeCase{65, false, 2793, 36958},
                      WordEdgeCase{129, false, 7730, 278161}),
    [](const auto& info) {
      return "Domain" + std::to_string(info.param.domain) +
             (info.param.zero_window ? "ZeroWindow" : "");
    });

}  // namespace
}  // namespace pso
