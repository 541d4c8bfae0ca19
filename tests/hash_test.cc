// Tests for the universal hash family underlying the leftover-hash-lemma
// predicates.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/hash.h"
#include "common/rng.h"

namespace pso {
namespace {

TEST(MixTest, DeterministicAndSpread) {
  EXPECT_EQ(MixUint64(42), MixUint64(42));
  EXPECT_NE(MixUint64(42), MixUint64(43));
  // Nearby inputs land far apart (avalanche sanity).
  uint64_t d = MixUint64(1) ^ MixUint64(2);
  int bits = __builtin_popcountll(d);
  EXPECT_GT(bits, 16);
  EXPECT_LT(bits, 48);
}

TEST(HashCombineTest, OrderSensitive) {
  uint64_t ab = HashCombine(HashCombine(0, 1), 2);
  uint64_t ba = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(HashBytesTest, BasicProperties) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(UniversalHashTest, EvalInRange) {
  Rng rng(5);
  UniversalHash h(rng, 17);
  for (uint64_t x = 0; x < 1000; ++x) EXPECT_LT(h.Eval(x), 17u);
}

TEST(UniversalHashTest, BucketLoadsAreBalanced) {
  Rng rng(7);
  const uint64_t kRange = 10;
  UniversalHash h(rng, kRange);
  std::vector<int> counts(kRange, 0);
  const int kKeys = 100000;
  for (int x = 0; x < kKeys; ++x) ++counts[h.Eval(MixUint64(x))];
  for (int c : counts) EXPECT_NEAR(c, kKeys / 10, 800);
}

TEST(UniversalHashTest, PairwiseCollisionRateNearOneOverM) {
  // Across random (a, b), Pr[h(x) == h(y)] should be ~ 1/m for x != y.
  Rng rng(11);
  const uint64_t kRange = 64;
  const int kFamilies = 20000;
  int collisions = 0;
  for (int i = 0; i < kFamilies; ++i) {
    UniversalHash h(rng, kRange);
    if (h.Eval(123456789) == h.Eval(987654321)) ++collisions;
  }
  double rate = collisions / static_cast<double>(kFamilies);
  EXPECT_NEAR(rate, 1.0 / kRange, 0.006);
}

// Property sweep over ranges: design weight of bucket 0 is ~ 1/range for
// high-entropy keys.
class HashWeightTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashWeightTest, BucketZeroWeightMatchesDesign) {
  const uint64_t range = GetParam();
  Rng rng(13);
  UniversalHash h(rng, range);
  const int kKeys = 200000;
  int hits = 0;
  Rng keys(17);
  for (int i = 0; i < kKeys; ++i) {
    if (h.Eval(keys.NextUint64()) == 0) ++hits;
  }
  double w = hits / static_cast<double>(kKeys);
  double design = 1.0 / static_cast<double>(range);
  EXPECT_NEAR(w, design, 4.0 * std::sqrt(design / kKeys) + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Ranges, HashWeightTest,
                         ::testing::Values(2, 5, 16, 100, 1024));

}  // namespace
}  // namespace pso
