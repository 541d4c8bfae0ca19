// Tests for the mechanism zoo and the Theorem 2.7 incomposability pair.

#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.h"
#include "pso/adversaries.h"
#include "pso/game.h"
#include "pso/mechanisms.h"

namespace pso {
namespace {

Dataset SampleGic(size_t n, uint64_t seed) {
  Universe u = MakeGicMedicalUniverse(100);
  Rng rng(seed);
  return u.distribution.SampleDataset(n, rng);
}

TEST(MechanismOutputTest, TypedPayloads) {
  MechanismOutput out = MechanismOutput::Of(3.5);
  ASSERT_NE(out.As<double>(), nullptr);
  EXPECT_DOUBLE_EQ(*out.As<double>(), 3.5);
  EXPECT_EQ(out.As<int>(), nullptr);  // wrong type
  MechanismOutput empty;
  EXPECT_EQ(empty.As<double>(), nullptr);
}

TEST(CountMechanismTest, ExactCount) {
  Dataset x = SampleGic(200, 1);
  auto q = MakeAttributeEquals(3, 0, "sex");
  auto mech = MakeCountMechanism(q, "sex=F");
  Rng rng(2);
  MechanismOutput y = mech->Run(x, rng);
  ASSERT_NE(y.As<double>(), nullptr);
  EXPECT_DOUBLE_EQ(*y.As<double>(),
                   static_cast<double>(CountMatches(*q, x)));
  EXPECT_EQ(mech->Name(), "M#sex=F");
}

TEST(LaplaceCountMechanismTest, NoisyButCentered) {
  Dataset x = SampleGic(200, 3);
  auto q = MakeAttributeEquals(3, 0, "sex");
  double truth = static_cast<double>(CountMatches(*q, x));
  auto mech = MakeLaplaceCountMechanism(q, "sex=F", 1.0);
  Rng rng(4);
  RunningStats stats;
  RunningStats error;  // |answer - truth|
  for (int i = 0; i < 5000; ++i) {
    const double answer = *mech->Run(x, rng).As<double>();
    stats.Add(answer);
    error.Add(std::fabs(answer - truth));
  }
  EXPECT_NEAR(stats.mean(), truth, 0.2);
  // E|Lap(1/eps)| = 1/eps = 1.
  EXPECT_NEAR(error.mean(), 1.0, 0.1);
}

TEST(GeometricCountMechanismTest, IntegerOutputs) {
  Dataset x = SampleGic(100, 5);
  auto q = MakeAttributeEquals(3, 1, "sex");
  auto mech = MakeGeometricCountMechanism(q, "sex=M", 0.5);
  Rng rng(6);
  MechanismOutput y = mech->Run(x, rng);
  ASSERT_NE(y.As<double>(), nullptr);
  double v = *y.As<double>();
  EXPECT_DOUBLE_EQ(v, std::floor(v));  // integral
}

TEST(NoisyHistogramMechanismTest, OutputsPerBucket) {
  Dataset x = SampleGic(300, 7);
  auto mech = MakeNoisyHistogramMechanism(3, 1.0);  // sex histogram
  Rng rng(8);
  MechanismOutput y = mech->Run(x, rng);
  const auto* hist = y.As<std::vector<int64_t>>();
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->size(), 2u);
}

TEST(KAnonMechanismTest, ProducesAnonymizationResult) {
  Universe u = MakeGicMedicalUniverse(100);
  Dataset x = SampleGic(300, 9);
  auto mech = MakeKAnonymityMechanism(
      KAnonAlgorithm::kMondrian, 5, kanon::HierarchySet::Defaults(u.schema),
      {0, 1, 2, 3});
  Rng rng(10);
  MechanismOutput y = mech->Run(x, rng);
  const auto* result = y.As<kanon::AnonymizationResult>();
  ASSERT_NE(result, nullptr);
  for (const auto& cls : result->classes) EXPECT_GE(cls.size(), 5u);
  EXPECT_EQ(mech->Name(), "Mondrian(k=5)");
}

TEST(KAnonMechanismTest, InfeasibleYieldsEmptyOutput) {
  Universe u = MakeGicMedicalUniverse(100);
  Dataset x = SampleGic(3, 11);  // fewer rows than k
  auto mech = MakeKAnonymityMechanism(
      KAnonAlgorithm::kMondrian, 10,
      kanon::HierarchySet::Defaults(u.schema), {0, 1});
  Rng rng(12);
  const MechanismOutput y = mech->Run(x, rng);
  EXPECT_EQ(y.As<kanon::AnonymizationResult>(), nullptr);
}

TEST(BundleMechanismTest, RunsAllParts) {
  Dataset x = SampleGic(100, 13);
  auto q1 = MakeAttributeEquals(3, 0, "sex");
  auto q2 = MakeAttributeEquals(3, 1, "sex");
  auto mech = MakeBundleMechanism(
      {MakeCountMechanism(q1, "F"), MakeCountMechanism(q2, "M")});
  Rng rng(14);
  MechanismOutput y = mech->Run(x, rng);
  const auto* parts = y.As<std::vector<MechanismOutput>>();
  ASSERT_NE(parts, nullptr);
  ASSERT_EQ(parts->size(), 2u);
  double f = *(*parts)[0].As<double>();
  double m = *(*parts)[1].As<double>();
  EXPECT_DOUBLE_EQ(f + m, 100.0);
}

TEST(PadTest, EncryptDecryptRoundTrip) {
  uint64_t key = 0xdeadbeefcafef00dULL;
  for (int64_t v : {0LL, 1LL, 42LL, -7LL, 123456789LL}) {
    for (size_t pos : {0u, 1u, 5u}) {
      int64_t ct = PadValue(key, pos, v);
      EXPECT_EQ(PadValue(key, pos, ct), v);
      EXPECT_NE(ct, v);  // pad actually changes the value
    }
  }
}

TEST(PadTest, KeyDependsOnTailRecordsOnly) {
  Universe u = MakeGicMedicalUniverse(100);
  Rng rng(15);
  Dataset x = u.distribution.SampleDataset(10, rng);
  uint64_t k1 = DerivePadKey(x);
  // Changing record 0 must not change the key (it is derived from 2..n).
  Dataset x2 = x;
  // Rebuild with a different first record.
  Dataset y{u.schema};
  y.Append(u.distribution.Sample(rng));
  for (size_t i = 1; i < x.size(); ++i) y.Append(x.record(i));
  EXPECT_EQ(DerivePadKey(y), k1);
}

// Theorem 2.7, operationally: the pair's bundle is broken by the
// decrypting adversary...
TEST(IncomposabilityTest, BundleIsBroken) {
  Universe u = MakeGicMedicalUniverse(100);
  auto bundle =
      MakeBundleMechanism({MakeCiphertextMechanism(), MakePadMechanism()});
  auto adv = MakeDecryptPairAdversary();
  PsoGameOptions opts;
  opts.trials = 80;
  opts.weight_pool = 20000;
  PsoGame game(u.distribution, 100, opts);
  auto result = game.Run(*bundle, *adv);
  // x_1 is unique in x with overwhelming probability and its exact-match
  // predicate has negligible exact weight.
  EXPECT_GT(result.pso_success.rate(), 0.95);
}

// ...while each mechanism alone gives that adversary nothing.
TEST(IncomposabilityTest, EachAloneIsUseless) {
  Universe u = MakeGicMedicalUniverse(100);
  auto adv = MakeDecryptPairAdversary();
  PsoGameOptions opts;
  opts.trials = 40;
  opts.weight_pool = 20000;
  for (const MechanismRef& mech :
       {MakeCiphertextMechanism(), MakePadMechanism()}) {
    PsoGame game(u.distribution, 100, opts);
    auto result = game.Run(*mech, *adv);
    EXPECT_EQ(result.pso_success.rate(), 0.0) << mech->Name();
  }
}

// And a trivial attacker cannot beat the baseline against either half.
TEST(IncomposabilityTest, HalvesResistTrivialAttack) {
  Universe u = MakeGicMedicalUniverse(100);
  auto adv = MakeTrivialHashAdversary(1e-4);
  PsoGameOptions opts;
  opts.trials = 120;
  opts.weight_pool = 20000;
  for (const MechanismRef& mech :
       {MakeCiphertextMechanism(), MakePadMechanism()}) {
    PsoGame game(u.distribution, 100, opts);
    auto result = game.Run(*mech, *adv);
    EXPECT_LT(result.pso_success.rate(), result.baseline + 0.1);
  }
}

}  // namespace
}  // namespace pso
