// Cross-module property and invariant tests: randomized configurations
// exercising algebraic laws (predicate logic), structural invariants
// (Mondrian partitions), and decoder agreement
// (LP vs least squares).

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/generators.h"
#include "kanon/mondrian.h"
#include "predicate/predicate.h"
#include "pso/adversaries.h"
#include "pso/game.h"
#include "pso/mechanisms.h"
#include "recon/attacks.h"

namespace pso {
namespace {

// --- Predicate algebra laws on random records -------------------------

class PredicateLawTest : public ::testing::TestWithParam<int> {};

TEST_P(PredicateLawTest, BooleanLawsHoldPointwise) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(900 + GetParam());
  // Random atomic predicates.
  auto random_atom = [&]() -> PredicateRef {
    size_t attr = static_cast<size_t>(
        rng.UniformUint64(u.schema.NumAttributes()));
    const Attribute& a = u.schema.attribute(attr);
    int64_t lo = rng.UniformInt(a.MinValue(), a.MaxValue());
    int64_t hi = rng.UniformInt(lo, a.MaxValue());
    return MakeAttributeRange(attr, lo, hi, a.name());
  };
  PredicateRef p = random_atom();
  PredicateRef q = random_atom();

  PredicateRef de_morgan_lhs = MakeNot(MakeAnd({p, q}));
  PredicateRef de_morgan_rhs = MakeOr({MakeNot(p), MakeNot(q)});
  PredicateRef double_neg = MakeNot(MakeNot(p));
  PredicateRef absorb = MakeAnd({p, MakeOr({p, q})});

  for (int i = 0; i < 300; ++i) {
    Record r = u.distribution.Sample(rng);
    EXPECT_EQ(de_morgan_lhs->Eval(r), de_morgan_rhs->Eval(r));
    EXPECT_EQ(double_neg->Eval(r), p->Eval(r));
    EXPECT_EQ(absorb->Eval(r), p->Eval(r));
    EXPECT_EQ(MakeAnd({p, MakeNot(p)})->Eval(r), false);
    EXPECT_EQ(MakeOr({p, MakeNot(p)})->Eval(r), true);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateLawTest, ::testing::Range(0, 6));

// Exact weights respect complement and monotonicity under a product
// distribution.
TEST(PredicateWeightPropertyTest, ComplementAndMonotonicity) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    size_t attr = static_cast<size_t>(
        rng.UniformUint64(u.schema.NumAttributes()));
    const Attribute& a = u.schema.attribute(attr);
    int64_t lo = rng.UniformInt(a.MinValue(), a.MaxValue());
    int64_t hi = rng.UniformInt(lo, a.MaxValue());
    auto p = MakeAttributeRange(attr, lo, hi, a.name());
    auto not_p = MakeNot(p);
    double w = *p->ExactWeight(u.distribution);
    EXPECT_NEAR(w + *not_p->ExactWeight(u.distribution), 1.0, 1e-12);
    // Widening the range can only increase the weight.
    if (hi < a.MaxValue()) {
      auto wider = MakeAttributeRange(attr, lo, hi + 1, a.name());
      EXPECT_GE(*wider->ExactWeight(u.distribution) + 1e-15, w);
    }
  }
}

// --- Mondrian structural invariants -----------------------------------

class MondrianInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(MondrianInvariantTest, PartitionIsDisjointCoveringAndTight) {
  Universe u = MakeGicMedicalUniverse(60);
  Rng rng(4000 + GetParam());
  size_t n = 150 + static_cast<size_t>(rng.UniformUint64(250));
  size_t k = 2 + static_cast<size_t>(rng.UniformUint64(8));
  Dataset data = u.distribution.SampleDataset(n, rng);
  kanon::MondrianOptions opts;
  opts.k = k;
  for (size_t a = 0; a < u.schema.NumAttributes(); ++a) {
    opts.qi_attrs.push_back(a);
  }
  auto result = kanon::MondrianAnonymize(
      data, kanon::HierarchySet::Defaults(u.schema), opts);
  ASSERT_TRUE(result.ok());

  // Classes partition [n].
  std::set<size_t> covered;
  for (const auto& cls : result->classes) {
    EXPECT_GE(cls.size(), k);
    for (size_t i : cls) EXPECT_TRUE(covered.insert(i).second);
  }
  EXPECT_EQ(covered.size(), n);

  // Every row's generalized cells cover the original record, and within a
  // class all QI cells agree.
  for (const auto& cls : result->classes) {
    const auto& rep = result->generalized.row(cls.front());
    for (size_t i : cls) {
      EXPECT_TRUE(result->generalized.Covers(i, data.record(i)));
      for (size_t a : opts.qi_attrs) {
        EXPECT_EQ(result->generalized.row(i)[a], rep[a]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MondrianInvariantTest,
                         ::testing::Range(0, 6));

// --- Decoder agreement -------------------------------------------------

TEST(DecoderAgreementTest, LpAndLsqAgreeOnEasyInstances) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    Rng rng(seed);
    const size_t n = 32;
    auto secret = recon::RandomBits(n, rng);
    recon::BoundedNoiseOracle lp_oracle(secret, 0.5, seed);
    auto lp = recon::LpReconstruct(lp_oracle, 5 * n, rng);
    ASSERT_TRUE(lp.ok());
    recon::BoundedNoiseOracle lsq_oracle(secret, 0.5, seed + 1);
    auto lsq = recon::LeastSquaresReconstruct(lsq_oracle, 5 * n, rng);
    double lp_acc = recon::FractionAgree(lp->estimate, secret);
    double lsq_acc = recon::FractionAgree(lsq.estimate, secret);
    EXPECT_GT(lp_acc, 0.95);
    EXPECT_GT(lsq_acc, 0.95);
  }
}

// --- Game-level invariant: PSO success never exceeds isolation --------

TEST(GameInvariantTest, PsoRateBoundedByIsolationRate) {
  Universe u = MakeGicMedicalUniverse(60);
  PsoGameOptions opts;
  opts.trials = 40;
  opts.weight_pool = 20000;
  PsoGame game(u.distribution, 200, opts);
  auto mech = MakeKAnonymityMechanism(
      KAnonAlgorithm::kMondrian, 4, kanon::HierarchySet::Defaults(u.schema),
      {});
  for (const AdversaryRef& adv :
       {MakeKAnonHashAdversary(), MakeKAnonMinimalityAdversary(),
        MakeTrivialHashAdversary(1e-3)}) {
    auto r = game.Run(*mech, *adv);
    // Both count the same trials, so the rates order as the successes do.
    EXPECT_LE(r.pso_success.rate(), r.isolation.rate());
    EXPECT_GE(r.baseline, 0.0);
    EXPECT_LE(r.baseline, 1.0);
  }
}

}  // namespace
}  // namespace pso
