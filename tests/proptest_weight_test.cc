// Differential property test: exact predicate weights vs Monte-Carlo
// estimates, on randomized product distributions and predicate trees
// (ctest label: proptest).
//
// For every generated (distribution, predicate) pair with an analytic
// weight, the Monte-Carlo estimator must land close to it: the exact
// value has to fall inside the doubled Wilson interval (an ~4-sigma
// event to miss), and across the whole run the strict 95% interval must
// contain the exact value at least 85% of the time (it nominally does
// ~95% of the time). Seeds are pinned, so both checks are deterministic.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/str_util.h"
#include "data/distribution.h"
#include "data/schema.h"
#include "predicate/predicate.h"
#include "proptest.h"

namespace pso {
namespace {

struct WeightCase {
  ProductDistribution dist;
  PredicateRef pred;
};

// A product distribution over `num_attrs` small categorical attributes
// with random (non-degenerate) marginal weights.
ProductDistribution GenDistribution(Rng& rng, size_t num_attrs) {
  std::vector<Attribute> attrs;
  std::vector<Marginal> marginals;
  for (size_t a = 0; a < num_attrs; ++a) {
    size_t domain = 2 + static_cast<size_t>(rng.UniformUint64(4));
    std::vector<std::string> labels;
    std::vector<double> weights;
    for (size_t v = 0; v < domain; ++v) {
      labels.push_back(StrFormat("a%zu_v%zu", a, v));
      weights.push_back(0.1 + rng.UniformDouble());
    }
    attrs.push_back(
        Attribute::Categorical(StrFormat("attr%zu", a), std::move(labels)));
    marginals.emplace_back(0, std::move(weights));
  }
  Schema schema(std::move(attrs));
  return ProductDistribution(schema, std::move(marginals));
}

// One atom over attribute `attr` (equals / in-set / range), all of which
// carry analytic weights under a product distribution.
PredicateRef GenAtom(Rng& rng, const Schema& schema, size_t attr) {
  const Attribute& a = schema.attribute(attr);
  switch (rng.UniformUint64(3)) {
    case 0:
      return MakeAttributeEquals(
          attr, rng.UniformInt(a.MinValue(), a.MaxValue()), a.name());
    case 1: {
      std::vector<int64_t> values;
      for (int64_t v = a.MinValue(); v <= a.MaxValue(); ++v) {
        if (rng.Bernoulli(0.5)) values.push_back(v);
      }
      return MakeAttributeIn(attr, std::move(values), a.name());
    }
    default: {
      int64_t lo = rng.UniformInt(a.MinValue(), a.MaxValue());
      int64_t hi = rng.UniformInt(lo, a.MaxValue());
      return MakeAttributeRange(attr, lo, hi, a.name());
    }
  }
}

// Combines one atom per attribute (disjoint attribute sets keep the
// conjunction/disjunction weights exact), possibly negated.
WeightCase GenWeightCase(Rng& rng, size_t scale) {
  size_t num_attrs = 1 + static_cast<size_t>(
                             rng.UniformUint64(scale < 3 ? scale : 3));
  ProductDistribution dist = GenDistribution(rng, num_attrs);
  std::vector<PredicateRef> atoms;
  for (size_t a = 0; a < num_attrs; ++a) {
    PredicateRef atom = GenAtom(rng, dist.schema(), a);
    if (rng.Bernoulli(0.25)) atom = MakeNot(atom);
    atoms.push_back(std::move(atom));
  }
  PredicateRef pred;
  if (atoms.size() == 1) {
    pred = atoms[0];
  } else if (rng.Bernoulli(0.5)) {
    pred = MakeAnd(std::move(atoms));
  } else {
    pred = MakeOr(std::move(atoms));
  }
  if (rng.Bernoulli(0.25)) pred = MakeNot(pred);
  return WeightCase{std::move(dist), std::move(pred)};
}

TEST(WeightDifferentialTest, ExactWeightInsideMonteCarloWilsonInterval) {
  constexpr size_t kSamples = 20000;
  size_t strict_hits = 0;
  size_t cases = 0;

  proptest::Config cfg{/*master_seed=*/0x77aa88bb, /*iterations=*/60,
                       /*max_scale=*/3, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<WeightCase>(
      cfg, GenWeightCase, [&](const WeightCase& c) -> std::string {
        std::optional<double> exact = c.pred->ExactWeight(c.dist);
        if (!exact.has_value()) {
          return "generated predicate lost its analytic weight: " +
                 c.pred->Description();
        }
        Rng mc_rng(0x9cull);
        BernoulliEstimator est;
        for (size_t i = 0; i < kSamples; ++i) {
          est.Add(c.pred->Eval(c.dist.Sample(mc_rng)));
        }
        const Interval wilson = est.WilsonInterval();
        ++cases;
        if (wilson.lo <= *exact && *exact <= wilson.hi) ++strict_hits;
        // Doubled interval: ~4 sigma, deterministic under pinned seeds.
        double mid = (wilson.lo + wilson.hi) / 2.0;
        double half = (wilson.hi - wilson.lo) / 2.0;
        Interval widened{mid - 2.0 * half, mid + 2.0 * half};
        if (*exact < widened.lo || *exact > widened.hi) {
          return StrFormat(
              "exact weight %.6f outside doubled Wilson interval "
              "[%.6f, %.6f] (mc=%.6f, %zu samples) for %s",
              *exact, widened.lo, widened.hi, est.rate(), kSamples,
              c.pred->Description().c_str());
        }
        return "";
      }));

  // Statistical sanity in the other direction: the strict 95% interval
  // should cover the exact weight nearly always (85% is a generous floor
  // for a nominal 95% under pinned seeds).
  ASSERT_GT(cases, 0u);
  EXPECT_GE(static_cast<double>(strict_hits),
            0.85 * static_cast<double>(cases))
      << strict_hits << "/" << cases
      << " strict Wilson-interval hits — Monte-Carlo estimator is biased";
}

}  // namespace
}  // namespace pso
