// E11 — Section 1.1 / Ganta et al. [23]: k-anonymity is not closed under
// composition. Two independently k-anonymized releases of the same data
// are each k-anonymous, yet intersecting a row's sensitive-value
// candidates across releases pins values a single release never would.
// Series: pinned / shrunk fractions vs k, against the single-release
// baseline. (Contrast: DP composes gracefully — the accountant quantifies
// the degradation instead of hiding it.)

#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "data/generators.h"
#include "dp/accountant.h"
#include "kanon/attacks.h"
#include "kanon/datafly.h"
#include "kanon/mondrian.h"

namespace pso::kanon {
namespace {

int Run(int argc, char** argv) {
  bench::BenchContext ctx =
      bench::MakeBenchContext("bench_kanon_composition", argc, argv);
  ctx.threads = 1;  // this harness runs serially
  bench::Banner(
      "E11: k-anonymity is not closed under composition (Ganta et al.)",
      "two k-anonymous releases of the same data, intersected, disclose "
      "sensitive values that neither release discloses alone");

  Universe u = MakeGicMedicalUniverse(100);
  const size_t n = 600;
  const size_t diagnosis = 4;
  Rng rng(0x6A17A);
  Dataset data = u.distribution.SampleDataset(n, rng);
  HierarchySet hs = HierarchySet::Defaults(u.schema);
  std::vector<size_t> qi = {0, 1, 2, 3};

  TextTable table({"k", "pinned (A alone)", "pinned (A+B)",
                   "shrunk (A+B)", "both releases k-anonymous"});
  double pinned_two_k3 = 0.0;
  double pinned_one_k3 = 0.0;
  double shrunk_k3 = 0.0;
  for (size_t k : {3, 5, 10}) {
    PSO_SPAN("bench.main_loop");
    MondrianOptions mo;
    mo.k = k;
    mo.qi_attrs = qi;
    auto a = MondrianAnonymize(data, hs, mo);
    DataflyOptions dopts;
    dopts.k = k;
    dopts.qi_attrs = qi;
    dopts.max_suppression = 0.1;
    auto b = DataflyAnonymize(data, hs, dopts);
    if (!a.ok() || !b.ok()) continue;

    bool both_anon = IsKAnonymous(a->generalized, k, qi) &&
                     IsKAnonymous(b->generalized, k, qi);
    auto self = IntersectionAttack(data, *a, *a, diagnosis);
    auto two = IntersectionAttack(data, *a, *b, diagnosis);
    table.AddRow({StrFormat("%zu", k),
                  StrFormat("%.2f%%", 100.0 * self.pinned_fraction),
                  StrFormat("%.2f%%", 100.0 * two.pinned_fraction),
                  StrFormat("%.1f%%", 100.0 * two.shrunk_fraction),
                  both_anon ? "yes" : "NO"});
    if (k == 3) {
      pinned_two_k3 = two.pinned_fraction;
      pinned_one_k3 = self.pinned_fraction;
      shrunk_k3 = two.shrunk_fraction;
    }
  }
  table.Print();

  // Contrast: DP composition is graceful and quantified.
  dp::PrivacyAccountant acc;
  acc.Spend(0.5);
  acc.Spend(0.5);
  auto composed = acc.BasicComposition();
  std::printf(
      "\nContrast (Section 1.1): two eps=0.5 DP releases compose to a "
      "quantified eps=%.1f guarantee; two k-anonymous releases compose to "
      "no guarantee at all.\n",
      composed.eps);

  bench::ShapeChecks checks;
  checks.CheckGreater(pinned_two_k3, pinned_one_k3 + 0.01,
                      "composition pins strictly more than one release");
  checks.CheckGreater(shrunk_k3, 0.3,
                      "composition shrinks candidate sets for many rows");
  checks.CheckBetween(composed.eps, 1.0, 1.0, "DP composes to eps exactly 1");
  return bench::FinishBench(ctx, "E11", checks);
}

}  // namespace
}  // namespace pso::kanon

int main(int argc, char** argv) {
  return pso::kanon::Run(argc, argv);
}
