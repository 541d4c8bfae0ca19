// E16 — synthetic data under the PSO lens (Section 1.2 asks how concepts
// like linkability apply "when PII is replaced with 'synthetic data'").
// The formalization answers operationally: a bootstrap "synthetic" release
// (copying records) fails PSO outright; marginal-fitted synthesis resists
// the copy attack; DP-fitted synthesis inherits Theorem 2.9's guarantee.
// Series: PSO success of the copy adversary per generator, plus a utility
// column (total-variation distance of the sex marginal) showing the
// privacy/utility positions.

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/table.h"
#include "data/generators.h"
#include "pso/game.h"
#include "pso/synthetic.h"

namespace pso {
namespace {

// Mean absolute error of the released age histogram vs the input's, as a
// quick utility proxy.
double AgeHistogramError(const Dataset& input, const Dataset& synthetic) {
  const Attribute& age = input.schema().attribute(1);  // birth_year
  size_t domain = static_cast<size_t>(age.DomainSize());
  std::vector<double> a(domain, 0.0);
  std::vector<double> b(domain, 0.0);
  for (const Record& r : input.records()) {
    a[static_cast<size_t>(r[1] - age.MinValue())] += 1.0 / input.size();
  }
  for (const Record& r : synthetic.records()) {
    b[static_cast<size_t>(r[1] - age.MinValue())] += 1.0 / synthetic.size();
  }
  double tv = 0.0;
  for (size_t v = 0; v < domain; ++v) tv += std::fabs(a[v] - b[v]);
  return tv / 2.0;
}

int Run(int argc, char** argv) {
  bench::BenchContext ctx =
      bench::MakeBenchContext("bench_synthetic", argc, argv);
  std::unique_ptr<ThreadPool> pool = bench::MakePool(ctx.threads);
  bench::Banner(
      "E16: is synthetic data anonymous? (Section 1.2, PSO lens)",
      "bootstrap 'synthetic' data fails PSO like the identity mechanism; "
      "marginal and DP-marginal synthesis prevent the copy attack");

  Universe u = MakeGicMedicalUniverse(100);
  const size_t n = 300;
  PsoGameOptions opts;
  opts.trials = 100;
  opts.weight_pool = 60000;
  opts.pool = pool.get();
  PsoGame game(u.distribution, n, opts);
  auto adversary = MakeSyntheticCopyAdversary();

  TextTable table({"generator", "PSO rate", "baseline", "advantage",
                   "utility: TV(birth_year hist)"});
  double bootstrap_rate = 0.0;
  double marginal_rate = 1.0;
  double dp_rate = 1.0;
  Rng urng(0xE16);
  Dataset sample = u.distribution.SampleDataset(n, urng);
  for (SyntheticMode mode :
       {SyntheticMode::kBootstrap, SyntheticMode::kMarginal,
        SyntheticMode::kDpMarginal}) {
    auto mech = MakeSyntheticDataMechanism(mode, 0, /*eps=*/1.0);
    auto result =
        bench::TimedIteration([&] { return game.Run(*mech, *adversary); });
    MechanismOutput sample_out = mech->Run(sample, urng);
    const Dataset* synth = sample_out.As<Dataset>();
    double tv = synth != nullptr ? AgeHistogramError(sample, *synth) : 1.0;
    table.AddRow({result.mechanism,
                  StrFormat("%.4f", result.pso_success.rate()),
                  StrFormat("%.4f", result.baseline),
                  StrFormat("%+.4f", result.advantage),
                  StrFormat("%.3f", tv)});
    switch (mode) {
      case SyntheticMode::kBootstrap:
        bootstrap_rate = result.pso_success.rate();
        break;
      case SyntheticMode::kMarginal:
        marginal_rate = result.pso_success.rate();
        break;
      case SyntheticMode::kDpMarginal:
        dp_rate = result.pso_success.rate();
        break;
    }
  }
  table.Print();
  std::printf(
      "\n'Synthetic' is not a privacy property: the same output format "
      "spans blatant failure and DP-grade protection depending on the "
      "generator. The PSO game distinguishes them where the label "
      "cannot.\n");

  bench::ShapeChecks checks;
  checks.CheckBetween(bootstrap_rate, 0.9, 1.0,
                      "bootstrap synthesis fails PSO outright");
  checks.CheckBetween(marginal_rate, 0.0, 0.1,
                      "marginal synthesis resists the copy attack");
  checks.CheckBetween(dp_rate, 0.0, 0.1,
                      "DP-marginal synthesis resists the copy attack");
  checks.CheckGreater(bootstrap_rate, marginal_rate + 0.8,
                      "generator choice separates failure from protection");
  return bench::FinishBench(ctx, "E16", checks, pool.get());
}

}  // namespace
}  // namespace pso

int main(int argc, char** argv) { return pso::Run(argc, argv); }
