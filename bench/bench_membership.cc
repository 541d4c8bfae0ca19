// E15 — membership inference on aggregate statistics (Homer et al. [26],
// surveyed in Section 1): publishing exact per-attribute frequencies of a
// small pool lets an attacker holding a target's record decide membership
// almost perfectly; the attack sharpens with more attributes and dies
// under differentially private aggregates. Series: AUC / advantage vs
// (#attributes, pool size, eps).

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/table.h"
#include "membership/membership.h"

namespace pso::membership {
namespace {

int Run(int argc, char** argv) {
  bench::BenchContext ctx =
      bench::MakeBenchContext("bench_membership", argc, argv);
  std::unique_ptr<ThreadPool> pool = bench::MakePool(ctx.threads);
  bench::Banner(
      "E15: membership inference on aggregate statistics (Homer et al.)",
      "aggregate allele frequencies of a pool reveal whether a target's "
      "data was included; DP aggregates neutralize the attack");

  TextTable table({"#attrs", "pool", "eps", "AUC", "advantage",
                   "E[T|in]", "E[T|out]"});

  double auc_strong = 0.0;
  double auc_few_attrs = 1.0;
  double auc_big_pool = 1.0;
  double auc_dp = 1.0;
  struct Config {
    int64_t attrs;
    size_t pool;
    double eps;
  };
  for (const Config& c : {Config{50, 50, 0.0}, Config{300, 50, 0.0},
                          Config{1000, 50, 0.0}, Config{300, 500, 0.0},
                          Config{300, 50, 1.0}, Config{300, 50, 0.1}}) {
    Universe u = MakeGenotypeUniverse(c.attrs, /*freq_seed=*/0x6e0);
    MembershipOptions opts;
    opts.pool_size = c.pool;
    opts.trials = 250;
    opts.eps = c.eps;
    opts.pool = pool.get();
    MembershipResult r = bench::TimedIteration(
        [&] { return RunMembershipExperiment(u, opts); });
    table.AddRow({StrFormat("%lld", (long long)c.attrs),
                  StrFormat("%zu", c.pool),
                  c.eps == 0.0 ? "exact" : StrFormat("%.1f", c.eps),
                  StrFormat("%.3f", r.auc), StrFormat("%.3f", r.advantage),
                  StrFormat("%+.2f", r.mean_in),
                  StrFormat("%+.2f", r.mean_out)});
    if (c.attrs == 1000 && c.eps == 0.0) auc_strong = r.auc;
    if (c.attrs == 50 && c.eps == 0.0) auc_few_attrs = r.auc;
    if (c.pool == 500) auc_big_pool = r.auc;
    if (c.eps == 1.0) auc_dp = r.auc;
  }
  table.Print();
  std::printf(
      "\nThe shape of the Homer result: membership signal grows with the "
      "number of published statistics and shrinks with pool size; an "
      "eps-DP release flattens the ROC toward the diagonal.\n");

  bench::ShapeChecks checks;
  checks.CheckBetween(auc_strong, 0.97, 1.0,
                      "1000 exact aggregates: near-perfect membership "
                      "inference");
  checks.CheckGreater(auc_strong, auc_few_attrs + 0.03,
                      "more published statistics => stronger attack");
  checks.CheckGreater(auc_strong, auc_big_pool + 0.03,
                      "larger pools dilute the signal");
  checks.CheckBetween(auc_dp, 0.0, 0.75,
                      "eps=1 DP aggregates neutralize the attack");
  return bench::FinishBench(ctx, "E15", checks, pool.get());
}

}  // namespace
}  // namespace pso::membership

int main(int argc, char** argv) { return pso::membership::Run(argc, argv); }
