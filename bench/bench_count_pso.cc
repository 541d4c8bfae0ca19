// E5 — Theorem 2.5: the exact count mechanism M#q prevents predicate
// singling out. Series: PSO success of best-effort attackers vs n, against
// the trivial baseline (which is exactly what "prevents PSO" means at
// finite n: no attacker beats the output-blind bound).

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/table.h"
#include "data/generators.h"
#include "pso/adversaries.h"
#include "pso/game.h"
#include "pso/mechanisms.h"

namespace pso {
namespace {

int Run(int argc, char** argv) {
  bench::BenchContext ctx =
      bench::MakeBenchContext("bench_count_pso", argc, argv);
  std::unique_ptr<ThreadPool> pool = bench::MakePool(ctx.threads);
  bench::Banner(
      "E5: count mechanisms prevent predicate singling out (Theorem 2.5)",
      "for every attacker, Pr[isolation with negligible-weight predicate] "
      "stays at the trivial baseline as n grows");

  Universe u = MakeGicMedicalUniverse(100);
  auto q = MakeAttributeEquals(3, 0, "sex");
  auto mech = MakeCountMechanism(q, "sex=F");

  TextTable table({"n", "adversary", "PSO rate", "CI hi", "baseline",
                   "advantage"});
  double max_advantage = -1.0;
  for (size_t n : {128, 256, 512, 1024}) {
    PsoGameOptions opts;
    opts.trials = 250;
    opts.weight_pool = 60000;
    opts.seed = 0xC0DE + n;
    opts.pool = pool.get();
    PsoGame game(u.distribution, n, opts);
    for (const AdversaryRef& adv :
         {MakeTrivialHashAdversary(1.0 / (10.0 * n)),
          MakeCountTunedAdversary(q, "sex=F"),
          MakeUniqueRecordAdversary()}) {
      auto r = bench::TimedIteration([&] { return game.Run(*mech, *adv); });
      table.AddRow({StrFormat("%zu", n), r.adversary,
                    StrFormat("%.4f", r.pso_success.rate()),
                    StrFormat("%.4f", r.pso_success.WilsonInterval().hi),
                    StrFormat("%.4f", r.baseline),
                    StrFormat("%+.4f", r.advantage)});
      if (r.advantage > max_advantage) max_advantage = r.advantage;
    }
  }
  table.Print();
  std::printf(
      "\n(The UniqueRecord adversary expects a raw dataset and concedes "
      "against a count output — included as a sanity pole.)\n");

  bench::ShapeChecks checks;
  checks.CheckBetween(max_advantage, -1.0, 0.05,
                      "no attacker beats the trivial baseline vs M#q");
  return bench::FinishBench(ctx, "E5", checks, pool.get());
}

}  // namespace
}  // namespace pso

int main(int argc, char** argv) { return pso::Run(argc, argv); }
