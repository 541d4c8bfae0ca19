// E6 — Theorems 2.7/2.8: PSO security does not compose. Three exhibits:
//  (a) the explicit ciphertext/pad pair (Theorem 2.7): each alone secure,
//      the bundle surrenders x_1 exactly;
//  (b) adaptive count composition (Theorem 2.8): ~log(1/tau) count queries
//      binary-search an isolating hash interval — success ~100% while each
//      count mechanism is individually secure (E5);
//  (c) query-count series: queries needed grow logarithmically as the
//      negligibility threshold tau shrinks, while the trivial baseline
//      collapses linearly.

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/table.h"
#include "data/generators.h"
#include "pso/adversaries.h"
#include "pso/composition_attack.h"
#include "pso/game.h"
#include "pso/interactive.h"
#include "pso/mechanisms.h"

namespace pso {
namespace {

int Run(int argc, char** argv) {
  bench::BenchContext ctx =
      bench::MakeBenchContext("bench_composition_attack", argc, argv);
  std::unique_ptr<ThreadPool> pool = bench::MakePool(ctx.threads);
  bench::Banner(
      "E6: PSO security is not closed under composition (Thms 2.7, 2.8)",
      "individually secure mechanisms compose into a near-certain "
      "singling-out attack; count queries learn enough bits of one record "
      "to isolate it with a negligible-weight predicate");

  Universe u = MakeGicMedicalUniverse(100);
  const size_t n = 500;

  // (a) Theorem 2.7 pair.
  std::printf("(a) Theorem 2.7 explicit pair\n");
  TextTable pair_table({"mechanism", "adversary", "PSO rate", "baseline"});
  PsoGameOptions opts;
  opts.trials = 150;
  opts.weight_pool = 60000;
  opts.pool = pool.get();
  PsoGame game(u.distribution, n, opts);
  auto decrypt = MakeDecryptPairAdversary();
  double alone_worst = 0.0;
  double bundle_rate = 0.0;
  for (const MechanismRef& mech :
       {MakeCiphertextMechanism(), MakePadMechanism(),
        MakeBundleMechanism(
            {MakeCiphertextMechanism(), MakePadMechanism()})}) {
    auto r = bench::TimedIteration([&] { return game.Run(*mech, *decrypt); });
    pair_table.AddRow({r.mechanism, r.adversary,
                       StrFormat("%.4f", r.pso_success.rate()),
                       StrFormat("%.4f", r.baseline)});
    if (mech->Name().find("(") == std::string::npos) {
      alone_worst = std::max(alone_worst, r.pso_success.rate());
    } else {
      bundle_rate = r.pso_success.rate();
    }
  }
  pair_table.Print();

  // (b) + (c) Theorem 2.8 count composition across tau.
  std::printf("\n(b,c) count-mechanism composition (Theorem 2.8)\n");
  TextTable comp_table({"tau", "variant", "PSO rate", "mean #queries",
                        "baseline"});
  double adaptive_rate_tight = 0.0;
  double queries_loose = 0.0;
  double queries_tight = 0.0;
  for (double tau : {1.0 / (10.0 * n), 1.0 / (100.0 * n),
                     1.0 / (10000.0 * n)}) {
    auto adaptive =
        RunCompositionGame(u.distribution, n, 60, true, tau, 400, 0xBEEF);
    comp_table.AddRow({StrFormat("%.2e", tau), "adaptive",
                       StrFormat("%.4f", adaptive.pso_success.rate()),
                       StrFormat("%.1f", adaptive.queries_used.mean()),
                       StrFormat("%.4f", adaptive.baseline)});
    if (tau == 1.0 / (10.0 * n)) {
      queries_loose = adaptive.queries_used.mean();
    }
    if (tau == 1.0 / (10000.0 * n)) {
      adaptive_rate_tight = adaptive.pso_success.rate();
      queries_tight = adaptive.queries_used.mean();
    }
  }
  auto bucket = RunCompositionGame(u.distribution, n, 30, false,
                                   1.0 / (10.0 * n), 0, 0xF00D);
  comp_table.AddRow({StrFormat("%.2e", 1.0 / (10.0 * n)), "non-adaptive",
                     StrFormat("%.4f", bucket.pso_success.rate()),
                     StrFormat("%.1f", bucket.queries_used.mean()),
                     StrFormat("%.4f", bucket.baseline)});
  comp_table.Print();
  std::printf(
      "\ntau shrank 1000x; queries grew by ~log2(1000) ~ 10 "
      "(%.1f -> %.1f): ell = O(log n) count mechanisms suffice.\n",
      queries_loose, queries_tight);

  // (d) Interactive ablation: the same binary-search attacker against
  // query sessions with per-query Laplace noise — Theorem 2.9 closing the
  // door Theorem 2.8 opened.
  std::printf("\n(d) interactive sessions: attack vs per-query noise\n");
  TextTable session_table({"session", "PSO rate", "baseline"});
  PsoGameOptions sopts;
  sopts.trials = 60;
  sopts.weight_pool = 60000;
  sopts.pool = pool.get();
  PsoGame session_game(u.distribution, n, sopts);
  auto searcher = MakeBinarySearchIsolationAdversary(200);
  double exact_session_rate = 0.0;
  double noisy_session_rate = 1.0;
  {
    auto r = session_game.RunInteractive(*MakeExactCountSessionMechanism(),
                                         *searcher);
    session_table.AddRow({r.mechanism,
                          StrFormat("%.4f", r.pso_success.rate()),
                          StrFormat("%.4f", r.baseline)});
    exact_session_rate = r.pso_success.rate();
  }
  for (double eps : {2.0, 0.5}) {
    auto r = session_game.RunInteractive(
        *MakeLaplaceCountSessionMechanism(eps), *searcher);
    session_table.AddRow({r.mechanism,
                          StrFormat("%.4f", r.pso_success.rate()),
                          StrFormat("%.4f", r.baseline)});
    noisy_session_rate = std::min(noisy_session_rate, r.pso_success.rate());
  }
  session_table.Print();

  bench::ShapeChecks checks;
  checks.CheckBetween(alone_worst, 0.0, 0.05,
                      "each Thm 2.7 mechanism alone is PSO-secure");
  checks.CheckBetween(bundle_rate, 0.9, 1.0,
                      "the Thm 2.7 bundle is broken outright");
  checks.CheckBetween(adaptive_rate_tight, 0.9, 1.0,
                      "adaptive count composition succeeds at tiny tau");
  checks.CheckBetween(queries_tight - queries_loose, 5.0, 18.0,
                      "1000x smaller tau costs ~log2(1000)~10 extra queries");
  checks.CheckBetween(bucket.pso_success.rate(), 0.9, 1.0,
                      "non-adaptive bucket variant also succeeds");
  checks.CheckBetween(exact_session_rate, 0.9, 1.0,
                      "interactive exact sessions fall to the searcher");
  checks.CheckBetween(noisy_session_rate, 0.0, 0.1,
                      "per-query Laplace noise derails the binary search");
  return bench::FinishBench(ctx, "E6", checks, pool.get());
}

}  // namespace
}  // namespace pso

int main(int argc, char** argv) { return pso::Run(argc, argv); }
