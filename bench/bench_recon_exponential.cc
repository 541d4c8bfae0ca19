// E1 — Theorem 1.1(i): an attacker issuing all 2^n subset queries defeats
// any mechanism whose per-query error is small relative to n. Series:
// reconstruction accuracy vs the error parameter for three mechanisms —
//  * bounded uniform noise  — random error: the attack wins at ANY alpha
//    (max-consistency identifies x), underscoring that Theorem 1.1's
//    constant is about worst-case, structured error;
//  * rounding               — structured error: defeats the attack once
//    the granularity swallows the counts;
//  * decoy answering        — the tight information-theoretic defense:
//    exact answers about a dataset ~2*alpha flips away caps the attacker
//    at 1 - flips/n accuracy, matching the alpha = c*n threshold.

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "recon/attacks.h"
#include "recon/oracle.h"

namespace pso {
namespace {

int Run(int argc, char** argv) {
  bench::BenchContext ctx =
      bench::MakeBenchContext("bench_recon_exponential", argc, argv);
  std::unique_ptr<ThreadPool> pool = bench::MakePool(ctx.threads);
  bench::Banner(
      "E1: exhaustive reconstruction (Dinur-Nissim, Theorem 1.1(i))",
      "with all 2^n subset queries, per-query error below c*n admits "
      "reconstruction up to a small fraction of entries; only error of "
      "order n (structured, not random) prevents it");

  const size_t n = 12;
  const size_t trials = 8;
  std::printf("n = %zu bits, %zu trials per cell, 2^n = %d queries\n\n", n,
              trials, 1 << n);

  TextTable table({"alpha/n", "acc(bounded)", "acc(rounding)",
                   "acc(decoy, 2a flips)"});
  double bounded_small = 0.0;
  double rounding_small = 0.0;
  double rounding_large = 1.0;
  double decoy_large = 1.0;
  double bounded_large = 0.0;
  for (double ratio : {0.05, 0.1, 0.2, 0.3, 0.5}) {
    double alpha = ratio * static_cast<double>(n);
    size_t flips = static_cast<size_t>(2.0 * alpha);
    RunningStats bounded_acc;
    RunningStats rounding_acc;
    RunningStats decoy_acc;
    for (size_t t = 0; t < trials; ++t) {
      PSO_SPAN("bench.main_loop");
      Rng rng(1000 + t);
      auto secret = recon::RandomBits(n, rng);
      {
        recon::BoundedNoiseOracle oracle(secret, alpha, 77 + t);
        auto r = recon::ExhaustiveReconstruct(oracle, alpha, pool.get());
        bounded_acc.Add(recon::FractionAgree(r.estimate, secret));
      }
      {
        recon::RoundingOracle oracle(secret, 2.0 * alpha);
        auto r = recon::ExhaustiveReconstruct(oracle, alpha, pool.get());
        rounding_acc.Add(recon::FractionAgree(r.estimate, secret));
      }
      {
        recon::DecoyOracle oracle(secret, flips, 55 + t);
        auto r = recon::ExhaustiveReconstruct(oracle, alpha, pool.get());
        decoy_acc.Add(recon::FractionAgree(r.estimate, secret));
      }
    }
    table.AddRow({StrFormat("%.2f", ratio),
                  StrFormat("%.3f", bounded_acc.mean()),
                  StrFormat("%.3f", rounding_acc.mean()),
                  StrFormat("%.3f", decoy_acc.mean())});
    if (ratio == 0.05) {
      bounded_small = bounded_acc.mean();
      rounding_small = rounding_acc.mean();
    }
    if (ratio == 0.5) {
      rounding_large = rounding_acc.mean();
      decoy_large = decoy_acc.mean();
      bounded_large = bounded_acc.mean();
    }
  }
  table.Print();

  bench::ShapeChecks checks;
  checks.CheckBetween(bounded_small, 0.95, 1.0,
                      "small error: blatant non-privacy (bounded noise)");
  checks.CheckBetween(rounding_small, 0.9, 1.0,
                      "small error: blatant non-privacy (rounding)");
  checks.CheckBetween(rounding_large, 0.0, 0.85,
                      "rounding at granularity ~n defeats the attack");
  checks.CheckBetween(decoy_large, 0.0, 0.8,
                      "decoy answering caps accuracy at ~1 - 2*alpha/n");
  checks.CheckBetween(bounded_large, 0.9, 1.0,
                      "random noise does NOT protect even at alpha = n/2 "
                      "(worst-case error is what Theorem 1.1 is about)");
  return bench::FinishBench(ctx, "E1", checks, pool.get());
}

}  // namespace
}  // namespace pso

int main(int argc, char** argv) { return pso::Run(argc, argv); }
