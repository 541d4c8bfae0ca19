// E2 — Theorem 1.1(ii): polynomially many random subset queries with error
// alpha = c*sqrt(n) admit reconstruction by LP decoding. Series: accuracy
// vs alpha/sqrt(n) for the LP and least-squares decoders across n; the
// crossover from near-perfect to failed reconstruction sits at
// alpha/sqrt(n) of order 1.
//
// Every LP decode solves cold on the sparse revised simplex.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "recon/attacks.h"
#include "recon/oracle.h"

namespace pso {
namespace {

// The E2 grid.
constexpr size_t kNs[] = {32, 64};
constexpr double kCs[] = {0.0, 0.25, 0.5, 1.0, 2.0, 4.0};

// One LP decode at grid point (n, c, trial): same seeding for the oracle
// and query stream on every call, so repeated runs see bit-identical LP
// instances.
struct DecodePoint {
  double accuracy = 0.0;
  bool ok = false;
};

DecodePoint LpDecodeAt(size_t n, double c, size_t trial) {
  const size_t queries = 5 * n;
  const double alpha = c * std::sqrt(static_cast<double>(n));
  Rng rng(500 + 17 * trial + n);
  auto secret = recon::RandomBits(n, rng);
  DecodePoint out;
  if (alpha == 0.0) {
    recon::ExactOracle oracle(secret);
    auto r = recon::LpReconstruct(oracle, queries, rng);
    if (!r.ok()) return out;
    out.ok = true;
    out.accuracy = recon::FractionAgree(r->estimate, secret);
  } else {
    recon::BoundedNoiseOracle oracle(secret, alpha, 31 + trial);
    auto r = recon::LpReconstruct(oracle, queries, rng);
    if (!r.ok()) return out;
    out.ok = true;
    out.accuracy = recon::FractionAgree(r->estimate, secret);
  }
  return out;
}

int Run(int argc, char** argv) {
  bench::BenchContext ctx =
      bench::MakeBenchContext("bench_recon_lp", argc, argv);
  ctx.threads = 1;  // this harness runs serially
  bench::Banner(
      "E2: polynomial reconstruction by LP decoding (Theorem 1.1(ii))",
      "t = O(n) random subset queries with error alpha = c*sqrt(n) allow "
      "reconstruction of all but a small fraction of x; error >> sqrt(n) "
      "defeats it");

  TextTable table(
      {"n", "queries", "alpha/sqrt(n)", "acc(LP)", "acc(LSQ)"});

  double lp_small_noise = 0.0;
  double lp_big_noise = 1.0;
  double lsq_small_noise_big_n = 0.0;

  for (size_t n : kNs) {
    const size_t queries = 5 * n;
    for (double c : kCs) {
      double alpha = c * std::sqrt(static_cast<double>(n));
      RunningStats lp_acc;
      RunningStats lsq_acc;
      const size_t trials = 3;
      for (size_t t = 0; t < trials; ++t) {
        DecodePoint p = bench::TimedIteration(
            [&] { return LpDecodeAt(n, c, t); });
        if (p.ok) lp_acc.Add(p.accuracy);
        // The LSQ decoder re-draws the same oracle/query stream.
        Rng rng(500 + 17 * t + n);
        auto secret = recon::RandomBits(n, rng);
        if (alpha == 0.0) {
          recon::ExactOracle lsq_oracle(secret);
          auto r2 = recon::LeastSquaresReconstruct(lsq_oracle, queries, rng);
          lsq_acc.Add(recon::FractionAgree(r2.estimate, secret));
        } else {
          recon::BoundedNoiseOracle lsq_oracle(secret, alpha, 51 + t);
          auto r2 = recon::LeastSquaresReconstruct(lsq_oracle, queries, rng);
          lsq_acc.Add(recon::FractionAgree(r2.estimate, secret));
        }
      }
      table.AddRow({StrFormat("%zu", n), StrFormat("%zu", queries),
                    StrFormat("%.2f", c), StrFormat("%.3f", lp_acc.mean()),
                    StrFormat("%.3f", lsq_acc.mean())});
      if (n == 64 && c == 0.25) {
        lp_small_noise = lp_acc.mean();
        lsq_small_noise_big_n = lsq_acc.mean();
      }
      if (n == 64 && c == 4.0) lp_big_noise = lp_acc.mean();
    }
  }
  // The LSQ decoder scales further; show n = 192 at the favorable noise.
  {
    const size_t n = 192;
    Rng rng(999);
    auto secret = recon::RandomBits(n, rng);
    recon::BoundedNoiseOracle oracle(
        secret, 0.25 * std::sqrt(static_cast<double>(n)), 7);
    auto r = recon::LeastSquaresReconstruct(oracle, 5 * n, rng);
    double acc = recon::FractionAgree(r.estimate, secret);
    table.AddRow({"192", "960", "0.25", "-", StrFormat("%.3f", acc)});
  }
  table.Print();

  bench::ShapeChecks checks;
  checks.CheckBetween(lp_small_noise, 0.93, 1.0,
                      "LP decoding at alpha = 0.25*sqrt(n), n=64");
  checks.CheckBetween(lsq_small_noise_big_n, 0.9, 1.0,
                      "LSQ decoding at alpha = 0.25*sqrt(n), n=64");
  checks.CheckBetween(lp_big_noise, 0.0, 0.9,
                      "LP decoding collapses at alpha = 4*sqrt(n)");
  checks.CheckGreater(lp_small_noise, lp_big_noise,
                      "crossover in c = alpha/sqrt(n) exists");
  return bench::FinishBench(ctx, "E2", checks);
}

}  // namespace
}  // namespace pso

int main(int argc, char** argv) {
  return pso::Run(argc, argv);
}
