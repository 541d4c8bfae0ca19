// Microbenchmarks (google-benchmark) for the performance-critical
// primitives: sampling, predicate evaluation, anonymization, the solvers
// (LP decoding and the census CSP search), and one full PSO game trial.
// These are throughput numbers, not paper claims — they document what
// experiment scales the library sustains.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "census/population.h"
#include "census/reconstruct.h"
#include "census/tabulator.h"
#include "data/generators.h"
#include "kanon/mondrian.h"
#include "pso/adversaries.h"
#include "pso/composition_attack.h"
#include "pso/game.h"
#include "pso/mechanisms.h"
#include "recon/attacks.h"
#include "solver/csp.h"
#include "solver/lp.h"

namespace pso {
namespace {

void BM_SampleGicRecord(benchmark::State& state) {
  Universe u = MakeGicMedicalUniverse(100);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.distribution.Sample(rng));
  }
}
BENCHMARK(BM_SampleGicRecord);

void BM_HashPredicateEval(benchmark::State& state) {
  Universe u = MakeGicMedicalUniverse(100);
  Rng rng(2);
  UniversalHash h(rng, 1000);
  auto p = MakeHashPredicate(u.schema, h, 0);
  Record r = u.distribution.Sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->Eval(r));
  }
}
BENCHMARK(BM_HashPredicateEval);

void BM_MondrianAnonymize(benchmark::State& state) {
  Universe u = MakeGicMedicalUniverse(100);
  Rng rng(3);
  Dataset data =
      u.distribution.SampleDataset(static_cast<size_t>(state.range(0)), rng);
  kanon::HierarchySet hs = kanon::HierarchySet::Defaults(u.schema);
  kanon::MondrianOptions opts;
  opts.k = 5;
  for (size_t a = 0; a < u.schema.NumAttributes(); ++a) {
    opts.qi_attrs.push_back(a);
  }
  for (auto _ : state) {
    auto result = kanon::MondrianAnonymize(data, hs, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MondrianAnonymize)->Arg(200)->Arg(1000);

void BM_LpDecode(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  auto secret = recon::RandomBits(n, rng);
  for (auto _ : state) {
    recon::ExactOracle oracle(secret);
    auto r = recon::LpReconstruct(oracle, 4 * n, rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LpDecode)->Arg(24)->Arg(48);

// Least-squares decode of a recorded transcript of m = 4n exact answers:
// one pass over the queries builds the Gram matrix, then 400
// projected-gradient steps run on it.
void BM_LsqDecode(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  recon::ExactOracle oracle(recon::RandomBits(n, rng));
  std::vector<recon::SubsetQuery> queries;
  std::vector<double> answers;
  for (size_t j = 0; j < 4 * n; ++j) {
    recon::SubsetQuery q(n);
    for (auto& bit : q) bit = rng.Bernoulli(0.5) ? 1 : 0;
    answers.push_back(oracle.Answer(q));
    queries.push_back(std::move(q));
  }
  for (auto _ : state) {
    auto r = recon::LeastSquaresDecodeRecorded(n, queries, answers);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LsqDecode)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// Decoder-shaped L1-fit LP (n box variables, 5n equality rows with u/v
// residual splits) built once and solved per iteration.
LpProblem BuildL1FitLp(size_t n, uint64_t seed) {
  const size_t q = 5 * n;
  Rng rng(seed);
  LpProblem lp;
  std::vector<size_t> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = lp.AddVariable(0.0, 1.0, 0.0);
  for (size_t j = 0; j < q; ++j) {
    size_t u = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    size_t v = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    std::vector<std::pair<size_t, double>> row;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.5)) row.emplace_back(x[i], 1.0);
    }
    row.emplace_back(u, 1.0);
    row.emplace_back(v, -1.0);
    lp.AddConstraint(row, Relation::kEqual,
                     static_cast<double>(rng.UniformInt(0, (int64_t)n / 2)));
  }
  return lp;
}

// The same L1-fit LP solved cold.
void BM_LpSolveCold(benchmark::State& state) {
  LpProblem lp = BuildL1FitLp(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    auto sol = lp.Solve();
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_LpSolveCold)->Arg(24)->Arg(48);

// The census benchmark blocks: every nonempty block of a fixed
// population (200 blocks of 2..9 persons, seed 1), tabulated exactly
// (dp false) or with eps = 2 DP noise, as the census benchmark
// workload's two legs do.
std::vector<census::BlockTables> CensusBenchTables(bool dp) {
  census::PopulationOptions options;
  options.num_blocks = 200;
  options.min_block_size = 2;
  options.max_block_size = 9;
  Rng rng(1);
  const census::Population pop = census::GeneratePopulation(options, rng);
  Rng dp_rng = Rng::StreamAt(1, 2);
  std::vector<census::BlockTables> out;
  for (const census::Block& b : pop.blocks) {
    census::BlockTables tables =
        dp ? census::TabulateDp(b, /*eps=*/2.0, dp_rng) : census::Tabulate(b);
    if (tables.total > 0) out.push_back(std::move(tables));
  }
  return out;
}

// The census encode layer alone: one iteration turns the tables of every
// census benchmark block into its CountCsp, exact (Arg 0) or DP (Arg 1).
// Items are blocks.
void BM_CensusEncode(benchmark::State& state) {
  const bool dp = state.range(0) == 1;
  const std::vector<census::BlockTables> blocks = CensusBenchTables(dp);
  for (auto _ : state) {
    for (const census::BlockTables& tables : blocks) {
      CountCsp csp = census::EncodeBlockCsp(tables);
      benchmark::DoNotOptimize(csp);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(blocks.size()));
  state.SetLabel(dp ? "dp eps=2" : "exact");
}
BENCHMARK(BM_CensusEncode)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The census search alone: one iteration enumerates every census
// benchmark block under E9's caps, from the exact tables (Arg 0) or the
// DP tables (Arg 1). The blocks are encoded before timing starts; items
// are search nodes.
void BM_CspEnumerate(benchmark::State& state) {
  const bool dp = state.range(0) == 1;
  std::vector<CountCsp> csps;
  for (const census::BlockTables& tables : CensusBenchTables(dp)) {
    csps.push_back(census::EncodeBlockCsp(tables));
  }
  const size_t max_solutions = dp ? 16 : 64;
  const size_t max_nodes = dp ? 150000 : 500000;
  int64_t nodes = 0;
  for (auto _ : state) {
    for (const CountCsp& csp : csps) {
      CspStats stats;
      benchmark::DoNotOptimize(csp.Enumerate(max_solutions, max_nodes, &stats));
      nodes += static_cast<int64_t>(stats.nodes);
    }
  }
  state.SetItemsProcessed(nodes);
  state.SetLabel(dp ? "dp eps=2" : "exact");
}
BENCHMARK(BM_CspEnumerate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_AdaptiveCountAttack(benchmark::State& state) {
  Universe u = MakeGicMedicalUniverse(100);
  Rng rng(5);
  Dataset x = u.distribution.SampleDataset(500, rng);
  for (auto _ : state) {
    auto attack = AdaptiveCountAttack(x, 1e-4, 200, rng);
    benchmark::DoNotOptimize(attack);
  }
}
BENCHMARK(BM_AdaptiveCountAttack);

void BM_PsoGameTrialKAnon(benchmark::State& state) {
  Universe u = MakeGicMedicalUniverse(100);
  auto mech = MakeKAnonymityMechanism(
      KAnonAlgorithm::kMondrian, 5, kanon::HierarchySet::Defaults(u.schema),
      {});
  auto adv = MakeKAnonMinimalityAdversary();
  PsoGameOptions opts;
  opts.trials = 1;
  opts.weight_pool = 20000;
  for (auto _ : state) {
    // TimedIteration feeds the bench.main_loop histogram so bench_micro's
    // JSON report carries tail latencies like the shape-check harnesses.
    bench::TimedIteration([&] {
      PsoGame game(u.distribution, 300, opts);
      benchmark::DoNotOptimize(game.Run(*mech, *adv));
      return 0;
    });
  }
}
BENCHMARK(BM_PsoGameTrialKAnon);

}  // namespace
}  // namespace pso

// Custom main instead of BENCHMARK_MAIN(): strips the repo-standard
// flags (--json/--trace/--threads; google-benchmark would reject
// them), runs the registered benchmarks, then emits the same
// BENCH_*.json document the shape-check harnesses write — no shape
// checks here, but the counters section still records what the measured
// primitives executed (LP pivots etc.).
int main(int argc, char** argv) {
  pso::bench::BenchContext ctx =
      pso::bench::MakeBenchContext("bench_micro", argc, argv);
  ctx.threads = 1;  // microbenchmarks run serially
  std::vector<char*> kept;
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" || arg == "--trace" || arg == "--threads") {
      if (i + 1 < argc) ++i;  // skip the operand
      continue;
    }
    if (arg.rfind("--json=", 0) == 0 || arg.rfind("--trace=", 0) == 0 ||
        arg.rfind("--threads=", 0) == 0) {
      continue;
    }
    kept.push_back(argv[i]);
  }
  int kept_argc = static_cast<int>(kept.size());
  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pso::bench::ShapeChecks no_checks;
  return pso::bench::FinishBench(ctx, "micro", no_checks);
}
