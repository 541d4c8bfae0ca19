// E9 — the 2010 Decennial reconstruction narrative (Section 1): block
// tables are solved back into microdata, reconstructed records are matched
// against a commercial database, and the confirmed re-identification rate
// dwarfs the 0.003% pre-2010 disclosure-risk estimate. The DP-protected
// tabulation (the post-2020 posture) collapses the attack. Rows: the same
// statistics the Bureau reported — blocks solved exactly, persons
// reconstructed, putative and confirmed re-identifications.
//
// A second leg runs the SAT engine (CDCL) on a fixed block set under a
// shared decision budget. The set mixes exact-table blocks (solved by
// propagation) with noise-perturbed infeasible blocks whose tables demand
// more persons in one age bucket than the sex-by-age rows can supply.
// Refuting those requires learning from conflicts: CDCL derives the
// contradiction in a few thousand decisions, where a chronological search
// runs out of budget (EXPERIMENTS.md, "SAT engine"). Deciding every block
// within the budget is the performance contract of the engine.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "census/reconstruct.h"
#include "census/reidentify.h"
#include "census/sat_reconstruct.h"

namespace pso::census {
namespace {

struct PipelineOutcome {
  ReconstructionReport recon;
  ReidentificationReport reid;
};

// Shared decision budget for every budget-leg block. CDCL refutes the
// largest perturbed block in ~7.5k decisions (deterministic), so 10k is
// safe headroom.
constexpr size_t kDuelBudget = 10000;
constexpr size_t kDuelPerturbedSizes[] = {4, 5, 6};

// Makes exact tables infeasible under noise_slack = 1: move one person of
// age-count mass from each of `delta` distinct source ages into the middle
// age of an empty five-year bucket. The receiving by_age cell then demands
// at least delta - slack persons, but the untouched by_sex_age_bucket rows
// cap that bucket at 2 * slack — a contradiction spread across cardinality
// constraints that only conflict analysis localizes quickly.
bool PerturbOverloadedBucket(BlockTables& t, int64_t delta) {
  t.noise_slack = 1;
  int target_bucket = -1;
  for (int bkt = 0; bkt < static_cast<int>(kAgeBuckets); ++bkt) {
    int64_t in_bucket = 0;
    for (int a = bkt * 5; a < bkt * 5 + 5; ++a) in_bucket += t.by_age[a];
    if (in_bucket == 0) {
      target_bucket = bkt;
      break;
    }
  }
  if (target_bucket < 0) return false;
  const int target = target_bucket * 5 + 2;
  int64_t moved = 0;
  for (int a = 0; a <= kMaxAge && moved < delta; ++a) {
    if (a / 5 == target_bucket) continue;
    if (t.by_age[a] > 0) {
      t.by_age[a] -= 1;
      t.by_age[target] += 1;
      ++moved;
    }
  }
  return moved == delta;
}

// Per-block outcome: decided SAT, decided UNSAT, or budget exhausted.
enum class DuelOutcome { kSat, kUnsat, kExhausted, kError };

struct SatDuelLeg {
  std::vector<DuelOutcome> outcomes;
  std::vector<size_t> block_decisions;
  size_t solved = 0;     // blocks decided (either way) within the budget
  size_t exhausted = 0;  // blocks where the decision budget ran out
  size_t decisions = 0;  // aggregate, including budget spent when exhausted
  size_t conflicts = 0;
};

SatDuelLeg RunSatDuelLeg(const std::vector<BlockTables>& duel_tables) {
  SatDuelLeg leg;
  for (const BlockTables& t : duel_tables) {
    // Per-block solve latency lands in the bench.main_loop histogram —
    // the per-block solve-time distribution, not just one aggregate.
    auto r = bench::TimedIteration(
        [&] { return ReconstructBlockSat(t, kDuelBudget); });
    if (!r.ok()) {
      leg.outcomes.push_back(DuelOutcome::kError);
      leg.block_decisions.push_back(0);
      continue;
    }
    if (r->budget_exhausted) {
      leg.outcomes.push_back(DuelOutcome::kExhausted);
      ++leg.exhausted;
    } else {
      leg.outcomes.push_back(r->satisfiable ? DuelOutcome::kSat
                                            : DuelOutcome::kUnsat);
      ++leg.solved;
    }
    leg.block_decisions.push_back(r->decisions);
    leg.decisions += r->decisions;
    leg.conflicts += r->conflicts;
  }
  return leg;
}

const char* OutcomeName(DuelOutcome o) {
  switch (o) {
    case DuelOutcome::kSat:
      return "SAT";
    case DuelOutcome::kUnsat:
      return "UNSAT";
    case DuelOutcome::kExhausted:
      return "exhausted";
    case DuelOutcome::kError:
      return "error";
  }
  return "?";
}

PipelineOutcome RunPipeline(const Population& pop,
                            const std::vector<BlockTables>& tables,
                            const std::vector<CommercialEntry>& commercial,
                            const ReconstructOptions& opts) {
  std::vector<BlockReconstruction> per_block;
  PipelineOutcome out;
  out.recon = ReconstructPopulation(pop, tables, opts, &per_block);
  out.reid = Reidentify(pop, per_block, commercial, /*age_tolerance=*/1,
                        opts.pool);
  return out;
}

int Run(int argc, char** argv) {
  bench::BenchContext ctx =
      bench::MakeBenchContext("bench_census_reconstruction", argc, argv);
  std::unique_ptr<ThreadPool> pool = bench::MakePool(ctx.threads);
  bench::Banner(
      "E9: reconstruction-abetted re-identification of census tables",
      "2010-style exact tables: most blocks solved exactly, most of the "
      "population reconstructed, confirmed re-identification orders of "
      "magnitude above the 0.003% prior estimate; DP tables break the "
      "attack");

  PopulationOptions popts;
  popts.num_blocks = 150;
  popts.min_block_size = 2;
  popts.max_block_size = 9;
  Rng rng(0x2010);
  Population pop = GeneratePopulation(popts, rng);
  std::printf("population: %zu persons in %zu blocks (size %zu..%zu)\n\n",
              pop.total_persons, pop.blocks.size(), popts.min_block_size,
              popts.max_block_size);

  CommercialOptions copts;  // 60% coverage, 10% age errors
  Rng crng(0xC0ffee);
  auto commercial = SimulateCommercialDatabase(pop, copts, crng);

  std::vector<BlockTables> exact;
  exact.reserve(pop.blocks.size());
  for (const Block& b : pop.blocks) exact.push_back(Tabulate(b));

  ReconstructOptions ropts;
  ropts.max_solutions = 64;
  ropts.max_nodes = 500000;
  ropts.pool = pool.get();
  PipelineOutcome swdb = RunPipeline(pop, exact, commercial, ropts);

  TextTable table({"release", "blocks exact", "persons exact",
                   "putative reid", "confirmed reid", "precision"});
  auto add_row = [&](const std::string& name, const PipelineOutcome& o) {
    table.AddRow({name,
                  StrFormat("%.1f%%", 100.0 * o.recon.block_unique_fraction()),
                  StrFormat("%.1f%%", 100.0 * o.recon.person_exact_fraction()),
                  StrFormat("%.2f%%", 100.0 * o.reid.putative_rate()),
                  StrFormat("%.2f%%", 100.0 * o.reid.confirmed_rate()),
                  StrFormat("%.2f", o.reid.precision())});
  };
  add_row("exact tables (2010 SF1-style)", swdb);

  std::vector<double> dp_confirmed;
  ReconstructOptions dp_ropts;
  dp_ropts.max_solutions = 16;
  dp_ropts.max_nodes = 150000;
  dp_ropts.pool = pool.get();
  for (double eps : {2.0, 0.5}) {
    Rng dprng(0xD0 + static_cast<uint64_t>(eps * 10));
    std::vector<BlockTables> noisy;
    noisy.reserve(pop.blocks.size());
    for (const Block& b : pop.blocks) {
      noisy.push_back(TabulateDp(b, eps, dprng));
    }
    PipelineOutcome o = RunPipeline(pop, noisy, commercial, dp_ropts);
    add_row(StrFormat("DP tables (eps=%.1f)", eps), o);
    dp_confirmed.push_back(o.reid.confirmed_rate());
  }
  table.Print();

  // Solver cross-validation: the SAT engine (CDCL over the
  // sequential-counter cardinality encoding of the same CountCsp) must
  // agree with the CSP engine blockwise. Exact tables always admit the
  // true block, so agreement means a SAT solution that fits every window
  // of the block's tables.
  size_t sat_checked = 0;
  size_t sat_agree = 0;
  for (size_t b = 0; b < std::min<size_t>(pop.blocks.size(), 40); ++b) {
    auto sat = ReconstructBlockSat(exact[b], /*max_decisions=*/500000);
    if (!sat.ok()) continue;
    ++sat_checked;
    if (sat->satisfiable &&
        ConsistentWithTables(exact[b], sat->reconstructed)) {
      ++sat_agree;
    }
  }
  std::printf(
      "\nSAT cross-check: %zu/%zu block solutions fit every window of "
      "their tables.\n",
      sat_agree, sat_checked);

  // ---- SAT budget leg: CDCL under a fixed decision budget. ----
  // Block set: a handful of exact-table blocks (propagation-complete,
  // decided in a few decisions) plus one perturbed infeasible block per
  // escalating size. Same decision budget for every block.
  std::vector<BlockTables> duel_tables;
  std::vector<std::string> duel_labels;
  for (size_t b = 0; b < std::min<size_t>(pop.blocks.size(), 4); ++b) {
    duel_tables.push_back(exact[b]);
    duel_labels.push_back(
        StrFormat("exact block %zu (%zu persons)", b,
                  pop.blocks[b].persons.size()));
  }
  for (size_t size : kDuelPerturbedSizes) {
    PopulationOptions single;
    single.num_blocks = 1;
    single.min_block_size = size;
    single.max_block_size = size;
    Rng duel_rng(0x2021);
    Population one = GeneratePopulation(single, duel_rng);
    BlockTables t = Tabulate(one.blocks[0]);
    if (!PerturbOverloadedBucket(t, /*delta=*/4)) continue;
    duel_tables.push_back(t);
    duel_labels.push_back(
        StrFormat("perturbed block (%zu persons, infeasible)", size));
  }
  SatDuelLeg cdcl = RunSatDuelLeg(duel_tables);

  std::printf("\n-- SAT budget leg (decision budget %zu per block) --\n",
              kDuelBudget);
  TextTable duel({"block", "cdcl", "cdcl dec"});
  for (size_t i = 0; i < duel_tables.size(); ++i) {
    duel.AddRow({duel_labels[i], OutcomeName(cdcl.outcomes[i]),
                 StrFormat("%zu", cdcl.block_decisions[i])});
  }
  duel.AddRow({"aggregate",
               StrFormat("%zu/%zu solved", cdcl.solved, duel_tables.size()),
               StrFormat("%zu", cdcl.decisions)});
  duel.Print();
  std::printf("budget leg: cdcl %zu conflicts\n", cdcl.conflicts);

  const double prior_estimate = 0.00003;  // the 0.003% pre-2010 figure
  std::printf(
      "\nconfirmed re-identification vs prior risk estimate (0.003%%): "
      "x%.0f\n",
      swdb.reid.confirmed_rate() / prior_estimate);

  bench::ShapeChecks checks;
  checks.CheckBetween(swdb.recon.block_unique_fraction(), 0.45, 1.0,
                      "most blocks solved exactly from exact tables");
  checks.CheckBetween(swdb.recon.person_exact_fraction(), 0.6, 1.0,
                      "majority of population reconstructed exactly "
                      "(paper: 71% with age to the year)");
  checks.CheckGreater(swdb.reid.confirmed_rate(), 100.0 * prior_estimate,
                      "confirmed reid dwarfs the 0.003% prior (paper: "
                      "x~4500)");
  checks.CheckGreater(swdb.reid.precision(), 0.5,
                      "most putative claims confirm");
  checks.CheckGreater(swdb.reid.confirmed_rate(), 4.0 * dp_confirmed[1],
                      "strong DP tables collapse confirmed reid");
  checks.CheckGreater(dp_confirmed[0] + 0.02, dp_confirmed[1],
                      "looser eps leaks at least as much as tighter eps");
  checks.Check(sat_checked > 0 && sat_agree == sat_checked,
               "the SAT engine agrees with the CSP engine on every "
               "checked block");
  checks.Check(cdcl.exhausted == 0,
               "CDCL decides every duel block within the budget");
  return bench::FinishBench(ctx, "E9", checks, pool.get());
}

}  // namespace
}  // namespace pso::census

int main(int argc, char** argv) { return pso::census::Run(argc, argv); }
