// psoctl — command-line front-end for libpso's experiments.
//
//   psoctl game    --mechanism {mondrian,datafly,count,laplace,geometric,
//                               identity,pair} --adversary {hash,minimality,
//                               trivial,counttuned,unique,decrypt}
//                  [--n 400] [--k 5] [--eps 1.0] [--trials 100]
//                  [--tau 0] [--seed 1]
//   psoctl census  [--blocks 50] [--min-size 2] [--max-size 8] [--eps 0]
//                  [--dp-median] [--sat] [--seed 1]
//   psoctl linkage [--n 10000] [--coverage 0.75] [--k 0] [--seed 1]
//   psoctl recon   [--n 64] [--queries 320] [--alpha 2.0]
//                  [--decoder {lp,lsq,exhaustive}] [--seed 1]
//   psoctl audit   [--eps 1.0] [--trials 300000] [--seed 1]
//   psoctl membership [--attrs 300] [--pool 50] [--eps 0] [--trials 200]
//   psoctl serve   [--n 48] [--eps 0] [--budget 0] [--port 0]
//                  [--port-file FILE] [--max-batch 64] [--seed 1]
//   psoctl load    {--port P | --port-file FILE} [--clients 64]
//                  [--queries 10] [--batch 8] [--decoder {lp,lsq,none}]
//                  [--transcript FILE] [--min-accuracy A]
//                  [--max-accuracy A] [--expect-rejections] [--seed 1]
//
// `serve` runs a statistical-query service over a random secret dataset
// drawn from --seed: counting queries on 127.0.0.1 (--port 0 picks an
// ephemeral port, published via --port-file). With --eps > 0 every
// answer carries Laplace(1/eps) noise and charges the issuing client's
// budget (--budget, 0 = unmetered); an over-budget client is refused.
// SIGTERM/SIGINT shut it down cleanly (in-flight connections drain).
//
// `load` attacks a running `serve`: --clients concurrent clients each
// issue --queries random subset queries (pipelined in batches of
// --batch), the (query, answer) transcript is recorded, and the chosen
// decoder reconstructs the secret FROM THE TRANSCRIPT ALONE. Accuracy is
// scored by regenerating the secret from the shared --seed. The
// --min-accuracy / --max-accuracy / --expect-rejections gates turn the
// run into an assertion (exit 1 on violation): exact serving must
// reconstruct perfectly, DP serving must degrade and reject.
//
// Every subcommand also accepts --threads N (default: hardware
// concurrency; 1 = serial). Every run is deterministic given --seed at
// ANY thread count: trials draw counter-derived RNG streams and partial
// results merge in a fixed order, so --threads changes only wall clock.
//
// --metrics dumps the global metric registry (solver counters, spans,
// latency histograms, pool gauges) after the subcommand finishes.
// --metrics-format {text,json,prom} selects the rendering (default text;
// prom is Prometheus exposition text). Counters and histogram bucket
// tallies are deterministic given --seed and --threads; gauges and span
// durations are wall-clock artifacts.
//
// --trace FILE records a hierarchical execution trace (pipeline spans,
// per-chunk parallel regions, LP pivot / SAT decision events) and writes
// it as Chrome trace-event JSON — load it at ui.perfetto.dev; a trace that
// cannot be written makes an otherwise successful run exit 1. --log-level
// {debug,info,warn,error} sets the structured-log threshold (default
// warn; JSON lines on stderr).
//
// Unknown or malformed flags are rejected: each subcommand declares the
// flags it accepts, and anything else prints usage and exits non-zero.
// Out-of-range values (a count below its minimum, a negative epsilon,
// --n above 24 for --decoder exhaustive) print "invalid flags: ..." and
// exit 2.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "census/reconstruct.h"
#include "census/reidentify.h"
#include "census/sat_reconstruct.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "common/table.h"
#include "common/trace.h"
#include "data/generators.h"
#include "dp/audit.h"
#include "dp/mechanisms.h"
#include "kanon/datafly.h"
#include "legal/verdict.h"
#include "linkage/join_attack.h"
#include "membership/membership.h"
#include "pso/adversaries.h"
#include "pso/game.h"
#include "pso/mechanisms.h"
#include "recon/attacks.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/query_service.h"
#include "service/server.h"
#include "tools/flags.h"

namespace pso::tools {
namespace {

/// Builds the worker pool requested by --threads (null when serial).
std::unique_ptr<ThreadPool> MakePool(const Flags& flags) {
  const size_t threads = flags.GetThreads();
  return threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: psoctl {game|census|linkage|recon|audit|membership|serve|"
      "load} [--flags]\n  (see the header of tools/psoctl.cc for the full "
      "flag list)\n");
  return 2;
}

// Flags every subcommand accepts.
const std::vector<FlagSpec> kCommonFlags = {
    {"threads", FlagSpec::Type::kInt},
    {"seed", FlagSpec::Type::kInt},
    {"metrics", FlagSpec::Type::kBool},
    {"metrics-format", FlagSpec::Type::kString},
    {"trace", FlagSpec::Type::kString},
    {"log-level", FlagSpec::Type::kString},
};

// The full flag table for `command`; empty for an unknown command.
std::vector<FlagSpec> CommandFlags(const std::string& command) {
  std::vector<FlagSpec> specs;
  if (command == "game") {
    specs = {{"mechanism", FlagSpec::Type::kString},
             {"adversary", FlagSpec::Type::kString},
             {"n", FlagSpec::Type::kInt},
             {"k", FlagSpec::Type::kInt},
             {"eps", FlagSpec::Type::kDouble},
             {"trials", FlagSpec::Type::kInt},
             {"tau", FlagSpec::Type::kDouble}};
  } else if (command == "census") {
    specs = {{"blocks", FlagSpec::Type::kInt},
             {"min-size", FlagSpec::Type::kInt},
             {"max-size", FlagSpec::Type::kInt},
             {"eps", FlagSpec::Type::kDouble},
             {"dp-median", FlagSpec::Type::kBool},
             {"sat", FlagSpec::Type::kBool}};
  } else if (command == "linkage") {
    specs = {{"n", FlagSpec::Type::kInt},
             {"coverage", FlagSpec::Type::kDouble},
             {"k", FlagSpec::Type::kInt}};
  } else if (command == "recon") {
    specs = {{"n", FlagSpec::Type::kInt},
             {"queries", FlagSpec::Type::kInt},
             {"alpha", FlagSpec::Type::kDouble},
             {"decoder", FlagSpec::Type::kString}};
  } else if (command == "audit") {
    specs = {{"eps", FlagSpec::Type::kDouble},
             {"trials", FlagSpec::Type::kInt}};
  } else if (command == "membership") {
    specs = {{"attrs", FlagSpec::Type::kInt},
             {"pool", FlagSpec::Type::kInt},
             {"eps", FlagSpec::Type::kDouble},
             {"trials", FlagSpec::Type::kInt}};
  } else if (command == "serve") {
    specs = {{"n", FlagSpec::Type::kInt},
             {"eps", FlagSpec::Type::kDouble},
             {"budget", FlagSpec::Type::kDouble},
             {"port", FlagSpec::Type::kInt},
             {"port-file", FlagSpec::Type::kString},
             {"max-batch", FlagSpec::Type::kInt}};
  } else if (command == "load") {
    specs = {{"port", FlagSpec::Type::kInt},
             {"port-file", FlagSpec::Type::kString},
             {"clients", FlagSpec::Type::kInt},
             {"queries", FlagSpec::Type::kInt},
             {"batch", FlagSpec::Type::kInt},
             {"decoder", FlagSpec::Type::kString},
             {"transcript", FlagSpec::Type::kString},
             {"min-accuracy", FlagSpec::Type::kDouble},
             {"max-accuracy", FlagSpec::Type::kDouble},
             {"expect-rejections", FlagSpec::Type::kBool}};
  } else {
    return specs;
  }
  specs.insert(specs.end(), kCommonFlags.begin(), kCommonFlags.end());
  return specs;
}

int RunGame(const Flags& flags) {
  Universe u = MakeGicMedicalUniverse();
  if (flags.GetInt("n", 400) < 2 || flags.GetInt("trials", 100) < 1 ||
      flags.GetInt("k", 5) < 1 || flags.GetDouble("eps", 1.0) <= 0.0) {
    std::fprintf(stderr,
                 "invalid flags: need --n >= 2, --trials >= 1, --k >= 1, "
                 "--eps > 0\n");
    return 2;
  }
  const size_t n = static_cast<size_t>(flags.GetInt("n", 400));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 5));
  const double eps = flags.GetDouble("eps", 1.0);
  auto q = MakeAttributeEquals(3, 0, "sex");

  std::string mech_name = flags.GetString("mechanism", "mondrian");
  MechanismRef mech;
  if (mech_name == "mondrian" || mech_name == "datafly") {
    mech = MakeKAnonymityMechanism(
        mech_name == "mondrian" ? KAnonAlgorithm::kMondrian
                                : KAnonAlgorithm::kDatafly,
        k, kanon::HierarchySet::Defaults(u.schema), {});
  } else if (mech_name == "count") {
    mech = MakeCountMechanism(q, "sex=F");
  } else if (mech_name == "laplace") {
    mech = MakeLaplaceCountMechanism(q, "sex=F", eps);
  } else if (mech_name == "geometric") {
    mech = MakeGeometricCountMechanism(q, "sex=F", eps);
  } else if (mech_name == "identity") {
    mech = MakeIdentityMechanism();
  } else if (mech_name == "pair") {
    mech = MakeBundleMechanism(
        {MakeCiphertextMechanism(), MakePadMechanism()});
  } else {
    std::fprintf(stderr, "unknown mechanism '%s'\n", mech_name.c_str());
    return 2;
  }

  std::string adv_name = flags.GetString("adversary", "minimality");
  AdversaryRef adv;
  if (adv_name == "hash") {
    adv = MakeKAnonHashAdversary();
  } else if (adv_name == "minimality") {
    adv = MakeKAnonMinimalityAdversary();
  } else if (adv_name == "trivial") {
    adv = MakeTrivialHashAdversary(1.0 / (10.0 * static_cast<double>(n)));
  } else if (adv_name == "counttuned") {
    adv = MakeCountTunedAdversary(q, "sex=F");
  } else if (adv_name == "unique") {
    adv = MakeUniqueRecordAdversary();
  } else if (adv_name == "decrypt") {
    adv = MakeDecryptPairAdversary();
  } else {
    std::fprintf(stderr, "unknown adversary '%s'\n", adv_name.c_str());
    return 2;
  }

  auto pool = MakePool(flags);
  PsoGameOptions opts;
  opts.trials = static_cast<size_t>(flags.GetInt("trials", 100));
  opts.weight_threshold = flags.GetDouble("tau", 0.0);
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  opts.pool = pool.get();
  PsoGame game(u.distribution, n, opts);
  PsoGameResult result = game.Run(*mech, *adv);
  RecordPoolGauges(pool.get());
  std::printf("%s\n", result.Summary().c_str());

  legal::LegalClaim claim =
      legal::EvaluateSinglingOutClaim(mech->Name(), {result});
  std::printf("\n%s", claim.ToString().c_str());
  return 0;
}

int RunCensus(const Flags& flags) {
  if (flags.GetInt("blocks", 50) < 1 || flags.GetInt("min-size", 2) < 1 ||
      flags.GetInt("max-size", 8) < flags.GetInt("min-size", 2)) {
    std::fprintf(stderr,
                 "invalid flags: need --blocks >= 1 and 1 <= --min-size <= "
                 "--max-size\n");
    return 2;
  }
  census::PopulationOptions popts;
  popts.num_blocks = static_cast<size_t>(flags.GetInt("blocks", 50));
  popts.min_block_size = static_cast<size_t>(flags.GetInt("min-size", 2));
  popts.max_block_size = static_cast<size_t>(flags.GetInt("max-size", 8));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  census::Population pop = census::GeneratePopulation(popts, rng);

  const double eps = flags.GetDouble("eps", 0.0);
  std::vector<census::BlockTables> tables;
  for (const auto& b : pop.blocks) {
    tables.push_back(eps > 0.0
                         ? census::TabulateDp(b, eps, rng,
                                              flags.GetBool("dp-median",
                                                            false))
                         : census::Tabulate(b));
  }
  auto pool = MakePool(flags);
  census::ReconstructOptions ropts;
  ropts.pool = pool.get();
  std::vector<census::BlockReconstruction> per_block;
  census::ReconstructionReport recon =
      census::ReconstructPopulation(pop, tables, ropts, &per_block);
  census::CommercialOptions copts;
  auto commercial = census::SimulateCommercialDatabase(pop, copts, rng);
  census::ReidentificationReport reid = census::Reidentify(
      pop, per_block, commercial, /*age_tolerance=*/1, pool.get());
  RecordPoolGauges(pool.get());

  // --sat: cross-check each block on the CDCL engine. A block agrees
  // when the SAT solution, if any, fits every window of the block's
  // tables and, where the CSP engine reached a verdict, both engines
  // reach the same one. A CSP search stopped at its node cap with no
  // solution has no verdict, and neither has a block whose published
  // total is 0, which ReconstructBlock does not search. Budget
  // exhaustions are first-class outcomes.
  size_t sat_checked = 0;
  size_t sat_agree = 0;
  size_t sat_exhausted = 0;
  size_t sat_decisions = 0;
  size_t csp_capped = 0;
  const bool run_sat = flags.GetBool("sat", false);
  if (run_sat) {
    for (size_t b = 0; b < pop.blocks.size(); ++b) {
      auto sat =
          census::ReconstructBlockSat(tables[b], /*max_decisions=*/500000);
      if (!sat.ok()) continue;
      ++sat_checked;
      sat_decisions += sat->decisions;
      const bool csp_found = per_block[b].solutions_found > 0;
      const bool csp_capped_here = !per_block[b].exhausted && !csp_found;
      if (csp_capped_here) ++csp_capped;
      const bool csp_decided = tables[b].total > 0 && !csp_capped_here;
      if (sat->budget_exhausted) {
        ++sat_exhausted;
        continue;
      }
      const bool verdicts_agree =
          !csp_decided || sat->satisfiable == csp_found;
      const bool fits =
          !sat->satisfiable ||
          census::ConsistentWithTables(tables[b], sat->reconstructed);
      if (verdicts_agree && fits) ++sat_agree;
    }
  }

  TextTable table({"metric", "value"});
  table.AddRow({"persons", StrFormat("%zu", pop.total_persons)});
  table.AddRow({"tables", eps > 0.0 ? StrFormat("DP (eps=%.2f)", eps)
                                    : "exact"});
  table.AddRow({"blocks solved exactly",
                StrFormat("%.1f%%", 100.0 * recon.block_unique_fraction())});
  table.AddRow({"persons reconstructed exactly",
                StrFormat("%.1f%%", 100.0 * recon.person_exact_fraction())});
  table.AddRow({"putative re-identifications",
                StrFormat("%.2f%%", 100.0 * reid.putative_rate())});
  table.AddRow({"confirmed re-identifications",
                StrFormat("%.2f%%", 100.0 * reid.confirmed_rate())});
  if (run_sat) {
    table.AddRow({"SAT blocks agreeing",
                  StrFormat("%zu/%zu", sat_agree, sat_checked)});
    table.AddRow({"SAT budget exhausted", StrFormat("%zu", sat_exhausted)});
    table.AddRow({"CSP capped without a verdict",
                  StrFormat("%zu", csp_capped)});
    table.AddRow({"SAT decisions", StrFormat("%zu", sat_decisions)});
  }
  table.Print();
  return 0;
}

int RunLinkage(const Flags& flags) {
  const double coverage = flags.GetDouble("coverage", 0.75);
  if (flags.GetInt("n", 10000) < 1 || flags.GetInt("k", 0) < 0 ||
      !(coverage >= 0.0 && coverage <= 1.0)) {
    std::fprintf(stderr,
                 "invalid flags: need --n >= 1, --k >= 0, "
                 "0 <= --coverage <= 1\n");
    return 2;
  }
  Universe u = MakeGicMedicalUniverse(200);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  linkage::IdentifiedPopulation pop = linkage::SamplePopulation(
      u, static_cast<size_t>(flags.GetInt("n", 10000)), rng);
  std::vector<size_t> qi = {0, 1, 2, 3};
  auto voters = linkage::BuildVoterFile(pop, qi, coverage, rng);

  const size_t k = static_cast<size_t>(flags.GetInt("k", 0));
  linkage::LinkageReport report;
  if (k >= 2) {
    kanon::DataflyOptions dopts;
    dopts.k = k;
    dopts.qi_attrs = qi;
    dopts.max_suppression = 0.05;
    auto anon = kanon::DataflyAnonymize(
        pop.records, kanon::HierarchySet::Defaults(u.schema), dopts);
    if (!anon.ok()) {
      std::fprintf(stderr, "anonymization failed: %s\n",
                   anon.status().ToString().c_str());
      return 1;
    }
    report =
        linkage::JoinAttackGeneralized(pop, anon->generalized, voters, qi);
  } else {
    report = linkage::JoinAttack(pop, voters, qi);
  }
  std::printf(
      "release=%s  records=%zu  voters=%zu  claims=%zu  confirmed=%zu "
      "(%.2f%% of the population)\n",
      k >= 2 ? StrFormat("%zu-anonymous", k).c_str() : "raw",
      report.released_records, report.voter_entries, report.claims,
      report.confirmed, 100.0 * report.confirmed_rate());
  return 0;
}

int RunRecon(const Flags& flags) {
  const std::string decoder = flags.GetString("decoder", "lsq");
  const int64_t n_flag = flags.GetInt("n", 64);
  if (n_flag < 1 || (decoder == "exhaustive" && n_flag > 24) ||
      flags.GetInt("queries", 320) < 1 ||
      !(flags.GetDouble("alpha", 2.0) >= 0.0)) {
    std::fprintf(stderr,
                 "invalid flags: need --n >= 1 (<= 24 for --decoder "
                 "exhaustive), --queries >= 1, --alpha >= 0\n");
    return 2;
  }
  const size_t n = static_cast<size_t>(n_flag);
  const size_t queries = static_cast<size_t>(flags.GetInt("queries", 320));
  const double alpha = flags.GetDouble("alpha", 2.0);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  auto secret = recon::RandomBits(n, rng);
  recon::BoundedNoiseOracle oracle(secret, alpha, 17);

  recon::Reconstruction result;
  if (decoder == "lp") {
    auto r = recon::LpReconstruct(oracle, queries, rng);
    if (!r.ok()) {
      std::fprintf(stderr, "LP failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    result = std::move(r).value();
  } else if (decoder == "lsq") {
    result = recon::LeastSquaresReconstruct(oracle, queries, rng);
  } else if (decoder == "exhaustive") {
    auto pool = MakePool(flags);
    result = recon::ExhaustiveReconstruct(oracle, alpha, pool.get());
    RecordPoolGauges(pool.get());
  } else {
    std::fprintf(stderr, "unknown decoder '%s'\n", decoder.c_str());
    return 2;
  }
  std::printf("n=%zu queries=%zu alpha=%.2f decoder=%s -> accuracy %.3f\n",
              n, result.queries_used, alpha, decoder.c_str(),
              recon::FractionAgree(result.estimate, secret));
  return 0;
}

int RunAudit(const Flags& flags) {
  if (flags.GetInt("trials", 300000) < 1 ||
      !(flags.GetDouble("eps", 1.0) > 0.0)) {
    std::fprintf(stderr, "invalid flags: need --trials >= 1, --eps > 0\n");
    return 2;
  }
  const double eps = flags.GetDouble("eps", 1.0);
  const size_t trials = static_cast<size_t>(flags.GetInt("trials", 300000));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  dp::BucketizedMechanism mech = [eps](int which, Rng& r) {
    double count = which == 0 ? 10.0 : 11.0;
    return static_cast<int64_t>(
        std::llround((count + r.Laplace(1.0 / eps)) * 2.0));
  };
  dp::AuditResult audit = dp::AuditPrivacyLoss(mech, trials, rng, 2000);
  std::printf(
      "Laplace count, declared eps=%.3f: measured eps-hat=%.3f over %zu "
      "buckets (%zu trials per input)\n",
      eps, audit.empirical_eps, audit.buckets_compared,
      audit.trials_per_input);
  return 0;
}

int RunMembership(const Flags& flags) {
  if (flags.GetInt("attrs", 300) < 1 || flags.GetInt("pool", 50) < 2 ||
      flags.GetInt("trials", 200) < 1 ||
      !(flags.GetDouble("eps", 0.0) >= 0.0)) {
    std::fprintf(stderr,
                 "invalid flags: need --attrs >= 1, --pool >= 2, "
                 "--trials >= 1, --eps >= 0\n");
    return 2;
  }
  Universe u = MakeGenotypeUniverse(flags.GetInt("attrs", 300),
                                    /*freq_seed=*/0x6e0);
  auto workers = MakePool(flags);
  membership::MembershipOptions opts;
  opts.pool_size = static_cast<size_t>(flags.GetInt("pool", 50));
  opts.trials = static_cast<size_t>(flags.GetInt("trials", 200));
  opts.eps = flags.GetDouble("eps", 0.0);
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  opts.pool = workers.get();
  membership::MembershipResult r =
      membership::RunMembershipExperiment(u, opts);
  RecordPoolGauges(workers.get());
  std::printf(
      "attrs=%lld pool=%zu eps=%s -> AUC=%.3f advantage=%.3f "
      "E[T|in]=%.2f E[T|out]=%.2f\n",
      (long long)flags.GetInt("attrs", 300), opts.pool_size,
      opts.eps > 0 ? StrFormat("%.2f", opts.eps).c_str() : "exact", r.auc,
      r.advantage, r.mean_in, r.mean_out);
  return 0;
}

// The serve signal handler's target. RequestShutdown is async-signal-
// safe (atomic store + shutdown(2)), so the handler does nothing else.
std::atomic<service::QueryServer*> g_serve_server{nullptr};

extern "C" void ServeSignalHandler(int) {
  service::QueryServer* server =
      g_serve_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestShutdown();
}

int RunServe(const Flags& flags) {
  if (flags.GetInt("n", 48) < 1 || flags.GetInt("max-batch", 64) < 1 ||
      flags.GetDouble("eps", 0.0) < 0.0 ||
      flags.GetDouble("budget", 0.0) < 0.0) {
    std::fprintf(stderr,
                 "invalid flags: need --n >= 1, --max-batch >= 1, "
                 "--eps >= 0, --budget >= 0\n");
    return 2;
  }
  const size_t n = static_cast<size_t>(flags.GetInt("n", 48));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  Rng rng(seed);
  service::QueryServiceOptions sopts;
  sopts.eps_per_query = flags.GetDouble("eps", 0.0);
  sopts.client_budget_eps = flags.GetDouble("budget", 0.0);
  sopts.noise_seed = seed;
  sopts.max_batch = static_cast<size_t>(flags.GetInt("max-batch", 64));
  service::QueryService svc(recon::RandomBits(n, rng), sopts);

  auto pool = MakePool(flags);
  service::QueryServerOptions ropts;
  ropts.port = static_cast<int>(flags.GetInt("port", 0));
  ropts.port_file = flags.GetString("port-file", "");
  ropts.pool = pool.get();
  service::QueryServer server(&svc, ropts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve: %s\n", started.ToString().c_str());
    return 1;
  }
  g_serve_server.store(&server, std::memory_order_release);
  std::signal(SIGTERM, ServeSignalHandler);
  std::signal(SIGINT, ServeSignalHandler);
  std::printf("serving n=%zu eps=%.3g budget=%.3g port=%d\n", n,
              sopts.eps_per_query, sopts.client_budget_eps, server.port());
  std::fflush(stdout);
  server.Run();
  g_serve_server.store(nullptr, std::memory_order_release);
  RecordPoolGauges(pool.get());
  std::printf("shutdown: connections=%llu answered=%llu rejected=%llu\n",
              static_cast<unsigned long long>(server.connections()),
              static_cast<unsigned long long>(svc.queries_answered()),
              static_cast<unsigned long long>(svc.queries_rejected()));
  return 0;
}

int RunLoadCmd(const Flags& flags) {
  int port = static_cast<int>(flags.GetInt("port", 0));
  const std::string port_file = flags.GetString("port-file", "");
  if (port <= 0 && !port_file.empty()) {
    FILE* f = std::fopen(port_file.c_str(), "r");
    if (f == nullptr || std::fscanf(f, "%d", &port) != 1) {
      if (f != nullptr) std::fclose(f);
      std::fprintf(stderr, "load: cannot read port from %s\n",
                   port_file.c_str());
      return 1;
    }
    std::fclose(f);
  }
  if (port <= 0) {
    std::fprintf(stderr, "load: need --port or --port-file\n");
    return 2;
  }
  if (flags.GetInt("clients", 64) < 1 || flags.GetInt("queries", 10) < 1 ||
      flags.GetInt("batch", 8) < 1) {
    std::fprintf(stderr,
                 "invalid flags: need --clients >= 1, --queries >= 1, "
                 "--batch >= 1\n");
    return 2;
  }
  const std::string decoder = flags.GetString("decoder", "lp");
  if (decoder != "lp" && decoder != "lsq" && decoder != "none") {
    std::fprintf(stderr, "unknown decoder '%s' (use lp|lsq|none)\n",
                 decoder.c_str());
    return 2;
  }

  // Probe the service parameters on a throwaway connection; the dataset
  // size drives query generation and secret regeneration.
  Result<std::unique_ptr<service::SocketTransport>> probe =
      service::SocketTransport::Connect(port);
  if (!probe.ok()) {
    std::fprintf(stderr, "load: %s\n", probe.status().ToString().c_str());
    return 1;
  }
  Result<service::ServiceInfo> info = (*probe)->Info();
  if (!info.ok()) {
    std::fprintf(stderr, "load: INFO probe: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  probe->reset();  // don't hold an idle connection for the whole run

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  auto pool = MakePool(flags);
  service::LoadGenOptions lopts;
  lopts.n = info->n;
  lopts.num_clients = static_cast<size_t>(flags.GetInt("clients", 64));
  lopts.queries_per_client = static_cast<size_t>(flags.GetInt("queries", 10));
  lopts.batch_size = std::min(static_cast<size_t>(flags.GetInt("batch", 8)),
                              info->max_batch);
  lopts.query_seed = seed;
  lopts.pool = pool.get();
  Result<service::Transcript> transcript = service::RunLoad(
      lopts, [port](uint64_t) -> std::unique_ptr<service::QueryTransport> {
        Result<std::unique_ptr<service::SocketTransport>> conn =
            service::SocketTransport::Connect(port);
        if (!conn.ok()) return nullptr;
        return std::move(conn).value();
      });
  RecordPoolGauges(pool.get());
  if (!transcript.ok()) {
    std::fprintf(stderr, "load: %s\n", transcript.status().ToString().c_str());
    return 1;
  }

  const std::string transcript_path = flags.GetString("transcript", "");
  if (!transcript_path.empty()) {
    Status wrote = service::WriteTranscript(*transcript, transcript_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "load: %s\n", wrote.ToString().c_str());
      return 1;
    }
  }

  double accuracy = -1.0;
  if (decoder != "none") {
    Result<recon::Reconstruction> rec = service::DecodeTranscript(
        *transcript, decoder == "lp" ? service::Decoder::kLp
                                     : service::Decoder::kLeastSquares);
    if (!rec.ok()) {
      std::fprintf(stderr, "load: decode: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    // The experiment harness may score: the attacker itself never sees
    // the secret, only the transcript it decoded above.
    Rng srng(seed);
    const std::vector<uint8_t> secret = recon::RandomBits(info->n, srng);
    accuracy = recon::FractionAgree(rec->estimate, secret);
  }

  std::printf(
      "load: n=%zu clients=%zu queries=%llu answered=%llu rejected=%llu "
      "decoder=%s accuracy=%s\n",
      lopts.n, lopts.num_clients,
      static_cast<unsigned long long>(transcript->entries.size()),
      static_cast<unsigned long long>(transcript->answered()),
      static_cast<unsigned long long>(transcript->rejected()),
      decoder.c_str(),
      accuracy < 0.0 ? "n/a" : StrFormat("%.4f", accuracy).c_str());

  // Assertion gates for CI: violations exit non-zero with a diagnosis.
  const double min_accuracy = flags.GetDouble("min-accuracy", -1.0);
  if (min_accuracy >= 0.0 && accuracy < min_accuracy) {
    std::fprintf(stderr, "load: accuracy %.4f below --min-accuracy %.4f\n",
                 accuracy, min_accuracy);
    return 1;
  }
  const double max_accuracy = flags.GetDouble("max-accuracy", 2.0);
  if (accuracy > max_accuracy) {
    std::fprintf(stderr,
                 "load: accuracy %.4f above --max-accuracy %.4f (DP "
                 "degradation did not materialize)\n",
                 accuracy, max_accuracy);
    return 1;
  }
  if (flags.GetBool("expect-rejections", false) &&
      transcript->rejected() == 0) {
    std::fprintf(stderr,
                 "load: --expect-rejections but no query was refused\n");
    return 1;
  }
  return 0;
}

int Dispatch(const std::string& command, const Flags& flags) {
  if (command == "game") return RunGame(flags);
  if (command == "census") return RunCensus(flags);
  if (command == "linkage") return RunLinkage(flags);
  if (command == "recon") return RunRecon(flags);
  if (command == "audit") return RunAudit(flags);
  if (command == "membership") return RunMembership(flags);
  if (command == "serve") return RunServe(flags);
  if (command == "load") return RunLoadCmd(flags);
  return Usage();
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string command = flags.positional()[0];

  std::vector<FlagSpec> specs = CommandFlags(command);
  if (specs.empty()) {
    std::fprintf(stderr, "psoctl: unknown command '%s'\n", command.c_str());
    return Usage();
  }
  std::vector<std::string> errors;
  if (!ValidateFlags(flags, specs, &errors)) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "psoctl %s: %s\n", command.c_str(), e.c_str());
    }
    return Usage();
  }

  const std::string level_name = flags.GetString("log-level", "");
  if (!level_name.empty()) {
    log::Level level;
    if (!log::ParseLevel(level_name, &level)) {
      std::fprintf(stderr,
                   "psoctl: invalid --log-level '%s' "
                   "(use debug|info|warn|error)\n",
                   level_name.c_str());
      return Usage();
    }
    log::SetMinLevel(level);
  }
  const std::string metrics_format = flags.GetString("metrics-format", "text");
  if (metrics_format != "text" && metrics_format != "json" &&
      metrics_format != "prom") {
    std::fprintf(stderr,
                 "psoctl: invalid --metrics-format '%s' "
                 "(use text|json|prom)\n",
                 metrics_format.c_str());
    return Usage();
  }
  const std::string trace_path = flags.GetString("trace", "");
  if (!trace_path.empty()) {
    trace::Collector::Global().Enable();
    // Remembered so an aborting PSO_CHECK still flushes a partial trace.
    trace::Collector::Global().SetFlushPath(trace_path);
  }

  int rc = Dispatch(command, flags);
  if (flags.GetBool("metrics", false)) {
    const metrics::Snapshot snap = metrics::Registry::Global().TakeSnapshot();
    if (metrics_format == "json") {
      std::printf("%s\n", metrics::SnapshotToJson(snap).c_str());
    } else if (metrics_format == "prom") {
      std::printf("%s", metrics::ExpositionToProm(snap).c_str());
    } else {
      std::printf("\n-- metric registry --\n%s",
                  metrics::SnapshotToText(snap).c_str());
    }
  }
  if (!trace_path.empty()) {
    if (trace::Collector::Global().WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
    } else if (rc == 0) {
      rc = 1;  // the requested trace is lost: not a success
    }
    trace::Collector::Global().Disable();
  }
  return rc;
}

}  // namespace
}  // namespace pso::tools

int main(int argc, char** argv) { return pso::tools::Main(argc, argv); }
