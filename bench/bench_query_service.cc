// QS — the end-to-end service loop: a live statistical-query service
// under reconstruction load (Cohen–Nissim, "Linear Program
// Reconstruction in Practice"). A QueryService answers counting queries
// for 24 simulated clients; the recorded transcript feeds the LP decoder
// AS A CLIENT. Two legs:
//
//   exact — unmetered exact answers: the transcript reconstructs the
//           secret perfectly (the blatant non-privacy baseline);
//   dp    — Laplace(1/0.25) per answer with a per-client budget of 2.0:
//           each client gets exactly 8 answers then 2 refusals, and the
//           reconstruction measurably degrades.
//
// Deterministic section (gated by tools/bench_diff.py): every counter
// (service.queries, service.budget_rejections, loadgen.*) and histogram
// event count. The service.answer histogram carries the per-query
// latency distribution (p50/p99/p999) and the throughput section derives
// queries/sec from it — run-dependent, reported but never gated.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/table.h"
#include "recon/attacks.h"
#include "recon/oracle.h"
#include "service/loadgen.h"
#include "service/query_service.h"

namespace pso {
namespace {

// 24 clients x 10 queries = 240 recorded queries = 5n at n = 48 — the
// same m/n ratio E2 (bench_recon_lp) pins for exact LP decoding; much
// past that the decode LP (one residual column + two rows per query)
// outgrows the simplex iteration budget.
constexpr size_t kN = 48;
constexpr size_t kClients = 24;
constexpr size_t kQueriesPerClient = 10;
constexpr uint64_t kSeed = 1217;

struct LegResult {
  service::Transcript transcript;
  double accuracy = 0.0;
};

// One load round + transcript decode against a fresh service.
LegResult RunLeg(const service::QueryServiceOptions& svc_opts,
                 const std::vector<uint8_t>& secret, uint64_t query_seed,
                 ThreadPool* pool) {
  service::QueryService svc(secret, svc_opts);
  service::LoadGenOptions lopts;
  lopts.n = kN;
  lopts.num_clients = kClients;
  lopts.queries_per_client = kQueriesPerClient;
  lopts.batch_size = 8;
  lopts.query_seed = query_seed;
  lopts.pool = pool;
  Result<service::Transcript> transcript = service::RunLoad(
      lopts, [&svc](uint64_t) -> std::unique_ptr<service::QueryTransport> {
        return std::make_unique<service::InProcessTransport>(&svc);
      });
  PSO_CHECK_MSG(transcript.ok(), transcript.status().ToString().c_str());
  LegResult leg;
  leg.transcript = std::move(transcript).value();
  Result<recon::Reconstruction> rec =
      service::DecodeTranscript(leg.transcript, service::Decoder::kLp);
  PSO_CHECK_MSG(rec.ok(), rec.status().ToString().c_str());
  leg.accuracy = recon::FractionAgree(rec->estimate, secret);
  return leg;
}

int Run(int argc, char** argv) {
  bench::BenchContext ctx =
      bench::MakeBenchContext("bench_query_service", argc, argv);
  bench::Banner(
      "QS: live query service under reconstruction load",
      "an interactive service answering counting queries is reconstructed "
      "by an external client from its released answers alone; per-query "
      "DP noise plus a per-client budget degrades the attack");

  std::unique_ptr<ThreadPool> pool = bench::MakePool(ctx.threads);
  Rng rng(kSeed);
  const std::vector<uint8_t> secret = recon::RandomBits(kN, rng);

  // Exact leg (the main-loop iteration the latency histogram tracks).
  service::QueryServiceOptions exact_opts;
  LegResult exact = bench::TimedIteration(
      [&] { return RunLeg(exact_opts, secret, kSeed + 1, pool.get()); });

  // DP leg: eps 0.25 per answer, budget 2.0 => exactly 8 answers + 2
  // refusals per client, deterministic at any thread count.
  service::QueryServiceOptions dp_opts;
  dp_opts.eps_per_query = 0.25;
  dp_opts.client_budget_eps = 2.0;
  dp_opts.noise_seed = kSeed;
  LegResult dp = bench::TimedIteration(
      [&] { return RunLeg(dp_opts, secret, kSeed + 1, pool.get()); });

  TextTable table({"leg", "clients", "queries", "answered", "rejected",
                   "accuracy"});
  const auto Row = [&](const char* name, const LegResult& leg) {
    table.AddRow({name, StrFormat("%zu", kClients),
                  StrFormat("%zu", leg.transcript.entries.size()),
                  StrFormat("%llu",
                            (unsigned long long)leg.transcript.answered()),
                  StrFormat("%llu",
                            (unsigned long long)leg.transcript.rejected()),
                  StrFormat("%.4f", leg.accuracy)});
  };
  Row("exact", exact);
  Row("dp eps=0.25 budget=2.0", dp);
  table.Print();

  // Per-query latency + throughput from the service.answer histogram
  // (run-dependent; the deterministic part is its event count).
  {
    const metrics::Snapshot snap = metrics::Registry::Global().TakeSnapshot();
    const auto it = snap.histograms.find("service.answer");
    if (it != snap.histograms.end()) {
      const auto& hv = it->second;
      const double wall = ctx.Seconds();
      std::printf(
          "\nservice.answer: %llu events, p50=%.3gs p99=%.3gs p999=%.3gs, "
          "~%.0f queries/sec over the run\n",
          (unsigned long long)hv.count, hv.ValueAtQuantile(0.50),
          hv.ValueAtQuantile(0.99), hv.ValueAtQuantile(0.999),
          wall > 0.0 ? static_cast<double>(hv.count) / wall : 0.0);
    }
  }

  bench::ShapeChecks checks;
  checks.Check(exact.accuracy == 1.0,
               "exact service: transcript decodes to the secret exactly");
  checks.Check(exact.transcript.rejected() == 0,
               "exact service: unmetered, no refusals");
  checks.Check(dp.transcript.answered() == kClients * 8,
               "dp budget admits exactly 8 answers per client");
  checks.Check(dp.transcript.rejected() == kClients * 2,
               "dp budget refuses exactly 2 queries per client");
  checks.CheckBetween(dp.accuracy, 0.0, 0.98,
                      "dp serving degrades reconstruction");
  checks.CheckGreater(exact.accuracy, dp.accuracy,
                      "exact transcript beats the noisy one");
  return bench::FinishBench(ctx, "QS", checks, pool.get());
}

}  // namespace
}  // namespace pso

int main(int argc, char** argv) {
  return pso::Run(argc, argv);
}
