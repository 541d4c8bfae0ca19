#include "service/query_service.h"

#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "common/trace.h"

namespace pso::service {

QueryService::QueryService(std::vector<uint8_t> secret,
                           const QueryServiceOptions& options)
    : secret_(std::move(secret)),
      options_(options),
      ledger_(options.eps_per_query > 0.0 ? options.client_budget_eps : 0.0),
      queries_counter_(metrics::GetCounter("service.queries")),
      rejections_counter_(metrics::GetCounter("service.budget_rejections")),
      answer_hist_(
          metrics::Registry::Global().GetSpanHistogram("service.answer")),
      batch_size_hist_(metrics::GetHistogram("service.batch_size")) {}

uint64_t QueryService::ClientSeed(uint64_t noise_seed, uint64_t client) {
  // Pure mixing of (noise_seed, client): consecutive client ids must land
  // in uncorrelated noise streams, so whiten both through the SplitMix64
  // finalizer before combining.
  return HashCombine(MixUint64(noise_seed), MixUint64(client));
}

QueryOutcome QueryService::Answer(uint64_t client,
                                  const recon::SubsetQuery& query) {
  metrics::Span span(answer_hist_, "service.answer");
  if (query.size() != secret_.size()) {
    return Status::InvalidArgument("query length != dataset size");
  }
  const double eps = options_.eps_per_query;
  Result<uint64_t> ordinal = ledger_.Charge(client, eps > 0.0 ? eps : 0.0);
  if (!ordinal.ok()) {
    rejections_counter_.Add(1);
    return ordinal.status();
  }
  queries_counter_.Add(1);
  double sum = 0.0;
  for (size_t i = 0; i < query.size(); ++i) {
    if (query[i] != 0) sum += static_cast<double>(secret_[i]);
  }
  if (eps > 0.0) {
    // The k-th answered query of this client always draws from stream k,
    // regardless of which thread served it: bit-identical replay.
    Rng noise = Rng::StreamAt(ClientSeed(options_.noise_seed, client),
                              *ordinal);
    sum += noise.Laplace(1.0 / eps);
  }
  return sum;
}

std::vector<QueryOutcome> QueryService::AnswerBatch(
    uint64_t client, const std::vector<recon::SubsetQuery>& queries) {
  PSO_TRACE_SPAN("service.batch");
  metrics::GetCounter("service.batches").Add(1);
  batch_size_hist_.Record(static_cast<double>(queries.size()));
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(queries.size());
  for (const recon::SubsetQuery& q : queries) {
    outcomes.push_back(Answer(client, q));
  }
  return outcomes;
}

}  // namespace pso::service
