#include "service/loadgen.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/trace.h"

namespace pso::service {

Result<ServiceInfo> InProcessTransport::Info() {
  ServiceInfo info;
  info.n = service_->n();
  info.eps_per_query = service_->options().eps_per_query;
  info.client_budget_eps = service_->options().client_budget_eps;
  info.max_batch = service_->options().max_batch;
  return info;
}

Result<std::vector<QueryOutcome>> InProcessTransport::IssueBatch(
    uint64_t client, const std::vector<recon::SubsetQuery>& queries) {
  return service_->AnswerBatch(client, queries);
}

uint64_t Transcript::answered() const {
  uint64_t count = 0;
  for (const TranscriptEntry& e : entries) count += e.answered ? 1 : 0;
  return count;
}

uint64_t Transcript::rejected() const {
  uint64_t count = 0;
  for (const TranscriptEntry& e : entries) {
    count += (!e.answered && e.error == StatusCode::kResourceExhausted) ? 1 : 0;
  }
  return count;
}

Result<Transcript> RunLoad(const LoadGenOptions& options,
                           const TransportFactory& factory) {
  PSO_SPAN("loadgen.run");
  if (options.n == 0) return Status::InvalidArgument("loadgen: n must be > 0");
  if (options.num_clients == 0 || options.queries_per_client == 0) {
    return Status::InvalidArgument(
        "loadgen: num_clients and queries_per_client must be > 0");
  }
  const size_t qpc = options.queries_per_client;
  const size_t batch = options.batch_size == 0 ? 1 : options.batch_size;
  Transcript transcript;
  transcript.n = options.n;
  transcript.num_clients = options.num_clients;
  transcript.queries_per_client = qpc;
  transcript.query_seed = options.query_seed;
  transcript.entries.resize(options.num_clients * qpc);
  // Per-client failure slots: the parallel body never returns, it records;
  // the lowest-numbered failing client wins deterministically below.
  std::vector<std::string> failures(options.num_clients);
  ParallelFor(options.pool, options.num_clients, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      std::unique_ptr<QueryTransport> transport = factory(c);
      if (transport == nullptr) {
        failures[c] = "transport factory returned null";
        continue;
      }
      // The whole query sequence is drawn before any I/O: client c's
      // queries depend only on (query_seed, c).
      Rng qrng = Rng::StreamAt(options.query_seed, c);
      std::vector<recon::SubsetQuery> queries(qpc);
      for (recon::SubsetQuery& q : queries) {
        q = recon::RandomBits(options.n, qrng);
      }
      size_t k = 0;
      while (k < qpc) {
        const size_t take = std::min(batch, qpc - k);
        std::vector<recon::SubsetQuery> slice(
            queries.begin() + static_cast<ptrdiff_t>(k),
            queries.begin() + static_cast<ptrdiff_t>(k + take));
        Result<std::vector<QueryOutcome>> outcomes =
            transport->IssueBatch(c, slice);
        if (!outcomes.ok()) {
          failures[c] = outcomes.status().ToString();
          break;
        }
        if (outcomes->size() != take) {
          failures[c] = StrFormat("short batch response: %zu of %zu",
                                  outcomes->size(), take);
          break;
        }
        for (size_t j = 0; j < take; ++j) {
          TranscriptEntry& entry = transcript.entries[c * qpc + k + j];
          entry.query = std::move(slice[j]);
          const QueryOutcome& outcome = (*outcomes)[j];
          if (outcome.ok()) {
            entry.answered = true;
            entry.answer = *outcome;
          } else {
            entry.error = outcome.status().code();
          }
        }
        k += take;
      }
    }
  });
  for (size_t c = 0; c < options.num_clients; ++c) {
    if (!failures[c].empty()) {
      return Status::Internal(
          StrFormat("loadgen client %zu: %s", c, failures[c].c_str()));
    }
  }
  metrics::GetCounter("loadgen.clients").Add(options.num_clients);
  metrics::GetCounter("loadgen.answered").Add(transcript.answered());
  metrics::GetCounter("loadgen.rejected").Add(transcript.rejected());
  return transcript;
}

Result<recon::Reconstruction> DecodeTranscript(
    const Transcript& transcript, Decoder decoder,
    const recon::LpDecodeOptions& /*lp_options*/, size_t lsq_iterations) {
  PSO_TRACE_SPAN("loadgen.decode");
  std::vector<recon::SubsetQuery> queries;
  std::vector<double> answers;
  queries.reserve(transcript.entries.size());
  answers.reserve(transcript.entries.size());
  for (const TranscriptEntry& entry : transcript.entries) {
    if (!entry.answered) continue;  // rejections carry no signal
    queries.push_back(entry.query);
    answers.push_back(entry.answer);
  }
  if (queries.empty()) {
    return Status::FailedPrecondition(
        "transcript has no answered queries to decode");
  }
  if (decoder == Decoder::kLp) {
    return recon::LpDecodeRecorded(transcript.n, queries, answers);
  }
  return recon::LeastSquaresDecodeRecorded(transcript.n, queries, answers,
                                           lsq_iterations);
}

Status WriteTranscript(const Transcript& transcript, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal(StrFormat("open %s failed", path.c_str()));
  }
  for (size_t i = 0; i < transcript.entries.size(); ++i) {
    const TranscriptEntry& entry = transcript.entries[i];
    const uint64_t client = transcript.ClientOf(i);
    std::fprintf(f, "%s\n", FormatQueryLine(client, entry.query).c_str());
    const Result<double> outcome =
        entry.answered ? Result<double>(entry.answer)
                       : Result<double>(Status(entry.error, "recorded"));
    std::fprintf(f, "%s\n", FormatAnswerLine(client, outcome).c_str());
  }
  if (std::fclose(f) != 0) {
    return Status::Internal(StrFormat("write %s failed", path.c_str()));
  }
  return Status::Ok();
}

}  // namespace pso::service
