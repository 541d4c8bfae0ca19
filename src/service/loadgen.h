// Deterministic load generator + attacker-as-client decoding: the
// demand side of the Cohen–Nissim end-to-end loop.
//
// RunLoad simulates `num_clients` independent clients. Client c draws
// its queries from the counter-based stream Rng::StreamAt(query_seed, c)
// — uniformly random subset queries, each index included w.p. 1/2 — and
// issues them in pipelined batches through a QueryTransport. Because the
// query streams and the service's noise streams are both counter-based,
// the full (query, answer) transcript is a pure function of the seeds:
// bit-identical at any thread count and across in-process vs. socket
// transports.
//
// The recorded transcript then feeds the existing LP / least-squares
// decoders AS A CLIENT (recon::LpDecodeRecorded): DecodeTranscript keeps
// only the answered entries (over-budget rejections carry no signal) and
// reconstructs the secret from what the service actually released. With
// exact answers the reconstruction is perfect; under per-query DP noise
// it measurably degrades — the paper's trade-off, end to end.

#ifndef PSO_SERVICE_LOADGEN_H_
#define PSO_SERVICE_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "recon/attacks.h"
#include "recon/oracle.h"
#include "service/query_service.h"
#include "service/wire.h"

namespace pso::service {

/// How one client of a live query service observes its answers —
/// implemented in-process (InProcessTransport) and over TCP
/// (SocketTransport in client.h). One transport serves one client's
/// connection; RunLoad creates them through a factory.
class QueryTransport {
 public:
  virtual ~QueryTransport() = default;

  /// Probes the service parameters (dataset size, DP settings).
  [[nodiscard]] virtual Result<ServiceInfo> Info() = 0;

  /// Issues `queries` for `client` as one pipelined batch and returns
  /// the per-query outcomes in order. The outer Result is a transport
  /// failure; inner outcomes carry per-query service refusals.
  [[nodiscard]] virtual Result<std::vector<QueryOutcome>> IssueBatch(
      uint64_t client, const std::vector<recon::SubsetQuery>& queries) = 0;
};

/// Calls the QueryService directly — the zero-transport baseline the
/// socket path must match bit-for-bit.
class InProcessTransport final : public QueryTransport {
 public:
  explicit InProcessTransport(QueryService* service) : service_(service) {}

  [[nodiscard]] Result<ServiceInfo> Info() override;
  [[nodiscard]] Result<std::vector<QueryOutcome>> IssueBatch(
      uint64_t client, const std::vector<recon::SubsetQuery>& queries) override;

 private:
  QueryService* service_;
};

/// Creates the transport client `client` will use for its whole run (for
/// sockets: one connection per client). Returning null aborts the run
/// with the factory's failure reported as kInternal.
using TransportFactory =
    std::function<std::unique_ptr<QueryTransport>(uint64_t client)>;

/// Load shape knobs.
struct LoadGenOptions {
  /// Dataset size; every query is an indicator vector of this length.
  size_t n = 48;
  /// Simulated clients (ids 0 .. num_clients-1).
  size_t num_clients = 64;
  /// Queries each client issues.
  size_t queries_per_client = 10;
  /// Queries per pipelined IssueBatch call (capped to queries remaining).
  size_t batch_size = 8;
  /// Master seed for the per-client query streams.
  uint64_t query_seed = 1;
  /// Client-level parallelism (null = serial).
  ThreadPool* pool = nullptr;
};

/// One recorded (query, outcome) pair as the client observed it.
struct TranscriptEntry {
  recon::SubsetQuery query;
  double answer = 0.0;
  bool answered = false;
  /// Refusal category when !answered (kResourceExhausted = over budget).
  StatusCode error = StatusCode::kOk;
};

/// Everything the attack loop observed: client-major, entry
/// [c * queries_per_client + k] is client c's k-th query.
struct Transcript {
  size_t n = 0;
  size_t num_clients = 0;
  size_t queries_per_client = 0;
  uint64_t query_seed = 0;
  std::vector<TranscriptEntry> entries;

  /// The client id owning entry `index`.
  uint64_t ClientOf(size_t index) const { return index / queries_per_client; }
  uint64_t answered() const;
  uint64_t rejected() const;
};

/// Runs the load: every client draws its queries from
/// Rng::StreamAt(query_seed, client) and issues them in batches through
/// a transport from `factory`. Clients run in parallel on options.pool;
/// the transcript layout is client-major so the result is identical at
/// any thread count. kInternal when the factory or a transport fails.
[[nodiscard]] Result<Transcript> RunLoad(const LoadGenOptions& options,
                                         const TransportFactory& factory);

/// Which recorded-transcript decoder DecodeTranscript runs.
enum class Decoder {
  kLp,            ///< Residual-splitting L1 fit (LpDecodeRecorded).
  kLeastSquares,  ///< Projected-gradient (LeastSquaresDecodeRecorded).
};

/// Feeds the transcript's ANSWERED entries to the chosen decoder and
/// returns its reconstruction. kFailedPrecondition when the transcript
/// holds no answered entries at all. `lp_options` is empty and unused
/// (see recon::LpDecodeOptions).
[[nodiscard]] Result<recon::Reconstruction> DecodeTranscript(
    const Transcript& transcript, Decoder decoder,
    const recon::LpDecodeOptions& lp_options = recon::LpDecodeOptions{},
    size_t lsq_iterations = 400);

/// Writes the transcript as wire-format line pairs (`Q ...` then the
/// matching `A`/`E` line) — replayable and diffable; the CI smoke lane
/// uploads it as the failure artifact.
[[nodiscard]] Status WriteTranscript(const Transcript& transcript,
                                     const std::string& path);

}  // namespace pso::service

#endif  // PSO_SERVICE_LOADGEN_H_
