// Differential tests of the reconstruction decoders against their
// straightforward references (tests/oracles/recon_reference.h).
//
// The least-squares decoder iterates on the Gram matrix, so its sums run
// in a different order than the reference's and its iterates can differ
// in the last bits; the rounded estimates must still agree bit for bit
// and the residuals to a relative 1e-9. The exhaustive attack's pass 2
// must return exactly what the reference scan returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "oracles/recon_reference.h"
#include "recon/attacks.h"
#include "recon/oracle.h"
#include "service/loadgen.h"
#include "service/query_service.h"

namespace pso {
namespace {

using recon::Reconstruction;
using recon::SubsetQuery;

struct Recorded {
  std::string cell;
  size_t n = 0;
  std::vector<SubsetQuery> queries;
  std::vector<double> answers;
};

// Decodes every transcript with both decoders (the reference is slow, so
// the transcripts run in parallel) and compares them.
void ExpectSameDecodes(const std::vector<Recorded>& cells) {
  std::vector<Result<Reconstruction>> fast(cells.size(),
                                           Status::Internal("not run"));
  std::vector<Reconstruction> slow(cells.size());
  ThreadPool pool(4);
  ParallelFor(
      &pool, cells.size(),
      [&](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          const Recorded& r = cells[c];
          fast[c] =
              recon::LeastSquaresDecodeRecorded(r.n, r.queries, r.answers);
          slow[c] = oracles::LeastSquaresReference(r.n, r.queries, r.answers);
        }
      },
      1);
  for (size_t c = 0; c < cells.size(); ++c) {
    const std::string& cell = cells[c].cell;
    ASSERT_TRUE(fast[c].ok()) << cell;
    EXPECT_EQ(fast[c]->estimate, slow[c].estimate) << cell;
    EXPECT_EQ(fast[c]->queries_used, slow[c].queries_used) << cell;
    EXPECT_NEAR(fast[c]->decoder_residual, slow[c].decoder_residual,
                1e-9 * slow[c].decoder_residual)
        << cell;
  }
}

// psoctl recon --decoder lsq's transcript: the secret and then the
// queries drawn from one Rng(seed), answered by a bounded-noise oracle.
TEST(LeastSquaresGramTest, MatchesReferenceOnPsoctlGrid) {
  std::vector<Recorded> cells;
  for (size_t n : {128, 256}) {
    for (size_t m : {256, 512}) {
      for (double alpha : {4.0, 8.0, 16.0}) {
        for (uint64_t seed : {1, 2, 3}) {
          Rng rng(seed);
          const std::vector<uint8_t> secret = recon::RandomBits(n, rng);
          recon::BoundedNoiseOracle oracle(secret, alpha, 17);
          Recorded r;
          r.n = n;
          r.cell = "n=" + std::to_string(n) + " m=" + std::to_string(m) +
                   " alpha=" + std::to_string(alpha) +
                   " seed=" + std::to_string(seed);
          for (size_t j = 0; j < m; ++j) {
            SubsetQuery q(n);
            for (auto& bit : q) bit = rng.Bernoulli(0.5) ? 1 : 0;
            r.answers.push_back(oracle.Answer(q));
            r.queries.push_back(std::move(q));
          }
          cells.push_back(std::move(r));
        }
      }
    }
  }
  ExpectSameDecodes(cells);
}

// The attack_lsq workload's first two datasets at seed 1: an exact
// in-process service at n = 256, 64 clients x 16 queries.
TEST(LeastSquaresGramTest, MatchesReferenceOnServiceTranscripts) {
  constexpr size_t kN = 256;
  std::vector<Recorded> cells;
  for (uint64_t dataset : {0, 1}) {
    Rng rng = Rng::StreamAt(1, dataset);
    const std::vector<uint8_t> secret = recon::RandomBits(kN, rng);
    service::LoadGenOptions load;
    load.n = kN;
    load.num_clients = 64;
    load.queries_per_client = 16;
    load.batch_size = 8;
    load.query_seed = rng.NextUint64();
    service::QueryService svc(secret, service::QueryServiceOptions{});
    Result<service::Transcript> transcript = service::RunLoad(
        load, [&svc](uint64_t) -> std::unique_ptr<service::QueryTransport> {
          return std::make_unique<service::InProcessTransport>(&svc);
        });
    ASSERT_TRUE(transcript.ok());
    Recorded r;
    r.n = kN;
    r.cell = "dataset " + std::to_string(dataset);
    for (const service::TranscriptEntry& entry : transcript->entries) {
      ASSERT_TRUE(entry.answered);
      r.queries.push_back(entry.query);
      r.answers.push_back(entry.answer);
    }
    cells.push_back(std::move(r));
  }
  ExpectSameDecodes(cells);
}

// With no iterations the decoder takes no gradient, and the residual is
// reported as 0, as the reference does.
TEST(LeastSquaresGramTest, ZeroIterationsMatchesReference) {
  const std::vector<SubsetQuery> queries = {{1, 0, 1}, {0, 1, 1}};
  const std::vector<double> answers = {2.0, 1.0};
  Result<Reconstruction> fast =
      recon::LeastSquaresDecodeRecorded(3, queries, answers, 0);
  ASSERT_TRUE(fast.ok());
  const Reconstruction slow =
      oracles::LeastSquaresReference(3, queries, answers, 0);
  EXPECT_EQ(fast->estimate, slow.estimate);
  EXPECT_EQ(fast->decoder_residual, 0.0);
  EXPECT_EQ(slow.decoder_residual, 0.0);
}

uint64_t MaskChecks() {
  const metrics::Snapshot snap = metrics::Registry::Global().TakeSnapshot();
  const auto it = snap.counters.find("recon.exhaustive_mask_checks");
  return it == snap.counters.end() ? 0 : it->second;
}

uint64_t CandidateIndex(const std::vector<uint8_t>& estimate) {
  uint64_t index = 0;
  for (size_t i = 0; i < estimate.size(); ++i) {
    index |= static_cast<uint64_t>(estimate[i]) << i;
  }
  return index;
}

// Laplace noise exceeds alpha on some query, so no candidate is
// consistent and pass 2 decides. At this seed candidates 30, 31 and 62
// share the minimum violation (flipping a bit outside the binding query
// leaves that query's violation as the maximum); 30 and 31 fall in one
// scan chunk and 62 in another, and the earliest must win.
TEST(ExhaustivePassTwoTest, MatchesReferenceScanWithTie) {
  constexpr size_t kN = 8;
  constexpr double kAlpha = 0.25;
  constexpr double kEps = 0.5;
  constexpr uint64_t kSeed = 6;
  Rng rng(0x5EC2);
  const std::vector<uint8_t> secret = recon::RandomBits(kN, rng);

  // The full violation of every candidate, computed directly.
  recon::LaplaceOracle probe(secret, kEps, kSeed);
  const uint64_t num_masks = uint64_t{1} << kN;
  std::vector<double> answers(num_masks);
  SubsetQuery q(kN);
  for (uint64_t mask = 0; mask < num_masks; ++mask) {
    for (size_t i = 0; i < kN; ++i) q[i] = (mask >> i) & 1u;
    answers[mask] = probe.Answer(q);
  }
  std::vector<double> violation(num_masks, 0.0);
  for (uint64_t cand = 0; cand < num_masks; ++cand) {
    for (uint64_t mask = 0; mask < num_masks; ++mask) {
      violation[cand] = std::max(
          violation[cand],
          std::fabs(std::popcount(cand & mask) - answers[mask]));
    }
  }
  const double min_violation =
      *std::min_element(violation.begin(), violation.end());
  ASSERT_GT(min_violation, kAlpha);
  const auto tied = std::count(violation.begin(), violation.end(),
                               min_violation);
  ASSERT_EQ(tied, 3);
  ASSERT_EQ(violation[30], min_violation);
  ASSERT_EQ(violation[31], min_violation);
  ASSERT_EQ(violation[62], min_violation);

  for (size_t threads : {0, 2, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    recon::LaplaceOracle reference_oracle(secret, kEps, kSeed);
    const Reconstruction want =
        oracles::ExhaustiveReference(reference_oracle, kAlpha, pool.get());
    recon::LaplaceOracle oracle(secret, kEps, kSeed);
    const uint64_t before = MaskChecks();
    const Reconstruction got =
        recon::ExhaustiveReconstruct(oracle, kAlpha, pool.get());
    // Pass 1 rejects every candidate, so both passes count.
    EXPECT_GT(MaskChecks() - before, num_masks) << threads;
    EXPECT_EQ(got.estimate, want.estimate) << threads;
    EXPECT_EQ(got.queries_used, want.queries_used) << threads;
    EXPECT_EQ(got.decoder_residual, want.decoder_residual) << threads;
    EXPECT_EQ(CandidateIndex(got.estimate), 30u) << threads;
    EXPECT_EQ(got.decoder_residual, min_violation) << threads;
  }
}

// Pass-2 agreement over more Laplace draws, at an n with several chunks.
TEST(ExhaustivePassTwoTest, MatchesReferenceScanOnLaplaceOracles) {
  constexpr size_t kN = 10;
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const std::vector<uint8_t> secret = recon::RandomBits(kN, rng);
    for (double alpha : {0.0, 1.0}) {
      recon::LaplaceOracle reference_oracle(secret, 1.0, seed);
      const Reconstruction want =
          oracles::ExhaustiveReference(reference_oracle, alpha, &pool);
      recon::LaplaceOracle oracle(secret, 1.0, seed);
      const Reconstruction got =
          recon::ExhaustiveReconstruct(oracle, alpha, &pool);
      EXPECT_EQ(got.estimate, want.estimate) << seed << " " << alpha;
      EXPECT_EQ(got.decoder_residual, want.decoder_residual)
          << seed << " " << alpha;
    }
  }
}

// When the noise stays within alpha, pass 1 alone returns the reference's
// first consistent candidate, checking few masks per candidate.
TEST(ExhaustivePassOneTest, MatchesReferenceWhenConsistent) {
  constexpr size_t kN = 12;
  Rng rng(0xE1);
  const std::vector<uint8_t> secret = recon::RandomBits(kN, rng);
  for (double alpha : {0.0, 1.0, 2.0}) {
    recon::BoundedNoiseOracle reference_oracle(secret, alpha, 5);
    const Reconstruction want =
        oracles::ExhaustiveReference(reference_oracle, alpha);
    recon::BoundedNoiseOracle oracle(secret, alpha, 5);
    const uint64_t before = MaskChecks();
    const Reconstruction got = recon::ExhaustiveReconstruct(oracle, alpha);
    const uint64_t checks = MaskChecks() - before;
    EXPECT_EQ(got.estimate, want.estimate) << alpha;
    EXPECT_EQ(got.decoder_residual, want.decoder_residual) << alpha;
    EXPECT_LE(got.decoder_residual, alpha);
    EXPECT_LT(checks, 64 * (uint64_t{1} << kN)) << alpha;
  }
}

}  // namespace
}  // namespace pso
