#include "pso/game.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "pso/interactive.h"

namespace pso {

namespace {

// Domain-separation tags for the game's counter-based RNG streams: the
// weight-verification pool and the trial loop must never share streams.
constexpr uint64_t kPoolStreamTag = 0x706f6f6cULL;
constexpr uint64_t kTrialStreamTag = 0x747269616cULL;

}  // namespace

std::string PsoGameResult::Summary() const {
  Interval ci = pso_success.WilsonInterval();
  return StrFormat(
      "%-28s vs %-28s n=%-6zu tau=%.2e  PSO=%.3f [%.3f,%.3f]  "
      "isolate=%.3f  baseline=%.3f  advantage=%+.3f",
      mechanism.c_str(), adversary.c_str(), n, weight_threshold,
      pso_success.rate(), ci.lo, ci.hi, isolation.rate(), baseline,
      advantage);
}

PsoGame::PsoGame(const Distribution& dist, size_t n, PsoGameOptions options)
    : dist_(dist),
      product_(dynamic_cast<const ProductDistribution*>(&dist)),
      n_(n),
      options_(options),
      threshold_(options.weight_threshold > 0.0
                     ? options.weight_threshold
                     : 1.0 / (10.0 * static_cast<double>(n))) {
  PSO_CHECK(n_ > 0);
  PSO_CHECK(options_.trials > 0);
  // Build the shared weight-verification pool with one counter-derived
  // stream per record: identical pool at any thread count.
  pool_.resize(options_.weight_pool);
  ParallelFor(options_.pool, options_.weight_pool, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      Rng rec_rng = Rng::StreamAt(options_.seed ^ kPoolStreamTag, i);
      pool_[i] = dist_.Sample(rec_rng);
    }
  });
}

double PsoGame::VerifiedWeightUpperBound(const Predicate& pred) const {
  if (product_ != nullptr) {
    auto exact = pred.ExactWeight(*product_);
    if (exact.has_value()) return *exact;
  }
  // Serial scan: callers (the trial loop) already run in parallel, so the
  // outermost loop owns the parallelism.
  BernoulliEstimator est;
  for (const Record& r : pool_) est.Add(pred.Eval(r));
  return est.WilsonInterval().hi;
}

PsoGameResult PsoGame::RunTrialLoop(
    const std::string& mechanism_name, const std::string& adversary_name,
    const std::function<PredicateRef(const Dataset&, Rng&)>& attack) const {
  PsoGameResult result;
  result.mechanism = mechanism_name;
  result.adversary = adversary_name;
  result.n = n_;
  result.weight_threshold = threshold_;

  // Per-chunk accumulators, merged in chunk-index order below. Chunk
  // boundaries depend only on the trial count, so the merged result is
  // bit-for-bit identical at any thread count.
  struct TrialAccum {
    BernoulliEstimator isolation;
    BernoulliEstimator pso_success;
    BernoulliEstimator weight_ok;
    RunningStats weights;
  };
  const size_t chunk = DefaultChunkSize(options_.trials);
  std::vector<TrialAccum> accums(NumChunks(options_.trials, chunk));

  metrics::GetCounter("pso.trials").Add(options_.trials);
  PSO_NAMED_SPAN(span, "pso.trial_loop");
  if (span.active()) span.Arg("trials", std::to_string(options_.trials));
  ParallelFor(
      options_.pool, options_.trials,
      [&](size_t begin, size_t end) {
        TrialAccum& acc = accums[begin / chunk];
        for (size_t t = begin; t < end; ++t) {
          Rng rng = Rng::StreamAt(options_.seed ^ kTrialStreamTag, t);
          Dataset x = dist_.SampleDataset(n_, rng);
          PredicateRef p = attack(x, rng);
          if (p == nullptr) {
            acc.isolation.Add(false);
            acc.pso_success.Add(false);
            acc.weight_ok.Add(false);
            continue;
          }
          bool isolated = Isolates(*p, x);
          double weight = VerifiedWeightUpperBound(*p);
          bool light = weight <= threshold_;
          acc.isolation.Add(isolated);
          acc.weight_ok.Add(light);
          acc.pso_success.Add(isolated && light);
          acc.weights.Add(weight);
        }
      },
      chunk);

  for (const TrialAccum& acc : accums) {
    result.isolation.Merge(acc.isolation);
    result.pso_success.Merge(acc.pso_success);
    result.weight_ok.Merge(acc.weight_ok);
    result.weights.Merge(acc.weights);
  }

  // Baseline: the best data-independent predicate of weight <= tau. The
  // curve n w (1-w)^{n-1} is increasing up to w = 1/n, so for tau <= 1/n
  // the max is at w = tau.
  double w_star = std::min(threshold_, 1.0 / static_cast<double>(n_));
  result.baseline = BaselineIsolationProbability(n_, w_star);
  result.advantage = result.pso_success.rate() - result.baseline;
  return result;
}

PsoGameResult PsoGame::Run(const Mechanism& mechanism,
                           const Adversary& adversary) {
  AttackContext ctx;
  ctx.dist = &dist_;
  ctx.product = product_;
  ctx.n = n_;
  ctx.weight_budget = threshold_;
  return RunTrialLoop(
      mechanism.Name(), adversary.Name(),
      [&](const Dataset& x, Rng& rng) {
        MechanismOutput y = mechanism.Run(x, rng);
        return adversary.Attack(y, ctx, rng);
      });
}

PsoGameResult PsoGame::RunInteractive(const InteractiveMechanism& mechanism,
                                      const InteractiveAdversary& adversary) {
  AttackContext ctx;
  ctx.dist = &dist_;
  ctx.product = product_;
  ctx.n = n_;
  ctx.weight_budget = threshold_;
  return RunTrialLoop(
      mechanism.Name(), adversary.Name(),
      [&](const Dataset& x, Rng& rng) {
        std::unique_ptr<QuerySession> session = mechanism.StartSession(x, rng);
        return adversary.Attack(*session, ctx, rng);
      });
}

}  // namespace pso
