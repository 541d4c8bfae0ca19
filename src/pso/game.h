// The predicate-singling-out security game (Definitions 2.3 / 2.4).
//
// One trial:  x ~ D^n;  y := M(x);  p := A(y);  the attacker scores a PSO
// win iff p isolates in x AND w_D(p) is below the negligibility threshold
// tau(n). The game verifies the weight itself (exactly when the predicate
// supports it, otherwise against a large Monte-Carlo record pool) — it
// never trusts the attacker's claim.
//
// Finite-n reading of "negligible": the game reports, next to the PSO
// success rate, the *baseline* success any output-ignoring attacker can
// reach at weight tau — max_{w <= tau} n w (1-w)^{n-1} — and the advantage
// over it. "M prevents PSO" at finite n = no tested attacker achieves
// advantage significantly above zero; "M fails" = some attacker has large
// advantage (Theorem 2.10's ~37% against a ~n*tau baseline).

#ifndef PSO_PSO_GAME_H_
#define PSO_PSO_GAME_H_

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "data/distribution.h"
#include "pso/adversary.h"
#include "pso/mechanism.h"

namespace pso {

class InteractiveMechanism;
class InteractiveAdversary;
class ThreadPool;

/// Game configuration.
///
/// Determinism guarantee: for a fixed seed, results are bit-for-bit
/// identical at any thread count (including `pool == nullptr`). Every
/// trial draws from its own counter-derived stream
/// (Rng::StreamAt(seed, trial)), and per-chunk accumulators are merged in
/// chunk-index order with thread-count-independent chunking.
struct PsoGameOptions {
  size_t trials = 200;          ///< Independent game trials.
  double weight_threshold = 0;  ///< tau(n); 0 = default 1/(10 n).
  size_t weight_pool = 200000;  ///< Monte-Carlo pool for weight checks.
  uint64_t seed = 0x5eed;       ///< Master seed (fully deterministic runs).
  ThreadPool* pool = nullptr;   ///< Worker pool; null = serial execution.
};

/// Outcome of a game run.
struct PsoGameResult {
  std::string mechanism;
  std::string adversary;
  size_t n = 0;
  double weight_threshold = 0.0;

  BernoulliEstimator isolation;    ///< p isolated (any weight).
  BernoulliEstimator pso_success;  ///< p isolated AND weight <= tau.
  BernoulliEstimator weight_ok;    ///< weight <= tau (isolated or not).
  RunningStats weights;            ///< Verified weights across trials.

  /// Best success of any predicate of weight <= tau chosen independently
  /// of the data: max_{w <= tau} n w (1-w)^{n-1}.
  double baseline = 0.0;

  /// pso_success.rate() - baseline. Large positive advantage demonstrates
  /// the mechanism enables predicate singling out.
  double advantage = 0.0;

  /// Renders a one-line summary.
  std::string Summary() const;
};

/// Runs the PSO game for (mechanism, adversary) over D^n.
class PsoGame {
 public:
  /// The game keeps a reference to `dist`; it must outlive the game.
  PsoGame(const Distribution& dist, size_t n, PsoGameOptions options = {});

  /// Plays `options.trials` rounds and scores them.
  PsoGameResult Run(const Mechanism& mechanism, const Adversary& adversary);

  /// Interactive variant (pso/interactive.h): per trial, a fresh session
  /// over x ~ D^n is handed to the adversary; isolation and weight are
  /// verified exactly as in the one-shot game.
  PsoGameResult RunInteractive(const InteractiveMechanism& mechanism,
                               const InteractiveAdversary& adversary);

  /// Verified weight of `pred`: the exact value when analytically
  /// available (a point value, strictly tighter than any bound), else the
  /// Wilson 95% upper bound over the shared Monte-Carlo pool
  /// (conservative: an attacker only scores if even the upper bound is
  /// below tau).
  double VerifiedWeightUpperBound(const Predicate& pred) const;

 private:
  /// Shared trial loop: `attack` maps (dataset, trial rng) to the
  /// adversary's predicate (or nullptr on concession).
  PsoGameResult RunTrialLoop(
      const std::string& mechanism_name, const std::string& adversary_name,
      const std::function<PredicateRef(const Dataset&, Rng&)>& attack) const;

  const Distribution& dist_;
  const ProductDistribution* product_;
  size_t n_;
  PsoGameOptions options_;
  double threshold_;
  std::vector<Record> pool_;  ///< Shared weight-verification sample.
};

}  // namespace pso

#endif  // PSO_PSO_GAME_H_
