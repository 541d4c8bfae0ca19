// Privacy-loss accounting.
//
// The paper highlights that differential privacy is closed under
// composition "albeit with worse privacy loss parameter" (Section 1.1).
// The accountant makes that degradation concrete: it tracks a sequence of
// (eps, delta) releases and reports the composed guarantee under basic and
// advanced composition.

#ifndef PSO_DP_ACCOUNTANT_H_
#define PSO_DP_ACCOUNTANT_H_

#include <vector>

namespace pso::dp {

/// An (eps, delta) guarantee: of one release, or of several composed.
struct PrivacyGuarantee {
  double eps = 0.0;
  double delta = 0.0;
};

/// Tracks cumulative privacy loss across releases on the same data.
class PrivacyAccountant {
 public:
  PrivacyAccountant() = default;

  /// Records a release of `eps`-DP (optionally with `delta`).
  void Spend(double eps, double delta = 0.0);

  /// Basic (sequential) composition: eps and delta add up.
  PrivacyGuarantee BasicComposition() const;

  /// Advanced composition (Dwork–Rothblum–Vadhan): for k releases of the
  /// same eps, the composition is (eps', k*delta + delta_slack)-DP with
  /// eps' = sqrt(2k ln(1/delta_slack)) * eps + k * eps * (e^eps - 1).
  /// Heterogeneous ledgers are bounded using the max eps.
  PrivacyGuarantee AdvancedComposition(double delta_slack) const;

  /// The tighter of basic and advanced at the given slack.
  PrivacyGuarantee BestBound(double delta_slack) const;

 private:
  std::vector<PrivacyGuarantee> spends_;
};

}  // namespace pso::dp

#endif  // PSO_DP_ACCOUNTANT_H_
