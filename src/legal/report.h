// Rendering of legal-theorem reports, including the Section 2.4.3
// comparison with the Article 29 Working Party's Opinion on Anonymisation
// Techniques (which answered "Is singling out still a risk?" with "no" for
// k-anonymity and l-diversity and "may not" for differential privacy —
// the opposite of what the analysis here demonstrates).

#ifndef PSO_LEGAL_REPORT_H_
#define PSO_LEGAL_REPORT_H_

#include <string>
#include <vector>

#include "legal/verdict.h"

namespace pso::legal {

/// One row of the Article 29 WP comparison.
struct Article29Row {
  std::string technology;
  std::string wp_opinion;    ///< The Working Party's published answer.
  std::string our_verdict;   ///< What the measured games say.
  bool conflict = false;
};

/// A collection of claims with rendering helpers.
class LegalReport {
 public:
  /// Appends a claim.
  void AddClaim(LegalClaim claim);

  /// Full text report: every claim with its evidence.
  std::string Render() const;

  /// Builds the Section 2.4.3 table. `risk_by_technology` maps a
  /// technology label to whether our games demonstrated singling-out risk.
  static std::vector<Article29Row> Article29Comparison(
      const std::vector<std::pair<std::string, bool>>& risk_by_technology);

  /// Renders the comparison rows as an aligned table.
  static std::string RenderArticle29Table(
      const std::vector<Article29Row>& rows);

 private:
  std::vector<LegalClaim> claims_;
};

}  // namespace pso::legal

#endif  // PSO_LEGAL_REPORT_H_
