#include "linkage/join_attack.h"

#include <map>

#include "common/check.h"
#include "common/metrics.h"

namespace pso::linkage {

IdentifiedPopulation SamplePopulation(const Universe& universe, size_t n,
                                      Rng& rng) {
  IdentifiedPopulation pop{universe.distribution.SampleDataset(n, rng), {}};
  pop.ids.reserve(n);
  for (size_t i = 0; i < n; ++i) pop.ids.push_back(i + 1);
  return pop;
}

std::vector<VoterEntry> BuildVoterFile(const IdentifiedPopulation& pop,
                                       const std::vector<size_t>& qi_attrs,
                                       double coverage, Rng& rng) {
  PSO_CHECK(coverage >= 0.0 && coverage <= 1.0);
  std::vector<VoterEntry> file;
  for (size_t i = 0; i < pop.records.size(); ++i) {
    if (!rng.Bernoulli(coverage)) continue;
    VoterEntry e;
    e.id = pop.ids[i];
    e.qi_values.reserve(qi_attrs.size());
    for (size_t a : qi_attrs) e.qi_values.push_back(pop.records.At(i, a));
    file.push_back(std::move(e));
  }
  return file;
}

double LinkageReport::claim_rate() const {
  return released_records == 0 ? 0.0
                               : static_cast<double>(claims) /
                                     static_cast<double>(released_records);
}

double LinkageReport::confirmed_rate() const {
  return released_records == 0 ? 0.0
                               : static_cast<double>(confirmed) /
                                     static_cast<double>(released_records);
}

LinkageReport JoinAttack(const IdentifiedPopulation& pop,
                         const std::vector<VoterEntry>& voter_file,
                         const std::vector<size_t>& qi_attrs) {
  metrics::GetCounter("linkage.join_attacks").Add(1);
  metrics::GetCounter("linkage.released_records").Add(pop.records.size());
  PSO_SPAN("linkage.join_attack");
  LinkageReport report;
  report.released_records = pop.records.size();
  report.voter_entries = voter_file.size();

  // Index voter entries by QI tuple.
  std::map<Record, std::vector<const VoterEntry*>> by_qi;
  for (const VoterEntry& e : voter_file) by_qi[e.qi_values].push_back(&e);

  // Count release rows per QI tuple (for the both-ways uniqueness check).
  std::map<Record, std::vector<size_t>> release_by_qi;
  for (size_t i = 0; i < pop.records.size(); ++i) {
    Record qi;
    qi.reserve(qi_attrs.size());
    for (size_t a : qi_attrs) qi.push_back(pop.records.At(i, a));
    release_by_qi[std::move(qi)].push_back(i);
  }

  for (const auto& [qi, rows] : release_by_qi) {
    if (rows.size() != 1) continue;  // release side must be unique
    auto it = by_qi.find(qi);
    if (it == by_qi.end() || it->second.size() != 1) continue;
    ++report.claims;
    if (it->second.front()->id == pop.ids[rows.front()]) ++report.confirmed;
  }
  return report;
}

LinkageReport JoinAttackGeneralized(
    const IdentifiedPopulation& pop,
    const kanon::GeneralizedDataset& release,
    const std::vector<VoterEntry>& voter_file,
    const std::vector<size_t>& qi_attrs) {
  PSO_CHECK(release.size() == pop.records.size());
  metrics::GetCounter("linkage.join_attacks").Add(1);
  metrics::GetCounter("linkage.released_records").Add(release.size());
  PSO_SPAN("linkage.join_attack");
  LinkageReport report;
  report.released_records = release.size();
  report.voter_entries = voter_file.size();

  for (size_t i = 0; i < release.size(); ++i) {
    // Voter entries compatible with row i's generalized QI cells.
    const VoterEntry* match = nullptr;
    size_t matches = 0;
    for (const VoterEntry& e : voter_file) {
      bool compatible = true;
      for (size_t j = 0; j < qi_attrs.size(); ++j) {
        if (!release.row(i)[qi_attrs[j]].Contains(e.qi_values[j])) {
          compatible = false;
          break;
        }
      }
      if (compatible) {
        ++matches;
        match = &e;
        if (matches > 1) break;
      }
    }
    if (matches != 1) continue;
    // Also require the release row to be the only one compatible with that
    // voter entry.
    size_t reverse_matches = 0;
    for (size_t i2 = 0; i2 < release.size(); ++i2) {
      bool compatible = true;
      for (size_t j = 0; j < qi_attrs.size(); ++j) {
        if (!release.row(i2)[qi_attrs[j]].Contains(match->qi_values[j])) {
          compatible = false;
          break;
        }
      }
      if (compatible && ++reverse_matches > 1) break;
    }
    if (reverse_matches != 1) continue;
    ++report.claims;
    if (match->id == pop.ids[i]) ++report.confirmed;
  }
  return report;
}

}  // namespace pso::linkage
