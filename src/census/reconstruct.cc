#include "census/reconstruct.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <string>

#include "census/cells.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace pso::census {

namespace {

// One constraint per cell of a count family: "count of persons matching
// cells[i] lies in [counts[i] - slack, counts[i] + slack]" (clamped at 0).
// The constraint borrows the process-wide mask; nothing is copied.
void AddTableFamily(CountCsp& csp, const std::vector<BitVector>& cells,
                    const std::vector<int64_t>& counts, int64_t slack) {
  PSO_CHECK(counts.size() == cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    csp.AddCountConstraint(&cells[i], std::max<int64_t>(0, counts[i] - slack),
                           counts[i] + slack);
  }
}

}  // namespace

CountCsp EncodeBlockCsp(const BlockTables& tables) {
  PSO_TRACE_SPAN("census.encode");
  const size_t n = static_cast<size_t>(tables.total);
  CountCsp csp(n, kPersonDomain);
  const CellMasks& cells = CensusCells();
  const int64_t slack = tables.noise_slack;
  AddTableFamily(csp, cells.by_age, tables.by_age, slack);
  AddTableFamily(csp, cells.by_sex_age_bucket, tables.by_sex_age_bucket,
                 slack);
  // Sex by age bucket iterated by race (P12A-I) and by Hispanic origin
  // (P12H-style).
  AddTableFamily(csp, cells.by_race_sex_age_bucket,
                 tables.by_race_sex_age_bucket, slack);
  AddTableFamily(csp, cells.by_hispanic_sex_age_bucket,
                 tables.by_hispanic_sex_age_bucket, slack);
  AddTableFamily(csp, cells.by_race, tables.by_race, slack);
  AddTableFamily(csp, cells.by_hispanic, tables.by_hispanic, slack);
  // Median age: at least ceil(n/2) persons at or below it, and at least
  // floor(n/2)+1 at or above it (lower median). A noisy (DP) median only
  // supports the widened version of these bounds.
  if (tables.median_age.has_value()) {
    const int64_t m = *tables.median_age;
    int64_t at_most =
        std::max<int64_t>(0, static_cast<int64_t>((n + 1) / 2) - slack);
    csp.AddCountConstraint(&cells.AgeAtMost(m), at_most,
                           static_cast<int64_t>(n));
    int64_t at_least =
        std::max<int64_t>(0, static_cast<int64_t>(n / 2 + 1) - slack);
    csp.AddCountConstraint(&cells.AgeAtLeast(m), at_least,
                           static_cast<int64_t>(n));
  }
  return csp;
}

bool ConsistentWithTables(const BlockTables& tables,
                          const std::vector<Record>& records) {
  std::vector<size_t> values;
  values.reserve(records.size());
  for (const Record& r : records) values.push_back(EncodePerson(r));
  return EncodeBlockCsp(tables).IsSolution(values);
}

BlockReconstruction ReconstructBlock(const BlockTables& tables,
                                     const Dataset& truth,
                                     const ReconstructOptions& options) {
  BlockReconstruction out;
  out.block_id = tables.block_id;
  const size_t n = static_cast<size_t>(tables.total);
  out.block_size = truth.size();

  if (n == 0) {
    out.unique = truth.empty();
    out.solutions_found = 1;
    return out;
  }

  const CountCsp csp = EncodeBlockCsp(tables);
  CspStats stats;
  std::vector<std::vector<size_t>> solutions =
      csp.Enumerate(options.max_solutions, options.max_nodes, &stats);
  out.solutions_found = solutions.size();
  out.exhausted = stats.complete;
  out.unique = stats.complete && solutions.size() == 1;

  if (!solutions.empty()) {
    out.reconstructed.reserve(solutions.front().size());
    for (size_t v : solutions.front()) {
      out.reconstructed.push_back(DecodePerson(v));
    }
    // Multiset intersection with ground truth.
    std::map<Record, int64_t> truth_counts;
    for (const Record& r : truth.records()) ++truth_counts[r];
    for (const Record& r : out.reconstructed) {
      auto it = truth_counts.find(r);
      if (it != truth_counts.end() && it->second > 0) {
        --it->second;
        ++out.exact_matches;
      }
    }
    // Truth containment: encode truth as a sorted value multiset and look
    // for it among the solutions.
    std::vector<size_t> truth_encoded;
    truth_encoded.reserve(truth.size());
    for (const Record& r : truth.records()) {
      truth_encoded.push_back(EncodePerson(r));
    }
    std::sort(truth_encoded.begin(), truth_encoded.end());
    for (const auto& sol : solutions) {
      if (sol == truth_encoded) {
        out.truth_found = true;
        break;
      }
    }
  }
  return out;
}

double ReconstructionReport::block_unique_fraction() const {
  return blocks == 0 ? 0.0
                     : static_cast<double>(blocks_unique) /
                           static_cast<double>(blocks);
}

double ReconstructionReport::person_exact_fraction() const {
  return persons == 0 ? 0.0
                      : static_cast<double>(persons_exactly_reconstructed) /
                            static_cast<double>(persons);
}

ReconstructionReport ReconstructPopulation(
    const Population& population, const std::vector<BlockTables>& tables,
    const ReconstructOptions& options,
    std::vector<BlockReconstruction>* per_block) {
  PSO_CHECK(tables.size() == population.blocks.size());
  // Blocks are independent constraint problems: solve them in parallel
  // into index-addressed slots, then aggregate serially in block order.
  const size_t num_blocks = population.blocks.size();
  std::vector<BlockReconstruction> results(num_blocks);
  metrics::GetCounter("census.blocks_reconstructed").Add(num_blocks);
  PSO_NAMED_SPAN(span, "census.reconstruct_population");
  if (span.active()) span.Arg("blocks", std::to_string(num_blocks));
  ParallelFor(options.pool, num_blocks, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      trace::Span block_span("census.block");
      if (block_span.active()) {
        block_span.Arg("block", std::to_string(b));
      }
      results[b] =
          ReconstructBlock(tables[b], population.blocks[b].persons, options);
    }
  });

  ReconstructionReport report;
  for (size_t b = 0; b < num_blocks; ++b) {
    const BlockReconstruction& r = results[b];
    report.blocks += 1;
    report.blocks_unique += r.unique ? 1 : 0;
    report.blocks_exhausted += r.exhausted ? 1 : 0;
    report.persons += population.blocks[b].persons.size();
    report.persons_exactly_reconstructed += r.exact_matches;
  }
  if (per_block != nullptr) {
    per_block->insert(per_block->end(),
                      std::make_move_iterator(results.begin()),
                      std::make_move_iterator(results.end()));
  }
  return report;
}

}  // namespace pso::census
