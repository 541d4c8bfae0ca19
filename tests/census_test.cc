// Tests for the census tabulation / reconstruction / re-identification
// pipeline.

#include <gtest/gtest.h>

#include <set>

#include "census/cells.h"
#include "census/reidentify.h"
#include "common/metrics.h"

namespace pso::census {
namespace {

Population SmallPopulation(uint64_t seed, size_t blocks = 20,
                           size_t min_size = 2, size_t max_size = 7) {
  PopulationOptions opts;
  opts.num_blocks = blocks;
  opts.min_block_size = min_size;
  opts.max_block_size = max_size;
  Rng rng(seed);
  return GeneratePopulation(opts, rng);
}

TEST(PersonCodecTest, EncodeDecodeRoundTrip) {
  for (size_t idx = 0; idx < kPersonDomain; idx += 97) {
    Record r = DecodePerson(idx);
    EXPECT_EQ(EncodePerson(r), idx);
  }
  Record r = {42, 1, 3, 0};  // age 42, M, asian, non-hispanic
  EXPECT_EQ(DecodePerson(EncodePerson(r)), r);
}

TEST(PopulationTest, GeneratesRequestedShape) {
  Population pop = SmallPopulation(1, 15, 3, 9);
  EXPECT_EQ(pop.blocks.size(), 15u);
  size_t total = 0;
  uint64_t last_id = 0;
  for (const Block& b : pop.blocks) {
    EXPECT_GE(b.persons.size(), 3u);
    EXPECT_LE(b.persons.size(), 9u);
    EXPECT_EQ(b.persons.size(), b.person_ids.size());
    total += b.persons.size();
    for (uint64_t id : b.person_ids) {
      EXPECT_GT(id, last_id);  // ids strictly increasing
      last_id = id;
    }
  }
  EXPECT_EQ(pop.total_persons, total);
}

TEST(TabulatorTest, ExactTablesMatchData) {
  Population pop = SmallPopulation(2, 5);
  for (const Block& b : pop.blocks) {
    BlockTables t = Tabulate(b);
    EXPECT_EQ(t.total, static_cast<int64_t>(b.persons.size()));
    int64_t age_sum = 0;
    for (int64_t c : t.by_age) age_sum += c;
    EXPECT_EQ(age_sum, t.total);
    int64_t race_sum = 0;
    for (int64_t c : t.by_race) race_sum += c;
    EXPECT_EQ(race_sum, t.total);
    int64_t sexage_sum = 0;
    for (int64_t c : t.by_sex_age_bucket) sexage_sum += c;
    EXPECT_EQ(sexage_sum, t.total);
    EXPECT_EQ(t.noise_slack, 0);
    ASSERT_TRUE(t.median_age.has_value());
    // The median must be attained in [0, kMaxAge].
    EXPECT_GE(*t.median_age, 0);
    EXPECT_LE(*t.median_age, kMaxAge);
  }
}

TEST(TabulatorTest, DpTablesAreNoisyAndSlacked) {
  Population pop = SmallPopulation(3, 5);
  Rng rng(4);
  const Block& b = pop.blocks[0];
  BlockTables t = TabulateDp(b, /*eps=*/0.5, rng);
  EXPECT_GT(t.noise_slack, 0);
  EXPECT_FALSE(t.median_age.has_value());
  for (int64_t c : t.by_age) EXPECT_GE(c, 0);  // clamped
}

TEST(ReconstructTest, ExactTablesReconstructSmallBlocksUniquely) {
  Population pop = SmallPopulation(5, 30, 2, 6);
  size_t unique_blocks = 0;
  for (const Block& b : pop.blocks) {
    BlockTables t = Tabulate(b);
    BlockReconstruction r = ReconstructBlock(t, b.persons);
    EXPECT_TRUE(r.exhausted);
    ASSERT_GE(r.solutions_found, 1u);  // truth is always a solution
    if (r.unique) {
      ++unique_blocks;
      // Unique solution must equal the truth as a multiset.
      EXPECT_EQ(r.exact_matches, b.persons.size());
    }
  }
  // Small blocks with single-year-of-age tables resolve uniquely most of
  // the time.
  EXPECT_GT(unique_blocks, pop.blocks.size() / 2);
}

TEST(ReconstructTest, TruthIsAlwaysAmongSolutions) {
  Population pop = SmallPopulation(6, 10, 2, 5);
  for (const Block& b : pop.blocks) {
    BlockTables t = Tabulate(b);
    ReconstructOptions opts;
    opts.max_solutions = 4096;
    BlockReconstruction r = ReconstructBlock(t, b.persons, opts);
    // The ground truth satisfies its own exact tables, so an exhaustive
    // enumeration must contain it.
    ASSERT_TRUE(r.exhausted);
    EXPECT_TRUE(r.truth_found);
  }
}

TEST(ReconstructTest, DpTablesDegradeReconstruction) {
  Population pop = SmallPopulation(7, 12, 3, 6);
  Rng rng(8);
  std::vector<BlockTables> exact;
  std::vector<BlockTables> noisy;
  for (const Block& b : pop.blocks) {
    exact.push_back(Tabulate(b));
    noisy.push_back(TabulateDp(b, /*eps=*/0.25, rng));
  }
  ReconstructOptions opts;
  opts.max_solutions = 16;
  opts.max_nodes = 200000;
  ReconstructionReport exact_report =
      ReconstructPopulation(pop, exact, opts);
  ReconstructionReport dp_report = ReconstructPopulation(pop, noisy, opts);
  EXPECT_GT(exact_report.block_unique_fraction(),
            dp_report.block_unique_fraction());
  EXPECT_GT(exact_report.person_exact_fraction(),
            dp_report.person_exact_fraction());
}

// Records as their person-domain values, for compact comparison.
std::vector<size_t> Encoded(const std::vector<Record>& records) {
  std::vector<size_t> values;
  for (const Record& r : records) values.push_back(EncodePerson(r));
  return values;
}

TEST(ReconstructTest, OutOfRangeMedianIsClamped) {
  // A hand-built median below 0 or above kMaxAge: "at most m" is empty
  // below 0 and everything above kMaxAge, and "at least m" the reverse.
  // Expected values were recorded with per-value predicate masks, which
  // are defined for any median.
  Population pop = SmallPopulation(5, 20, 2, 7);
  const Block& b = pop.blocks[0];
  ASSERT_EQ(b.persons.size(), 2u);
  ReconstructOptions slacked;
  slacked.max_solutions = 8;
  slacked.max_nodes = 20000;
  for (int64_t median : {int64_t{-1}, int64_t{150}}) {
    SCOPED_TRACE(median);
    BlockTables t = Tabulate(b);
    t.median_age = median;
    // Exact tables: ceil(n/2) persons cannot be aged at most -1, nor
    // floor(n/2)+1 at least 150.
    BlockReconstruction exact = ReconstructBlock(t, b.persons);
    EXPECT_EQ(exact.block_id, 0u);
    EXPECT_EQ(exact.block_size, 2u);
    EXPECT_EQ(exact.solutions_found, 0u);
    EXPECT_FALSE(exact.unique);
    EXPECT_TRUE(exact.exhausted);
    EXPECT_TRUE(exact.reconstructed.empty());
    EXPECT_EQ(exact.exact_matches, 0u);
    EXPECT_FALSE(exact.truth_found);

    // Slack 1 lowers the median bounds to 0 and 1.
    t.noise_slack = 1;
    BlockReconstruction loose = ReconstructBlock(t, b.persons, slacked);
    EXPECT_EQ(loose.block_id, 0u);
    EXPECT_EQ(loose.block_size, 2u);
    EXPECT_FALSE(loose.unique);
    EXPECT_FALSE(loose.exhausted);
    EXPECT_EQ(loose.exact_matches, 0u);
    EXPECT_FALSE(loose.truth_found);
    if (median < 0) {
      EXPECT_EQ(loose.solutions_found, 8u);
      EXPECT_EQ(Encoded(loose.reconstructed), (std::vector<size_t>{0, 36}));
    } else {
      EXPECT_EQ(loose.solutions_found, 0u);
      EXPECT_TRUE(loose.reconstructed.empty());
    }
  }
}

TEST(ReconstructTest, EncodedBlocksBorrowTheSharedCellMasks) {
  // Every constraint of an encoded block, exact or DP, median in range or
  // clamped, points at a mask of CensusCells(): encoding copies none.
  const CellMasks& cells = CensusCells();
  std::set<const BitVector*> shared;
  for (const std::vector<BitVector>* family :
       {&cells.by_age, &cells.by_sex_age_bucket, &cells.by_race,
        &cells.by_hispanic, &cells.by_race_sex_age_bucket,
        &cells.by_hispanic_sex_age_bucket, &cells.age_at_most,
        &cells.age_at_least}) {
    for (const BitVector& mask : *family) shared.insert(&mask);
  }
  Population pop = SmallPopulation(3);
  Rng rng(4);
  for (const Block& b : pop.blocks) {
    BlockTables clamped = Tabulate(b);
    clamped.median_age = -1;
    for (const BlockTables& t :
         {Tabulate(b), TabulateDp(b, /*eps=*/2.0, rng), clamped}) {
      const CountCsp csp = EncodeBlockCsp(t);
      ASSERT_FALSE(csp.constraints().empty());
      for (const CountCsp::Constraint& c : csp.constraints()) {
        EXPECT_EQ(shared.count(&c.match()), 1u);
      }
    }
  }
}

// One block's pinned outcome, in field order
// {solutions_found, exhausted, unique, exact_matches, truth_found}.
struct BlockPin {
  size_t solutions_found;
  bool exhausted;
  bool unique;
  size_t exact_matches;
  bool truth_found;
};

void ExpectPinned(const std::vector<BlockReconstruction>& got,
                  const std::vector<BlockPin>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t b = 0; b < got.size(); ++b) {
    SCOPED_TRACE(b);
    EXPECT_EQ(got[b].solutions_found, want[b].solutions_found);
    EXPECT_EQ(got[b].exhausted, want[b].exhausted);
    EXPECT_EQ(got[b].unique, want[b].unique);
    EXPECT_EQ(got[b].exact_matches, want[b].exact_matches);
    EXPECT_EQ(got[b].truth_found, want[b].truth_found);
  }
}

TEST(ReconstructTest, PopulationOutcomesArePinned) {
  // 60 blocks of 2..9 persons, exact and eps = 2 DP tables, with the E9
  // search budgets. Every value was recorded before the cell masks were
  // precomputed and packed; the search must not have changed.
  PopulationOptions options;
  options.num_blocks = 60;
  options.min_block_size = 2;
  options.max_block_size = 9;
  Rng rng(2021);
  Population pop = GeneratePopulation(options, rng);
  std::vector<BlockTables> exact;
  std::vector<BlockTables> dp;
  Rng dp_rng(2022);
  for (const Block& b : pop.blocks) {
    exact.push_back(Tabulate(b));
    dp.push_back(TabulateDp(b, /*eps=*/2.0, dp_rng));
  }
  ReconstructOptions exact_options;
  exact_options.max_solutions = 64;
  exact_options.max_nodes = 500000;
  ReconstructOptions dp_options;
  dp_options.max_solutions = 16;
  dp_options.max_nodes = 150000;

  metrics::Counter& nodes = metrics::GetCounter("csp.nodes");
  const uint64_t nodes_before = nodes.value();
  std::vector<BlockReconstruction> exact_blocks;
  std::vector<BlockReconstruction> dp_blocks;
  ReconstructPopulation(pop, exact, exact_options, &exact_blocks);
  ReconstructPopulation(pop, dp, dp_options, &dp_blocks);
  EXPECT_EQ(nodes.value() - nodes_before, 2623387u);

  ExpectPinned(exact_blocks, {
      {2, 1, 0, 2, 1}, {2, 1, 0, 7, 1}, {1, 1, 1, 5, 1}, {2, 1, 0, 5, 1},
      {4, 1, 0, 5, 1}, {1, 1, 1, 8, 1}, {1, 1, 1, 7, 1}, {1, 1, 1, 4, 1},
      {2, 1, 0, 9, 1}, {1, 1, 1, 6, 1}, {1, 1, 1, 2, 1}, {1, 1, 1, 4, 1},
      {1, 1, 1, 3, 1}, {2, 1, 0, 5, 1}, {1, 1, 1, 8, 1}, {16, 1, 0, 7, 1},
      {1, 1, 1, 6, 1}, {1, 1, 1, 2, 1}, {1, 1, 1, 4, 1}, {2, 1, 0, 4, 1},
      {1, 1, 1, 2, 1}, {1, 1, 1, 5, 1}, {2, 1, 0, 4, 1}, {1, 1, 1, 2, 1},
      {12, 1, 0, 6, 1}, {6, 1, 0, 5, 1}, {1, 1, 1, 5, 1}, {2, 1, 0, 2, 1},
      {4, 1, 0, 6, 1}, {1, 1, 1, 9, 1}, {2, 1, 0, 7, 1}, {1, 1, 1, 5, 1},
      {3, 1, 0, 5, 1}, {1, 1, 1, 3, 1}, {4, 1, 0, 3, 1}, {1, 1, 1, 3, 1},
      {1, 1, 1, 6, 1}, {2, 1, 0, 7, 1}, {6, 1, 0, 6, 1}, {2, 1, 0, 6, 1},
      {1, 1, 1, 5, 1}, {4, 1, 0, 7, 1}, {4, 1, 0, 5, 1}, {2, 1, 0, 6, 1},
      {2, 1, 0, 4, 1}, {2, 1, 0, 7, 1}, {1, 1, 1, 8, 1}, {1, 1, 1, 4, 1},
      {1, 1, 1, 6, 1}, {1, 1, 1, 4, 1}, {1, 1, 1, 7, 1}, {1, 1, 1, 6, 1},
      {2, 1, 0, 3, 1}, {1, 1, 1, 6, 1}, {2, 1, 0, 6, 1}, {1, 1, 1, 6, 1},
      {1, 1, 1, 3, 1}, {1, 1, 1, 4, 1}, {1, 1, 1, 6, 1}, {2, 1, 0, 3, 1},
  });
  ExpectPinned(dp_blocks, {
      {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0}, {1, 1, 0, 0, 0}, {1, 1, 0, 0, 0},
      {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0},
      {0, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0},
      {0, 1, 0, 0, 0}, {1, 1, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0},
      {0, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0},
      {0, 1, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {1, 1, 0, 0, 0},
      {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0},
      {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 1, 0, 0, 0},
      {0, 1, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, 1, 0, 0, 0},
      {0, 1, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, 1, 0, 0, 0},
      {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}, {1, 1, 0, 0, 0}, {0, 1, 0, 0, 0},
      {0, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {1, 1, 0, 0, 0}, {0, 1, 0, 0, 0},
      {0, 1, 0, 0, 0}, {1, 1, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0},
      {0, 1, 0, 0, 0}, {0, 0, 0, 0, 0}, {1, 1, 0, 0, 0}, {0, 1, 0, 0, 0},
  });
}

TEST(CommercialTest, CoverageAndErrors) {
  Population pop = SmallPopulation(9, 40, 3, 8);
  CommercialOptions opts;
  opts.coverage = 0.5;
  opts.age_error_rate = 0.2;
  Rng rng(10);
  auto db = SimulateCommercialDatabase(pop, opts, rng);
  double cov = static_cast<double>(db.size()) /
               static_cast<double>(pop.total_persons);
  EXPECT_NEAR(cov, 0.5, 0.1);
  // Some (but not all) entries should carry age errors.
  size_t errors = 0;
  for (const auto& e : db) {
    const Block& b = pop.blocks[e.block_id];
    for (size_t i = 0; i < b.person_ids.size(); ++i) {
      if (b.person_ids[i] == e.person_id &&
          b.persons.At(i, kAge) != e.age) {
        ++errors;
      }
    }
  }
  EXPECT_GT(errors, 0u);
  EXPECT_LT(errors, db.size());
}

TEST(ReidentifyTest, ExactReconstructionYieldsHighPrecision) {
  Population pop = SmallPopulation(11, 40, 2, 6);
  std::vector<BlockTables> tables;
  for (const Block& b : pop.blocks) tables.push_back(Tabulate(b));
  std::vector<BlockReconstruction> recon;
  ReconstructPopulation(pop, tables, {}, &recon);

  CommercialOptions copts;
  copts.coverage = 0.7;
  copts.age_error_rate = 0.05;
  Rng rng(12);
  auto db = SimulateCommercialDatabase(pop, copts, rng);
  ReidentificationReport report = Reidentify(pop, recon, db);
  EXPECT_GT(report.putative, 0u);
  EXPECT_GT(report.confirmed, 0u);
  EXPECT_GT(report.precision(), 0.5);
  EXPECT_LE(report.confirmed, report.putative);
  EXPECT_EQ(report.population, pop.total_persons);
}

TEST(ReidentifyTest, EmptyReconstructionNoClaims) {
  Population pop = SmallPopulation(13, 5, 2, 4);
  std::vector<BlockReconstruction> recon(pop.blocks.size());
  for (size_t i = 0; i < recon.size(); ++i) {
    recon[i].block_id = pop.blocks[i].id;
  }
  ReidentificationReport report = Reidentify(pop, recon, {});
  EXPECT_EQ(report.putative, 0u);
  EXPECT_EQ(report.confirmed, 0u);
}

}  // namespace
}  // namespace pso::census
