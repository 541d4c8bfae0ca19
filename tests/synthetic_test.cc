// Tests for the synthetic-data mechanisms and the copy adversary
// (Section 1.2's "synthetic data" question under the PSO lens).

#include <gtest/gtest.h>

#include <algorithm>

#include "data/generators.h"
#include "pso/game.h"
#include "pso/synthetic.h"

namespace pso {
namespace {

TEST(SyntheticMechanismTest, OutputShape) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(1);
  Dataset x = u.distribution.SampleDataset(100, rng);
  for (SyntheticMode mode :
       {SyntheticMode::kBootstrap, SyntheticMode::kMarginal,
        SyntheticMode::kDpMarginal}) {
    auto mech = MakeSyntheticDataMechanism(mode, /*out_records=*/50);
    MechanismOutput y = mech->Run(x, rng);
    const Dataset* synth = y.As<Dataset>();
    ASSERT_NE(synth, nullptr);
    EXPECT_EQ(synth->size(), 50u);
    for (const Record& r : synth->records()) {
      EXPECT_TRUE(u.schema.IsValidRecord(r));
    }
  }
}

TEST(SyntheticMechanismTest, DefaultSizeMatchesInput) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(2);
  Dataset x = u.distribution.SampleDataset(77, rng);
  auto mech = MakeSyntheticDataMechanism(SyntheticMode::kMarginal);
  MechanismOutput y = mech->Run(x, rng);
  EXPECT_EQ(y.As<Dataset>()->size(), 77u);
}

TEST(SyntheticMechanismTest, BootstrapRecordsComeFromInput) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(3);
  Dataset x = u.distribution.SampleDataset(60, rng);
  auto mech = MakeSyntheticDataMechanism(SyntheticMode::kBootstrap, 40);
  MechanismOutput y = mech->Run(x, rng);
  const Dataset* synth = y.As<Dataset>();
  ASSERT_NE(synth, nullptr);
  for (const Record& r : synth->records()) {
    EXPECT_NE(std::find(x.records().begin(), x.records().end(), r),
              x.records().end());
  }
}

TEST(SyntheticMechanismTest, MarginalPreservesAttributeFrequencies) {
  Schema schema({Attribute::Integer("trait", 0, 1)});
  ProductDistribution dist(schema, {Marginal(0, {0.7, 0.3})});
  Rng rng(4);
  Dataset x = dist.SampleDataset(5000, rng);
  double true_rate = 0.0;
  for (const Record& r : x.records()) true_rate += (double)r[0];
  true_rate /= (double)x.size();

  auto mech = MakeSyntheticDataMechanism(SyntheticMode::kMarginal, 5000);
  MechanismOutput y = mech->Run(x, rng);
  const Dataset* synth = y.As<Dataset>();
  double synth_rate = 0.0;
  for (const Record& r : synth->records()) synth_rate += (double)r[0];
  synth_rate /= (double)synth->size();
  EXPECT_NEAR(synth_rate, true_rate, 0.03);
}

TEST(SyntheticMechanismTest, MarginalRecordsRarelyCopyRareInputs) {
  // With 8 attributes, an independent-marginals sample almost never equals
  // a specific input record; the bootstrap always does.
  Universe u = MakeGicMedicalUniverse(100);
  Rng rng(5);
  Dataset x = u.distribution.SampleDataset(100, rng);
  auto mech = MakeSyntheticDataMechanism(SyntheticMode::kMarginal, 100);
  MechanismOutput y = mech->Run(x, rng);
  const Dataset* synth = y.As<Dataset>();
  size_t copies = 0;
  for (const Record& r : synth->records()) {
    copies += std::count(x.records().begin(), x.records().end(), r);
  }
  EXPECT_LT(copies, 3u);
}

TEST(SyntheticGameTest, BootstrapFailsPso) {
  Universe u = MakeGicMedicalUniverse(100);
  PsoGameOptions opts;
  opts.trials = 60;
  opts.weight_pool = 30000;
  PsoGame game(u.distribution, 200, opts);
  auto result = game.Run(
      *MakeSyntheticDataMechanism(SyntheticMode::kBootstrap),
      *MakeSyntheticCopyAdversary());
  EXPECT_GT(result.pso_success.rate(), 0.9);
  EXPECT_GT(result.advantage, 0.7);
}

TEST(SyntheticGameTest, MarginalSynthesisResists) {
  Universe u = MakeGicMedicalUniverse(100);
  PsoGameOptions opts;
  opts.trials = 60;
  opts.weight_pool = 30000;
  PsoGame game(u.distribution, 200, opts);
  for (SyntheticMode mode :
       {SyntheticMode::kMarginal, SyntheticMode::kDpMarginal}) {
    auto result = game.Run(*MakeSyntheticDataMechanism(mode),
                           *MakeSyntheticCopyAdversary());
    EXPECT_LT(result.pso_success.rate(), result.baseline + 0.07)
        << result.Summary();
  }
}

}  // namespace
}  // namespace pso
