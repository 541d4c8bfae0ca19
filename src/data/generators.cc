#include "data/generators.h"

#include "common/check.h"
#include "common/str_util.h"

namespace pso {

namespace {

// Rough single-year-of-age weights shaped like the US pyramid: near-flat
// through middle age with a taper after 65 and a tail to 115.
std::vector<double> CensusAgeWeights(int64_t max_age) {
  std::vector<double> w(static_cast<size_t>(max_age) + 1);
  for (int64_t a = 0; a <= max_age; ++a) {
    double weight;
    if (a < 20) {
      weight = 1.25;
    } else if (a < 55) {
      weight = 1.35;
    } else if (a < 65) {
      weight = 1.2;
    } else if (a < 75) {
      weight = 0.85;
    } else if (a < 85) {
      weight = 0.45;
    } else if (a < 100) {
      weight = 0.12;
    } else {
      weight = 0.005;
    }
    w[static_cast<size_t>(a)] = weight;
  }
  return w;
}

}  // namespace

Universe MakeBirthdayUniverse() {
  Schema schema({Attribute::Integer("birthday", 0, 364)});
  return {schema, ProductDistribution::UniformOver(schema)};
}

Universe MakeGicMedicalUniverse(int64_t num_zips) {
  PSO_CHECK(num_zips >= 2);
  std::vector<std::string> diagnoses;
  for (int i = 0; i < 40; ++i) diagnoses.push_back(StrFormat("ICD%02d", i));

  Schema schema({
      Attribute::Integer("zip", 0, num_zips - 1),
      Attribute::Integer("birth_year", 1910, 2004),
      Attribute::Integer("birth_day", 0, 365),
      Attribute::Categorical("sex", {"F", "M"}),
      Attribute::Categorical("diagnosis", std::move(diagnoses)),
      Attribute::Categorical(
          "blood_type", {"O+", "A+", "B+", "AB+", "O-", "A-", "B-", "AB-"}),
      Attribute::Categorical(
          "marital_status",
          {"single", "married", "divorced", "widowed", "separated"}),
      Attribute::Integer("admission_month", 1, 12),
  });

  std::vector<double> year_weights(95);
  for (size_t i = 0; i < year_weights.size(); ++i) {
    // More patients among 1940-1985 cohorts.
    int64_t year = 1910 + static_cast<int64_t>(i);
    year_weights[i] = (year >= 1940 && year <= 1985) ? 1.5 : 0.6;
  }

  std::vector<Marginal> marginals;
  marginals.push_back(Marginal::Zipf(0, num_zips, 1.1));
  marginals.push_back(Marginal(1910, std::move(year_weights)));
  marginals.push_back(Marginal::Uniform(0, 365));
  marginals.push_back(Marginal(0, {0.52, 0.48}));
  marginals.push_back(Marginal::Zipf(0, 40, 1.05));
  marginals.push_back(
      Marginal(0, {0.374, 0.357, 0.085, 0.034, 0.066, 0.063, 0.015, 0.006}));
  marginals.push_back(Marginal(0, {0.34, 0.48, 0.10, 0.06, 0.02}));
  marginals.push_back(Marginal::Uniform(1, 12));

  return {schema, ProductDistribution(schema, std::move(marginals))};
}

Universe MakeCensusPersonUniverse() {
  Schema schema({
      Attribute::Integer("age", 0, 115),
      Attribute::Categorical("sex", {"F", "M"}),
      Attribute::Categorical("race", {"white", "black", "aian", "asian",
                                      "nhpi", "other"}),
      Attribute::Categorical("hispanic", {"no", "yes"}),
  });

  std::vector<Marginal> marginals;
  marginals.push_back(Marginal(0, CensusAgeWeights(115)));
  marginals.push_back(Marginal(0, {0.508, 0.492}));
  marginals.push_back(
      Marginal(0, {0.724, 0.127, 0.009, 0.048, 0.002, 0.09}));
  marginals.push_back(Marginal(0, {0.837, 0.163}));

  return {schema, ProductDistribution(schema, std::move(marginals))};
}

Universe MakeRatingsUniverse(int64_t num_movies, double density) {
  PSO_CHECK(num_movies >= 1);
  PSO_CHECK(density > 0.0 && density < 1.0);
  std::vector<Attribute> attrs;
  std::vector<Marginal> marginals;
  attrs.reserve(static_cast<size_t>(num_movies));
  for (int64_t i = 0; i < num_movies; ++i) {
    attrs.push_back(
        Attribute::Integer(StrFormat("rated_%03d", (int)i), 0, 1));
    // Popularity decays across the catalogue (head movies rated often).
    double pi = density * 4.0 / (1.0 + 3.0 * static_cast<double>(i) /
                                           static_cast<double>(num_movies));
    if (pi >= 0.95) pi = 0.95;
    marginals.push_back(Marginal(0, {1.0 - pi, pi}));
  }
  Schema schema(std::move(attrs));
  return {schema, ProductDistribution(schema, std::move(marginals))};
}

Universe MakeGenotypeUniverse(int64_t num_snps, uint64_t freq_seed,
                              double min_freq, double max_freq) {
  PSO_CHECK(num_snps >= 1);
  PSO_CHECK(0.0 < min_freq && min_freq <= max_freq && max_freq < 1.0);
  Rng rng(freq_seed);
  std::vector<Attribute> attrs;
  std::vector<Marginal> marginals;
  attrs.reserve(static_cast<size_t>(num_snps));
  for (int64_t i = 0; i < num_snps; ++i) {
    attrs.push_back(Attribute::Integer(StrFormat("snp_%04d", (int)i), 0, 1));
    double p = min_freq + rng.UniformDouble() * (max_freq - min_freq);
    marginals.push_back(Marginal(0, {1.0 - p, p}));
  }
  Schema schema(std::move(attrs));
  return {schema, ProductDistribution(schema, std::move(marginals))};
}

}  // namespace pso
