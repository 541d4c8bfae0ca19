// Prebuilt universes (schema + distribution) for the paper's scenarios.
//
// Each generator returns the schema and product distribution that a paper
// experiment samples from:
//   * Birthday universe    — the 365-day example of Section 2.2.
//   * GIC medical universe — Sweeney's Massachusetts GIC scenario (Section
//     1): ZIP, birth date, sex, plus clinical attributes. Synthetic stand-in
//     for the real GIC data (see DESIGN.md substitutions).
//   * Census person universe — the per-person schema tabulated by the 2010
//     Decennial Census reconstruction narrative: age, sex, race, ethnicity.
//   * Binary trait universe — x in {0,1}^n for Dinur–Nissim reconstruction.

#ifndef PSO_DATA_GENERATORS_H_
#define PSO_DATA_GENERATORS_H_

#include <cstdint>

#include "data/distribution.h"
#include "data/schema.h"

namespace pso {

/// A schema together with the data-generating distribution over it.
struct Universe {
  Schema schema;
  ProductDistribution distribution;
};

/// 365 equally likely birthdays, one attribute "birthday" in [0, 365).
Universe MakeBirthdayUniverse();

/// GIC-style medical records. Attributes:
///   zip (integer, `num_zips` codes with Zipf(1.1) popularity),
///   birth_year (integer, 1910..2004, census-shaped),
///   birth_day (integer 0..365, uniform day-of-year),
///   sex (categorical F/M),
///   diagnosis (categorical, 40 ICD-style codes, Zipf(1.05)),
///   blood_type (8 categories, realistic frequencies),
///   marital_status (5 categories),
///   admission_month (1..12).
/// The product of the quasi-identifier domains far exceeds any realistic n,
/// so equivalence-class predicates have negligible weight (Theorem 2.10's
/// precondition).
Universe MakeGicMedicalUniverse(int64_t num_zips = 200);

/// Census person schema: age 0..115 (piecewise census-shaped), sex,
/// race (6 OMB categories, skewed), hispanic (2, ~16%).
Universe MakeCensusPersonUniverse();

/// High-dimensional sparse-ratings universe for the Netflix-style linkage
/// experiment: `num_movies` binary "rated_i" attributes, each 1 with
/// probability `density` (independent). A handful of rated movies makes a
/// subscriber unique, mirroring Narayanan–Shmatikov.
Universe MakeRatingsUniverse(int64_t num_movies = 64, double density = 0.08);

/// Genotype-like universe for the Homer-style membership attack: `num_snps`
/// binary allele attributes with independent frequencies drawn uniformly
/// from [min_freq, max_freq] (seeded by `freq_seed` so the reference
/// frequencies are reproducible public knowledge).
Universe MakeGenotypeUniverse(int64_t num_snps, uint64_t freq_seed,
                              double min_freq = 0.05, double max_freq = 0.5);

}  // namespace pso

#endif  // PSO_DATA_GENERATORS_H_
