#include "census/cells.h"

#include <algorithm>

namespace pso::census {

namespace {

CellMasks BuildCells() {
  const auto family = [](size_t cells) {
    return std::vector<BitVector>(cells, BitVector(kPersonDomain));
  };
  const size_t ages = static_cast<size_t>(kMaxAge) + 1;
  CellMasks t;
  t.by_age = family(ages);
  t.by_sex_age_bucket = family(2 * kAgeBuckets);
  t.by_race = family(6);
  t.by_hispanic = family(2);
  t.by_race_sex_age_bucket = family(6 * 2 * kAgeBuckets);
  t.by_hispanic_sex_age_bucket = family(2 * 2 * kAgeBuckets);
  t.age_at_most = family(ages + 1);
  t.age_at_least = family(ages + 1);

  for (size_t v = 0; v < kPersonDomain; ++v) {
    const Record r = DecodePerson(v);
    const size_t age = static_cast<size_t>(r[kAge]);
    const size_t sex = static_cast<size_t>(r[kSex]);
    const size_t race = static_cast<size_t>(r[kRace]);
    const size_t hispanic = static_cast<size_t>(r[kHispanic]);
    const size_t bucket = age / 5;
    t.by_age[age].Set(v);
    t.by_sex_age_bucket[sex * kAgeBuckets + bucket].Set(v);
    t.by_race[race].Set(v);
    t.by_hispanic[hispanic].Set(v);
    t.by_race_sex_age_bucket[(race * 2 + sex) * kAgeBuckets + bucket].Set(v);
    t.by_hispanic_sex_age_bucket[(hispanic * 2 + sex) * kAgeBuckets + bucket]
        .Set(v);
    for (size_t m = age; m < ages; ++m) t.age_at_most[m + 1].Set(v);
    for (size_t m = 0; m <= age; ++m) t.age_at_least[m].Set(v);
  }
  return t;
}

}  // namespace

const BitVector& CellMasks::AgeAtMost(int64_t m) const {
  return age_at_most[static_cast<size_t>(std::clamp<int64_t>(m, -1, kMaxAge) +
                                         1)];
}

const BitVector& CellMasks::AgeAtLeast(int64_t m) const {
  return age_at_least[static_cast<size_t>(
      std::clamp<int64_t>(m, 0, kMaxAge + 1))];
}

const CellMasks& CensusCells() {
  static const CellMasks cells = BuildCells();
  return cells;
}

}  // namespace pso::census
