#include "predicate/predicate.h"

#include <algorithm>

#include "common/check.h"
#include "common/metrics.h"
#include "common/str_util.h"

namespace pso {

namespace {

std::string AttrLabel(size_t attr, const std::string& name) {
  return name.empty() ? StrFormat("attr[%zu]", attr) : name;
}

class TruePredicate final : public Predicate {
 public:
  bool Eval(const Record&) const override { return true; }
  std::string Description() const override { return "TRUE"; }
  std::optional<double> ExactWeight(
      const ProductDistribution&) const override {
    return 1.0;
  }
  std::vector<size_t> AttributesTouched() const override { return {}; }
};

class FalsePredicate final : public Predicate {
 public:
  bool Eval(const Record&) const override { return false; }
  std::string Description() const override { return "FALSE"; }
  std::optional<double> ExactWeight(
      const ProductDistribution&) const override {
    return 0.0;
  }
  std::vector<size_t> AttributesTouched() const override { return {}; }
};

class AttributeEqualsPredicate final : public Predicate {
 public:
  AttributeEqualsPredicate(size_t attr, int64_t value, std::string name)
      : attr_(attr), value_(value), name_(std::move(name)) {}

  bool Eval(const Record& r) const override {
    return attr_ < r.size() && r[attr_] == value_;
  }
  std::string Description() const override {
    return StrFormat("%s == %lld", AttrLabel(attr_, name_).c_str(),
                     (long long)value_);
  }
  std::vector<size_t> AttributesTouched() const override { return {attr_}; }
  std::optional<double> ExactWeight(
      const ProductDistribution& dist) const override {
    if (attr_ >= dist.schema().NumAttributes()) return 0.0;
    return dist.marginal(attr_).Probability(value_);
  }

 private:
  size_t attr_;
  int64_t value_;
  std::string name_;
};

class AttributeInPredicate final : public Predicate {
 public:
  AttributeInPredicate(size_t attr, std::vector<int64_t> values,
                       std::string name)
      : attr_(attr),
        values_(values.begin(), values.end()),
        name_(std::move(name)) {}

  bool Eval(const Record& r) const override {
    return attr_ < r.size() && values_.count(r[attr_]) > 0;
  }
  std::string Description() const override {
    std::vector<int64_t> sorted(values_.begin(), values_.end());
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::string> parts;
    for (int64_t v : sorted) parts.push_back(StrFormat("%lld", (long long)v));
    return AttrLabel(attr_, name_) + " in {" + Join(parts, ",") + "}";
  }
  std::vector<size_t> AttributesTouched() const override { return {attr_}; }
  std::optional<double> ExactWeight(
      const ProductDistribution& dist) const override {
    if (attr_ >= dist.schema().NumAttributes()) return 0.0;
    // Sum in sorted value order, not unordered_set iteration order:
    // float addition is order-sensitive, and this weight feeds pinned
    // regression numbers (pso_lint rule `unordered-iteration`).
    std::vector<int64_t> sorted(values_.begin(), values_.end());
    std::sort(sorted.begin(), sorted.end());
    double mass = 0.0;
    for (int64_t v : sorted) mass += dist.marginal(attr_).Probability(v);
    return mass;
  }

 private:
  size_t attr_;
  std::unordered_set<int64_t> values_;
  std::string name_;
};

class AttributeRangePredicate final : public Predicate {
 public:
  AttributeRangePredicate(size_t attr, int64_t lo, int64_t hi,
                          std::string name)
      : attr_(attr), lo_(lo), hi_(hi), name_(std::move(name)) {}

  bool Eval(const Record& r) const override {
    return attr_ < r.size() && r[attr_] >= lo_ && r[attr_] <= hi_;
  }
  std::string Description() const override {
    return StrFormat("%lld <= %s <= %lld", (long long)lo_,
                     AttrLabel(attr_, name_).c_str(), (long long)hi_);
  }
  std::vector<size_t> AttributesTouched() const override { return {attr_}; }
  std::optional<double> ExactWeight(
      const ProductDistribution& dist) const override {
    if (attr_ >= dist.schema().NumAttributes()) return 0.0;
    return dist.marginal(attr_).MassInRange(lo_, hi_);
  }

 private:
  size_t attr_;
  int64_t lo_;
  int64_t hi_;
  std::string name_;
};

class AndPredicate final : public Predicate {
 public:
  explicit AndPredicate(std::vector<PredicateRef> terms)
      : terms_(std::move(terms)) {
    for (const auto& t : terms_) PSO_CHECK(t != nullptr);
  }

  bool Eval(const Record& r) const override {
    for (const auto& t : terms_) {
      if (!t->Eval(r)) return false;
    }
    return true;
  }
  std::string Description() const override {
    if (terms_.empty()) return "TRUE";
    std::vector<std::string> parts;
    for (const auto& t : terms_) parts.push_back("(" + t->Description() + ")");
    return Join(parts, " AND ");
  }
  std::vector<size_t> AttributesTouched() const override {
    std::vector<size_t> all;
    for (const auto& t : terms_) {
      auto a = t->AttributesTouched();
      all.insert(all.end(), a.begin(), a.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return all;
  }
  std::optional<double> ExactWeight(
      const ProductDistribution& dist) const override {
    // Exact only when the conjuncts read pairwise-disjoint attribute sets
    // (then independence under the product distribution gives the product
    // rule). A term with an unknown attribute set blocks exactness.
    std::unordered_set<size_t> seen;
    double w = 1.0;
    for (const auto& t : terms_) {
      auto attrs = t->AttributesTouched();
      auto ew = t->ExactWeight(dist);
      if (!ew.has_value()) return std::nullopt;
      if (attrs.empty() && !terms_.empty() &&
          dynamic_cast<const TruePredicate*>(t.get()) == nullptr &&
          dynamic_cast<const FalsePredicate*>(t.get()) == nullptr) {
        return std::nullopt;  // unknown footprint (e.g. a hash predicate)
      }
      for (size_t a : attrs) {
        if (!seen.insert(a).second) return std::nullopt;  // overlap
      }
      w *= *ew;
    }
    return w;
  }

 private:
  std::vector<PredicateRef> terms_;
};

class OrPredicate final : public Predicate {
 public:
  explicit OrPredicate(std::vector<PredicateRef> terms)
      : terms_(std::move(terms)) {
    for (const auto& t : terms_) PSO_CHECK(t != nullptr);
  }

  bool Eval(const Record& r) const override {
    for (const auto& t : terms_) {
      if (t->Eval(r)) return true;
    }
    return false;
  }
  std::string Description() const override {
    if (terms_.empty()) return "FALSE";
    std::vector<std::string> parts;
    for (const auto& t : terms_) parts.push_back("(" + t->Description() + ")");
    return Join(parts, " OR ");
  }
  std::vector<size_t> AttributesTouched() const override {
    std::vector<size_t> all;
    for (const auto& t : terms_) {
      auto a = t->AttributesTouched();
      all.insert(all.end(), a.begin(), a.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return all;
  }
  std::optional<double> ExactWeight(
      const ProductDistribution& dist) const override {
    // De Morgan dual of the conjunction rule: exact when the disjuncts
    // read pairwise-disjoint attribute sets, since then
    // Pr[any fires] = 1 - prod_i (1 - w_i) under the product measure.
    std::unordered_set<size_t> seen;
    double none = 1.0;
    for (const auto& t : terms_) {
      auto attrs = t->AttributesTouched();
      auto ew = t->ExactWeight(dist);
      if (!ew.has_value()) return std::nullopt;
      if (attrs.empty() &&
          dynamic_cast<const TruePredicate*>(t.get()) == nullptr &&
          dynamic_cast<const FalsePredicate*>(t.get()) == nullptr) {
        return std::nullopt;  // unknown footprint (e.g. a hash predicate)
      }
      for (size_t a : attrs) {
        if (!seen.insert(a).second) return std::nullopt;  // overlap
      }
      none *= 1.0 - *ew;
    }
    return 1.0 - none;
  }

 private:
  std::vector<PredicateRef> terms_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicateRef inner) : inner_(std::move(inner)) {
    PSO_CHECK(inner_ != nullptr);
  }

  bool Eval(const Record& r) const override { return !inner_->Eval(r); }
  std::string Description() const override {
    return "NOT (" + inner_->Description() + ")";
  }
  std::vector<size_t> AttributesTouched() const override {
    return inner_->AttributesTouched();
  }
  std::optional<double> ExactWeight(
      const ProductDistribution& dist) const override {
    auto w = inner_->ExactWeight(dist);
    if (!w.has_value()) return std::nullopt;
    return 1.0 - *w;
  }

 private:
  PredicateRef inner_;
};

class RecordEqualsPredicate final : public Predicate {
 public:
  RecordEqualsPredicate(const Schema& schema, Record target)
      : schema_(schema), target_(std::move(target)) {
    PSO_CHECK_MSG(schema_.IsValidRecord(target_),
                  "target record does not match schema");
  }

  bool Eval(const Record& r) const override { return r == target_; }
  std::string Description() const override {
    return "record == {" + schema_.RecordToString(target_) + "}";
  }
  std::vector<size_t> AttributesTouched() const override {
    std::vector<size_t> all(schema_.NumAttributes());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }
  std::optional<double> ExactWeight(
      const ProductDistribution& dist) const override {
    return dist.RecordProbability(target_);
  }

 private:
  Schema schema_;
  Record target_;
};

class HashPredicate final : public Predicate {
 public:
  HashPredicate(const Schema& schema, const UniversalHash& h, uint64_t bucket,
                std::vector<size_t> attrs)
      : schema_(schema), hash_(h), bucket_(bucket), attrs_(std::move(attrs)) {
    PSO_CHECK(bucket < h.range());
    for (size_t a : attrs_) PSO_CHECK(a < schema_.NumAttributes());
  }

  bool Eval(const Record& r) const override {
    uint64_t key;
    if (attrs_.empty()) {
      key = schema_.RecordKey(r);
    } else {
      uint64_t k = 0x9ae16a3b2f90404fULL;
      for (size_t a : attrs_) {
        if (a >= r.size()) return false;
        k = HashCombine(k, static_cast<uint64_t>(r[a]));
      }
      key = k;
    }
    return hash_.Eval(key) == bucket_;
  }
  std::string Description() const override {
    return StrFormat("hash_{a=%llu,b=%llu}(x%s) == %llu  (design weight 1/%llu)",
                     (unsigned long long)hash_.a(),
                     (unsigned long long)hash_.b(),
                     attrs_.empty() ? "" : "|restricted",
                     (unsigned long long)bucket_,
                     (unsigned long long)hash_.range());
  }

 private:
  Schema schema_;
  UniversalHash hash_;
  uint64_t bucket_;
  std::vector<size_t> attrs_;
};

class HashIntervalPredicate final : public Predicate {
 public:
  HashIntervalPredicate(const Schema& schema, const UniversalHash& h,
                        uint64_t lo, uint64_t hi)
      : schema_(schema), hash_(h), lo_(lo), hi_(hi) {
    PSO_CHECK(lo < hi && hi <= h.range());
  }

  bool Eval(const Record& r) const override {
    uint64_t v = hash_.Eval(schema_.RecordKey(r));
    return v >= lo_ && v < hi_;
  }
  std::string Description() const override {
    return StrFormat(
        "hash(x) in [%llu, %llu)  (design weight %llu/%llu)",
        (unsigned long long)lo_, (unsigned long long)hi_,
        (unsigned long long)(hi_ - lo_), (unsigned long long)hash_.range());
  }

 private:
  Schema schema_;
  UniversalHash hash_;
  uint64_t lo_;
  uint64_t hi_;
};

}  // namespace

PredicateRef MakeHashIntervalPredicate(const Schema& schema,
                                       const UniversalHash& h, uint64_t lo,
                                       uint64_t hi) {
  return std::make_shared<HashIntervalPredicate>(schema, h, lo, hi);
}

PredicateRef MakeTrue() { return std::make_shared<TruePredicate>(); }

PredicateRef MakeFalse() { return std::make_shared<FalsePredicate>(); }

PredicateRef MakeAttributeEquals(size_t attr, int64_t value,
                                 std::string attr_name) {
  return std::make_shared<AttributeEqualsPredicate>(attr, value,
                                                    std::move(attr_name));
}

PredicateRef MakeAttributeIn(size_t attr, std::vector<int64_t> values,
                             std::string attr_name) {
  return std::make_shared<AttributeInPredicate>(attr, std::move(values),
                                                std::move(attr_name));
}

PredicateRef MakeAttributeRange(size_t attr, int64_t lo, int64_t hi,
                                std::string attr_name) {
  return std::make_shared<AttributeRangePredicate>(attr, lo, hi,
                                                   std::move(attr_name));
}

PredicateRef MakeAnd(std::vector<PredicateRef> terms) {
  return std::make_shared<AndPredicate>(std::move(terms));
}

PredicateRef MakeOr(std::vector<PredicateRef> terms) {
  return std::make_shared<OrPredicate>(std::move(terms));
}

PredicateRef MakeNot(PredicateRef inner) {
  return std::make_shared<NotPredicate>(std::move(inner));
}

PredicateRef MakeRecordEquals(const Schema& schema, Record target) {
  return std::make_shared<RecordEqualsPredicate>(schema, std::move(target));
}

PredicateRef MakeHashPredicate(const Schema& schema, const UniversalHash& h,
                               uint64_t bucket, std::vector<size_t> attrs) {
  return std::make_shared<HashPredicate>(schema, h, bucket, std::move(attrs));
}

size_t CountMatches(const Predicate& pred, const Dataset& dataset) {
  size_t count = 0;
  for (const Record& r : dataset.records()) {
    if (pred.Eval(r)) ++count;
  }
  return count;
}

bool Isolates(const Predicate& pred, const Dataset& dataset) {
  metrics::GetCounter("predicate.isolation_checks").Add(1);
  size_t count = 0;
  for (const Record& r : dataset.records()) {
    if (pred.Eval(r)) {
      if (++count > 1) return false;
    }
  }
  return count == 1;
}

}  // namespace pso
