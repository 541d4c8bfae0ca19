#include "data/schema.h"

#include <unordered_set>

#include "common/check.h"
#include "common/hash.h"
#include "common/str_util.h"

namespace pso {

Attribute Attribute::Categorical(std::string name,
                                 std::vector<std::string> labels) {
  PSO_CHECK_MSG(!labels.empty(), "categorical attribute needs labels");
  Attribute a;
  a.name_ = std::move(name);
  a.type_ = AttributeType::kCategorical;
  a.labels_ = std::move(labels);
  a.min_value_ = 0;
  a.max_value_ = static_cast<int64_t>(a.labels_.size()) - 1;
  return a;
}

Attribute Attribute::Integer(std::string name, int64_t min_value,
                             int64_t max_value) {
  PSO_CHECK_MSG(min_value <= max_value, "empty integer domain");
  Attribute a;
  a.name_ = std::move(name);
  a.type_ = AttributeType::kInteger;
  a.min_value_ = min_value;
  a.max_value_ = max_value;
  return a;
}

int64_t Attribute::DomainSize() const { return max_value_ - min_value_ + 1; }

int64_t Attribute::MinValue() const { return min_value_; }

int64_t Attribute::MaxValue() const { return max_value_; }

bool Attribute::IsValid(int64_t code) const {
  return code >= min_value_ && code <= max_value_;
}

std::string Attribute::ValueToString(int64_t code) const {
  if (type_ == AttributeType::kCategorical) {
    if (!IsValid(code)) return StrFormat("<invalid:%lld>", (long long)code);
    return labels_[static_cast<size_t>(code)];
  }
  return StrFormat("%lld", (long long)code);
}

Schema::Schema(std::vector<Attribute> attributes)
    : attributes_(std::move(attributes)) {
  std::unordered_set<std::string> names;
  for (const Attribute& a : attributes_) {
    PSO_CHECK_MSG(names.insert(a.name()).second, "duplicate attribute name");
  }
}

const Attribute& Schema::attribute(size_t index) const {
  PSO_CHECK(index < attributes_.size());
  return attributes_[index];
}

bool Schema::IsValidRecord(const Record& record) const {
  if (record.size() != attributes_.size()) return false;
  for (size_t i = 0; i < record.size(); ++i) {
    if (!attributes_[i].IsValid(record[i])) return false;
  }
  return true;
}

std::string Schema::RecordToString(const Record& record) const {
  std::vector<std::string> parts;
  parts.reserve(record.size());
  for (size_t i = 0; i < record.size() && i < attributes_.size(); ++i) {
    parts.push_back(attributes_[i].name() + "=" +
                    attributes_[i].ValueToString(record[i]));
  }
  return Join(parts, ", ");
}

uint64_t Schema::RecordKey(const Record& record) const {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (int64_t v : record) h = HashCombine(h, static_cast<uint64_t>(v));
  return h;
}

}  // namespace pso
