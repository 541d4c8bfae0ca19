// Schema: typed attribute metadata for micro-data datasets.
//
// All attribute values are stored as int64_t codes. Categorical attributes
// carry label strings (decoded for display); integer attributes carry an
// inclusive [min, max] range. This encoding keeps records flat and fast for
// the statistical attacks while retaining human-readable output.

#ifndef PSO_DATA_SCHEMA_H_
#define PSO_DATA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pso {

/// A single record: one encoded value per schema attribute.
using Record = std::vector<int64_t>;

/// Kind of an attribute's domain.
enum class AttributeType {
  kCategorical,  ///< Finite labelled categories; codes are [0, labels.size()).
  kInteger,      ///< Integer range [min_value, max_value], inclusive.
};

/// Metadata for one attribute.
class Attribute {
 public:
  /// Creates a categorical attribute with the given labels (codes are the
  /// label indices).
  static Attribute Categorical(std::string name,
                               std::vector<std::string> labels);

  /// Creates an integer attribute over [min_value, max_value].
  static Attribute Integer(std::string name, int64_t min_value,
                           int64_t max_value);

  const std::string& name() const { return name_; }

  /// Number of distinct values in the domain.
  int64_t DomainSize() const;

  /// Smallest/largest valid code.
  int64_t MinValue() const;
  int64_t MaxValue() const;

  /// True if `code` is a valid value for this attribute.
  bool IsValid(int64_t code) const;

  /// Human-readable rendering of `code` (label or number).
  std::string ValueToString(int64_t code) const;


 private:
  Attribute() = default;

  std::string name_;
  AttributeType type_ = AttributeType::kInteger;
  std::vector<std::string> labels_;
  int64_t min_value_ = 0;
  int64_t max_value_ = 0;
};

/// An ordered list of uniquely named attributes.
class Schema {
 public:
  Schema() = default;

  /// Builds a schema from `attributes`; names must be unique.
  explicit Schema(std::vector<Attribute> attributes);

  size_t NumAttributes() const { return attributes_.size(); }
  const Attribute& attribute(size_t index) const;

  /// True if `record` has the right arity and every value is in-domain.
  bool IsValidRecord(const Record& record) const;

  /// Renders a record as "name=value, ...".
  std::string RecordToString(const Record& record) const;

  /// Packs `record` into a 64-bit key by hash-combining all attribute
  /// values. Distinct records collide with probability ~2^-64; used as the
  /// input to universal-hash predicates.
  uint64_t RecordKey(const Record& record) const;

 private:
  std::vector<Attribute> attributes_;
};

}  // namespace pso

#endif  // PSO_DATA_SCHEMA_H_
