// A small JSON value for the benchmark: it renders results.json and the
// result line, and parses the daemon's `--metrics-format json` dump.

#ifndef PSO_BENCH_SUITE_JSON_H_
#define PSO_BENCH_SUITE_JSON_H_

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pso::bench {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json Number(double v);
  static Json Bool(bool v);
  static Json String(std::string v);
  static Json Array();
  static Json Object();

  /// Object members keep insertion order; Set() replaces an existing key
  /// and returns the member.
  Json& Set(const std::string& key, Json value);
  /// The number at a key path, e.g. {"histograms", "service.answer",
  /// "p50"}; nullopt when any step is missing or not a number.
  std::optional<double> NumberAt(std::initializer_list<std::string_view> path) const;

  void Push(Json value) { items_.push_back(std::move(value)); }

  /// Compact rendering; numbers keep all 17 significant digits and
  /// non-finite numbers render as null.
  std::string Dump() const;

  /// Parses one JSON document; nullopt on malformed input.
  static std::optional<Json> Parse(std::string_view text);

 private:
  const Json* Find(std::string_view key) const;

  Type type_ = Type::kNull;
  double number_ = 0.0;
  bool boolean_ = false;
  std::string str_;
  std::vector<std::string> keys_;  // kObject: parallel to items_
  std::vector<Json> items_;        // kArray elements or kObject values
};

}  // namespace pso::bench

#endif  // PSO_BENCH_SUITE_JSON_H_
