// Aligned ASCII table rendering for the benchmark harnesses.
//
// Every experiment binary prints its series/rows as a table like the ones a
// paper's evaluation section would carry, so the harness output can be
// compared to the paper's claims by eye.

#ifndef PSO_COMMON_TABLE_H_
#define PSO_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace pso {

/// Builds and renders an aligned text table with a header row.
class TextTable {
 public:
  /// Creates a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a data row; must have exactly as many cells as headers.
  void AddRow(std::vector<std::string> row);

  /// Renders the table with a separator under the header.
  std::string Render() const;

  /// Renders and writes to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pso

#endif  // PSO_COMMON_TABLE_H_
