// Aligned-column table printing for the example binaries' human-readable
// reports. (The benches emit JSON records instead; see bench/bench_common.hpp.)
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace tiv {

/// Accumulates rows of stringified cells and prints them with padded,
/// left-aligned columns. Cell counts may vary per row.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Pretty text with a header underline.
  void print(std::ostream& os) const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision, trimming to "-" for NaN.
std::string format_double(double v, int precision = 4);

/// Prints an "=== title ===" section banner used by the example binaries.
void print_section(std::ostream& os, const std::string& title);

}  // namespace tiv
