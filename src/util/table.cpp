#include "util/table.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace tiv {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  // Column widths over header + all rows.
  std::vector<std::size_t> widths;
  auto grow = [&widths](const std::vector<std::string>& row) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  grow(header_);
  for (const auto& r : rows_) grow(r);

  auto emit = [&os, &widths](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << row[i];
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit(r);
}

std::string format_double(double v, int precision) {
  if (std::isnan(v)) return "-";
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << v;
  return ss.str();
}

void print_section(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n";
}

}  // namespace tiv
