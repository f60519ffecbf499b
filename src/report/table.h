// Minimal column-aligned table printer and CSV writer used by the benchmark
// harnesses and examples to emit the paper's tables and figure series.
#pragma once

#include <string>
#include <vector>

namespace dsmt::report {

/// A simple text table: set headers, add rows, print aligned.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience for numeric rows; `precision` applies to all doubles.
  void add_row_values(const std::vector<double>& values, int precision = 3);

  /// Renders with a header rule and 2-space column gaps.
  std::string to_string() const;
  /// Renders as CSV (no escaping beyond quoting commas).
  std::string to_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision.
/// v [1]: formatted verbatim, unit is the caller's concern.
std::string fmt(double v, int precision = 3);

/// Formats a metal level as "M<level>" ("M4").
std::string level_label(int level);

/// Writes a CSV series file of named columns (all the same length).
void write_csv(const std::string& path,
               const std::vector<std::string>& column_names,
               const std::vector<std::vector<double>>& columns);

}  // namespace dsmt::report
