#include "report/table.h"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/atomic_file.h"

namespace dsmt::report {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table::add_row: cell count mismatch");
  rows_.push_back(std::move(cells));
}

void Table::add_row_values(const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(fmt(v, precision));
  add_row(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      if (c + 1 < row.size()) os << "  ";
    }
    os << "\n";
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const bool quote = row[c].find(',') != std::string::npos;
      if (quote) os << '"';
      os << row[c];
      if (quote) os << '"';
      if (c + 1 < row.size()) os << ',';
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string level_label(int level) {
  std::ostringstream os;
  os << 'M' << level;
  return os.str();
}

void write_csv(const std::string& path,
               const std::vector<std::string>& column_names,
               const std::vector<std::vector<double>>& columns) {
  if (column_names.size() != columns.size() || columns.empty())
    throw std::invalid_argument("write_csv: column mismatch");
  const std::size_t n = columns.front().size();
  for (const auto& c : columns)
    if (c.size() != n) throw std::invalid_argument("write_csv: ragged data");

  // Staged write: the file appears complete or not at all, so a run killed
  // mid-emit can never leave a truncated CSV behind.
  core::AtomicFile file(path);
  std::ostream& os = file.stream();
  for (std::size_t c = 0; c < column_names.size(); ++c) {
    os << column_names[c];
    os << (c + 1 < column_names.size() ? ',' : '\n');
  }
  os << std::setprecision(10);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < columns.size(); ++c) {
      os << columns[c][i];
      os << (c + 1 < columns.size() ? ',' : '\n');
    }
  file.commit();
}

}  // namespace dsmt::report
