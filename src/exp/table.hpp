// Column-aligned plain-text tables, shared by every bench binary so figure
// output is uniform and diffable.
#pragma once

#include <string>
#include <vector>

namespace camps::exp {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  std::string to_string() const;

  /// Comma-separated rendering (quotes cells containing commas/quotes) for
  /// downstream plotting.
  std::string to_csv() const;

  /// Writes to_csv() to `path`; throws std::runtime_error on I/O failure.
  void write_csv(const std::string& path) const;

  /// JSON rendering: {"headers": [...], "rows": [[...], ...]}. Byte-stable
  /// for a given table (cells are already formatted strings).
  std::string to_json(int indent = 0) const;

  const std::vector<std::string>& headers() const { return headers_; }

  size_t rows() const { return rows_.size(); }

  /// Fixed-precision double formatting ("1.234").
  static std::string fmt(double value, int precision = 3);
  /// Percentage formatting ("12.3%").
  static std::string pct(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace camps::exp
