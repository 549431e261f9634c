#include "exp/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/json.hpp"

namespace camps::exp {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  CAMPS_ASSERT(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  CAMPS_ASSERT(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << row[c];
      if (c + 1 < row.size()) {
        out << std::string(widths[c] - row[c].size() + 2, ' ');
      }
    }
    out << '\n';
  };
  emit_row(headers_);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) out << ',';
      out << csv_escape(row[c]);
    }
    out << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string Table::to_json(int indent) const {
  JsonWriter w(indent);
  w.begin_object();
  w.key("headers");
  w.begin_array();
  for (const auto& h : headers_) w.value(h);
  w.end_array();
  w.key("rows");
  w.begin_array();
  for (const auto& row : rows_) {
    w.begin_array();
    for (const auto& cell : row) w.value(cell);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void Table::write_csv(const std::string& path) const {
  write_text_file(path, to_csv());
}

std::string Table::fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string Table::pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

}  // namespace camps::exp
