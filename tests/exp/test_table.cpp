#include "exp/table.hpp"


#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

#include "temp_path.hpp"

namespace camps::exp {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ColumnsAligned) {
  Table t({"x", "y"});
  t.add_row({"longvalue", "1"});
  const std::string s = t.to_string();
  // Header row pads "x" to the width of "longvalue": the 'y' column starts
  // at the same offset in both lines.
  const auto first_line = s.substr(0, s.find('\n'));
  std::istringstream in(s);
  std::string header, sep, row;
  std::getline(in, header);
  std::getline(in, sep);
  std::getline(in, row);
  EXPECT_EQ(header.find('y'), row.find('1'));
  EXPECT_GE(sep.size(), header.size() - 1);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 3), "1.235");
  EXPECT_EQ(Table::fmt(2.0, 1), "2.0");
  EXPECT_EQ(Table::fmt(-0.5, 2), "-0.50");
}

TEST(Table, PctFormatsFractions) {
  EXPECT_EQ(Table::pct(0.705, 1), "70.5%");
  EXPECT_EQ(Table::pct(0.0, 0), "0%");
  EXPECT_EQ(Table::pct(1.0, 1), "100.0%");
}

TEST(Table, EmptyTableStillRendersHeader) {
  Table t({"only"});
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

TEST(Table, CsvPlainCells) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"name", "note"});
  t.add_row({"x,y", "he said \"hi\""});
  EXPECT_EQ(t.to_csv(), "name,note\n\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(Table, WriteCsvRoundTrip) {
  Table t({"k", "v"});
  t.add_row({"alpha", "42"});
  const std::string path = test_temp_path(".csv");
  t.write_csv(path);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, t.to_csv());
  std::remove(path.c_str());
}

TEST(Table, WriteCsvBadPathThrows) {
  Table t({"k"});
  EXPECT_THROW(t.write_csv("/nonexistent/dir/x.csv"), std::runtime_error);
}

}  // namespace
}  // namespace camps::exp
