// Deterministic JSON emission: escaping, shortest-round-trip doubles, the
// streaming writer, and StatRegistry::dump_json's schema.
#include "common/json.hpp"


#include <cstdlib>
#include <gtest/gtest.h>
#include <string>

#include "common/stats.hpp"

namespace camps {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("MX1/CAMPS-MOD"), "MX1/CAMPS-MOD");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonDouble, IntegersRenderWithoutFraction) {
  EXPECT_EQ(json_double(0.0), "0");
  EXPECT_EQ(json_double(42.0), "42");
  EXPECT_EQ(json_double(-3.0), "-3");
}

TEST(JsonDouble, NonFiniteRendersAsZero) {
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "0");
}

TEST(JsonDouble, ShortestRenderingRoundTrips) {
  for (double v : {0.1, 1.0 / 3.0, 2.5e-7, 123.456, 0.30000000000000004}) {
    const std::string s = json_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  // The classic: 0.1 must render as "0.1", not "0.10000000000000001".
  EXPECT_EQ(json_double(0.1), "0.1");
}

TEST(JsonWriter, CompactNesting) {
  JsonWriter w;
  w.begin_object();
  w.field("a", u64{1});
  w.key("b");
  w.begin_array();
  w.value("x");
  w.value(true);
  w.value(2.5);
  w.end_array();
  w.key("c");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":["x",true,2.5],"c":{}})");
}

TEST(JsonWriter, PrettyPrintsWithIndent) {
  JsonWriter w(2);
  w.begin_object();
  w.field("a", u64{1});
  w.key("b");
  w.begin_array();
  w.value(u64{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonWriter, RawSplicesPreRenderedFragments) {
  JsonWriter w;
  w.begin_object();
  w.key("inner");
  w.raw(R"({"x":1})");
  w.field("y", u64{2});
  w.end_object();
  EXPECT_EQ(w.str(), R"({"inner":{"x":1},"y":2})");
}

TEST(StatRegistryJson, SchemaContainsAllSections) {
  StatRegistry reg;
  reg.counter("vault0.rb_hit").inc(7);
  auto& h = reg.histogram("latency.test_cycles");
  h.sample(5);
  h.sample(25);

  // The two sections are the whole document.
  EXPECT_EQ(reg.dump_json(),
            R"({"counters":{"vault0.rb_hit":7},)"
            R"("histograms":{"latency.test_cycles":{"count":2,"sum":30,)"
            R"("min":5,"max":25,"mean":15,"p50":5,"p95":5,"p99":5}}})");
}

TEST(StatRegistryJson, DumpIsByteStableAcrossCalls) {
  StatRegistry reg;
  reg.counter("b").inc(2);
  reg.counter("a").inc(1);
  reg.histogram("h").sample(3);
  EXPECT_EQ(reg.dump_json(), reg.dump_json());
  // Keys come out in sorted map order regardless of registration order.
  const std::string json = reg.dump_json();
  EXPECT_LT(json.find("\"a\":"), json.find("\"b\":"));
}

}  // namespace
}  // namespace camps
