#include "common/config_file.hpp"


#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <string>

#include "temp_path.hpp"

namespace camps {
namespace {

TEST(ConfigFile, ParsesKeyValues) {
  auto cfg = ConfigFile::parse("a = 1\nb= hello\nc =3.5\n");
  EXPECT_EQ(cfg.get_int("a"), 1);
  EXPECT_EQ(cfg.get_string("b"), "hello");
  EXPECT_DOUBLE_EQ(cfg.get_double("c"), 3.5);
}

TEST(ConfigFile, SectionsFoldIntoKeys) {
  auto cfg = ConfigFile::parse("[hmc]\nvaults = 32\n[cpu]\ncores = 8\n");
  EXPECT_EQ(cfg.get_uint("hmc.vaults"), 32u);
  EXPECT_EQ(cfg.get_uint("cpu.cores"), 8u);
  EXPECT_FALSE(cfg.has("vaults"));
}

TEST(ConfigFile, CommentsAndBlankLinesIgnored) {
  auto cfg = ConfigFile::parse(
      "# full line comment\n\n  ; another\n a = 1 # trailing\n");
  EXPECT_EQ(cfg.get_int("a"), 1);
  EXPECT_EQ(cfg.keys().size(), 1u);
}

TEST(ConfigFile, WhitespaceTrimmed) {
  auto cfg = ConfigFile::parse("   key   =    value with spaces   \n");
  EXPECT_EQ(cfg.get_string("key"), "value with spaces");
}

TEST(ConfigFile, FallbacksWhenMissing) {
  ConfigFile cfg;
  EXPECT_EQ(cfg.get_int("x", -5), -5);
  EXPECT_EQ(cfg.get_uint("x", 7), 7u);
  EXPECT_DOUBLE_EQ(cfg.get_double("x", 1.5), 1.5);
  EXPECT_EQ(cfg.get_string("x", "d"), "d");
  EXPECT_TRUE(cfg.get_bool("x", true));
}

TEST(ConfigFile, BoolForms) {
  auto cfg = ConfigFile::parse(
      "a=true\nb=FALSE\nc=1\nd=0\ne=Yes\nf=no\ng=on\nh=OFF\n");
  EXPECT_TRUE(cfg.get_bool("a"));
  EXPECT_FALSE(cfg.get_bool("b"));
  EXPECT_TRUE(cfg.get_bool("c"));
  EXPECT_FALSE(cfg.get_bool("d"));
  EXPECT_TRUE(cfg.get_bool("e"));
  EXPECT_FALSE(cfg.get_bool("f"));
  EXPECT_TRUE(cfg.get_bool("g"));
  EXPECT_FALSE(cfg.get_bool("h"));
}

TEST(ConfigFile, NegativeIntParses) {
  auto cfg = ConfigFile::parse("x = -42\n");
  EXPECT_EQ(cfg.get_int("x"), -42);
}

TEST(ConfigFile, BadIntThrows) {
  auto cfg = ConfigFile::parse("x = 12abc\n");
  EXPECT_THROW(cfg.get_int("x"), std::runtime_error);
}

TEST(ConfigFile, BadBoolThrows) {
  auto cfg = ConfigFile::parse("x = maybe\n");
  EXPECT_THROW(cfg.get_bool("x"), std::runtime_error);
}

TEST(ConfigFile, BadDoubleThrows) {
  auto cfg = ConfigFile::parse("x = 1.2.3\n");
  EXPECT_THROW(cfg.get_double("x"), std::runtime_error);
}

TEST(ConfigFile, MalformedLineThrowsWithLineNumber) {
  try {
    ConfigFile::parse("good = 1\nno equals sign here\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ConfigFile, UnterminatedSectionThrows) {
  EXPECT_THROW(ConfigFile::parse("[hmc\n"), std::runtime_error);
}

TEST(ConfigFile, EmptyKeyThrows) {
  EXPECT_THROW(ConfigFile::parse(" = 1\n"), std::runtime_error);
}

TEST(ConfigFile, LastDuplicateWins) {
  auto cfg = ConfigFile::parse("a = 1\na = 2\n");
  EXPECT_EQ(cfg.get_int("a"), 2);
}

TEST(ConfigFile, SetOverridesAndKeysSorted) {
  auto cfg = ConfigFile::parse("b = 1\n");
  cfg.set("a", "2");
  cfg.set("b", "3");
  const auto keys = cfg.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
  EXPECT_EQ(cfg.get_int("b"), 3);
}

TEST(ConfigFile, RequireKnownAcceptsExactKeys) {
  const auto cfg = ConfigFile::parse("seed = 1\n[hmc]\nvaults = 32\n");
  EXPECT_NO_THROW(cfg.require_known({"hmc.vaults", "seed", "unused.key"}));
}

TEST(ConfigFile, RequireKnownRejectsUnknownKey) {
  const auto cfg = ConfigFile::parse("bogus = 1\n");
  EXPECT_THROW(cfg.require_known({"seed"}), std::runtime_error);
}

TEST(ConfigFile, RequireKnownSuggestsNearMiss) {
  // A typo'd key must fail loudly and point at the intended key.
  const auto cfg = ConfigFile::parse("audit_evry = 1000\n");
  try {
    cfg.require_known({"audit_every", "seed", "cores"});
    FAIL() << "unknown key was accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("audit_evry"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'audit_every'"), std::string::npos)
        << msg;
  }
}

TEST(ConfigFile, RequireKnownListsEveryUnknownKey) {
  const auto cfg = ConfigFile::parse("first_bad = 1\nsecond_bad = 2\n");
  try {
    cfg.require_known({"seed"});
    FAIL() << "unknown keys were accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("first_bad"), std::string::npos) << msg;
    EXPECT_NE(msg.find("second_bad"), std::string::npos) << msg;
  }
}

TEST(ConfigFile, LoadMissingFileThrows) {
  EXPECT_THROW(ConfigFile::load("/nonexistent/path/cfg.ini"),
               std::runtime_error);
}

TEST(ConfigFile, LoadRoundTrip) {
  const std::string path = test_temp_path(".ini");
  {
    std::ofstream out(path);
    out << "[sim]\nticks = 123\n";
  }
  auto cfg = ConfigFile::load(path);
  EXPECT_EQ(cfg.get_uint("sim.ticks"), 123u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace camps
