// Per-test scratch file paths. ctest -j runs every TEST as its own process,
// so a fixed file name shared by two tests races; deriving the name from
// the running test keeps each test's file private.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace camps {

/// TempDir()/camps_<suite>.<test><suffix>, unique to the running test.
inline std::string test_temp_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("camps_") + info->test_suite_name() + "." +
                     info->name() + suffix;
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  return ::testing::TempDir() + "/" + name;
}

}  // namespace camps
