#pragma once
// Golden-file comparison for tests that pin whole outputs byte for byte.
//
// Files live under tests/golden/ (ERMES_GOLDEN_DIR, set in
// tests/CMakeLists.txt). Running a test binary with ERMES_UPDATE_GOLDEN=1
// rewrites the files it compares against instead of checking them; review
// the resulting diff before committing it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace ermes::testing {

inline void expect_matches_golden(const std::string& name,
                                  const std::string& actual) {
  const std::string path = std::string(ERMES_GOLDEN_DIR) + "/" + name;
  if (std::getenv("ERMES_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "output differs from " << path;
}

}  // namespace ermes::testing
