// Golden test for (explain ...) over the shipped university example: the
// rendered plans — operators, detail tokens, estimated and actual
// cardinalities — are pinned byte-for-byte in
// examples/explain/university.golden.
//
// A plan is a function of the KB state and the query alone, so the
// golden is stable across machines and across -DCLASSIC_OBS settings.
//
// To regenerate after an intentional planner change:
//   build/tests/explain_golden_test --regen

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "classic/interpreter.h"

#ifndef CLASSIC_EXAMPLES_DIR
#define CLASSIC_EXAMPLES_DIR "examples"
#endif

namespace classic {
namespace {

bool g_regen = false;

const char* const kExplainForms[] = {
    "(explain (ask STUDENT))",
    "(explain (ask (AND PERSON (AT-LEAST 1 enrolled-at))))",
    "(explain (ask (FILLS enrolled-at MIT)))",
    "(explain (ask (AND PERSON (FILLS enrolled-at MIT))))",
    "(explain (ask (AND PERSON (ALL owns ?:LIBRARY-CARD))))",
    "(explain (ask-possible PERSON))",
    "(explain (ask-description STUDENT))",
    "(explain (select (?x) (?x PERSON) (?x enrolled-at MIT)))",
    "(explain (instances UNIVERSITY))",
    "(explain (describe Alice))",
    "(explain (msc Alice))",
};

std::string GoldenPath() {
  return std::string(CLASSIC_EXAMPLES_DIR) + "/explain/university.golden";
}

TEST(ExplainGoldenTest, UniversityPlansMatchGolden) {
  std::ifstream in(std::string(CLASSIC_EXAMPLES_DIR) + "/university.classic");
  ASSERT_TRUE(in.good()) << "university.classic not found";
  std::stringstream buf;
  buf << in.rdbuf();

  Database db;
  Interpreter interp(&db);
  auto loaded = interp.ExecuteProgram(buf.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  std::string actual;
  for (const char* form : kExplainForms) {
    auto r = interp.ExecuteString(form);
    ASSERT_TRUE(r.ok()) << form << ": " << r.status().ToString();
    actual += "> ";
    actual += form;
    actual += "\n";
    actual += *r;
    actual += "\n";
  }

  if (g_regen) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << actual;
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }

  std::ifstream golden_in(GoldenPath());
  ASSERT_TRUE(golden_in.good())
      << GoldenPath() << " not found (run with --regen to create it)";
  std::stringstream golden;
  golden << golden_in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << "explain output drifted from the golden; if the change is "
         "intentional, regenerate with: explain_golden_test --regen";
}

}  // namespace
}  // namespace classic

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") classic::g_regen = true;
  }
  return RUN_ALL_TESTS();
}
