// End-to-end scenario: a university registrar database exercising every
// feature in combination — disjoint primitives, attributes, SAME-AS,
// host values and TESTs, rules, recognition cascades, retraction,
// persistence, and all query forms. Each stage asserts exact outcomes,
// so regressions anywhere in the stack surface here.

#include <gtest/gtest.h>

#include <cstdio>

#include "classic/database.h"
#include "classic/interpreter.h"
#include "host/standard_tests.h"

namespace classic {
namespace {

class UniversityTest : public ::testing::Test {
 protected:
  void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }
  template <typename T>
  T Must(Result<T> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  void SetUp() override {
    Must(host::RegisterStandardTests(&db_.kb().vocab()));
    Must(db_.RegisterTest("passing-grade",
                          host::IntegerRangeTest(60, 100)));

    // Roles.
    Must(db_.DefineRole("teaches"));
    Must(db_.DefineRole("takes"));
    Must(db_.DefineRole("grade"));
    Must(db_.DefineAttribute("advisor"));
    Must(db_.DefineAttribute("department"));
    Must(db_.DefineAttribute("head"));
    Must(db_.DefineAttribute("mentor"));

    // Concepts.
    Must(db_.DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING person)"));
    Must(db_.DefineConcept("FACULTY",
                           "(DISJOINT-PRIMITIVE PERSON role faculty)"));
    Must(db_.DefineConcept("UNDERGRAD",
                           "(DISJOINT-PRIMITIVE PERSON role undergrad)"));
    Must(db_.DefineConcept("COURSE", "(PRIMITIVE CLASSIC-THING course)"));
    Must(db_.DefineConcept("DEPARTMENT",
                           "(PRIMITIVE CLASSIC-THING department)"));
    Must(db_.DefineConcept("TEACHER", "(AND PERSON (AT-LEAST 1 teaches) "
                                      "(ALL teaches COURSE))"));
    Must(db_.DefineConcept("STUDENT", "(AND PERSON (AT-LEAST 1 takes))"));
    Must(db_.DefineConcept("ADVISED-STUDENT",
                           "(AND STUDENT (AT-LEAST 1 advisor) "
                           "(ALL advisor FACULTY))"));
    // A department head advises their own mentees within the department:
    // head's mentor chain equals the head itself — use SAME-AS on a
    // department: its head's department is the department itself.
    Must(db_.DefineConcept(
        "WELL-FORMED-DEPT",
        "(AND DEPARTMENT (AT-LEAST 1 head) (ALL head FACULTY) "
        "(SAME-AS (head department) (head department)))"));
    Must(db_.DefineConcept("PASSING-GRADE",
                           "(AND INTEGER (TEST passing-grade))"));

    // Rule: every faculty member teaches only courses (knowledge about
    // the world, not part of FACULTY's definition).
    Must(db_.AssertRule("FACULTY", "(ALL teaches COURSE)"));
  }

  Database db_;
};

TEST_F(UniversityTest, FullScenario) {
  // --- Populate ------------------------------------------------------------
  Must(db_.CreateIndividual("CS", "DEPARTMENT"));
  Must(db_.CreateIndividual("Knuth", "FACULTY"));
  Must(db_.AssertInd("Knuth", "(FILLS department CS)"));
  Must(db_.AssertInd("CS", "(FILLS head Knuth)"));
  Must(db_.CreateIndividual("CS101", "COURSE"));
  Must(db_.CreateIndividual("CS301", "COURSE"));
  Must(db_.AssertInd("Knuth", "(FILLS teaches CS101 CS301)"));

  // Knuth is recognized as a TEACHER: the rule supplies (ALL teaches
  // COURSE), the fillers supply AT-LEAST 1.
  auto teachers = Must(db_.Ask("TEACHER"));
  ASSERT_EQ(teachers.size(), 1u);
  EXPECT_EQ(teachers[0], "Knuth");

  // A student with an advisor.
  Must(db_.CreateIndividual("Alice", "UNDERGRAD"));
  Must(db_.AssertInd("Alice", "(FILLS takes CS101)"));
  Must(db_.AssertInd("Alice", "(FILLS advisor Knuth)"));
  EXPECT_EQ(Must(db_.Ask("ADVISED-STUDENT")), std::vector<std::string>{
                                                  "Alice"});

  // Disjointness: Alice cannot also be faculty.
  EXPECT_TRUE(db_.AssertInd("Alice", "FACULTY").IsInconsistent());

  // Host values + TEST: grades.
  Must(db_.AssertInd("Alice", "(FILLS grade 85)"));
  Must(db_.AssertInd("Alice", "(ALL grade PASSING-GRADE)"));
  // A failing grade now contradicts.
  EXPECT_TRUE(db_.AssertInd("Alice", "(FILLS grade 12)").IsInconsistent());

  // --- SAME-AS derivation ----------------------------------------------------
  // Bob's mentor is his advisor (whoever that turns out to be).
  Must(db_.CreateIndividual("Bob", "UNDERGRAD"));
  Must(db_.AssertInd("Bob", "(FILLS takes CS301)"));
  Must(db_.AssertInd("Bob", "(SAME-AS (mentor) (advisor))"));
  Must(db_.AssertInd("Bob", "(FILLS advisor Knuth)"));
  EXPECT_EQ(Must(db_.Fillers("Bob", "mentor")),
            std::vector<std::string>{"Knuth"});

  // --- Queries ----------------------------------------------------------------
  // Marked query: who do advised students have as advisors?
  auto advisors =
      Must(db_.Ask("(AND ADVISED-STUDENT (ALL advisor ?:FACULTY))"));
  ASSERT_EQ(advisors.size(), 1u);
  EXPECT_EQ(advisors[0], "Knuth");

  // Path query: students and the courses their advisor teaches.
  Interpreter interp(&db_);
  auto rows = interp.ExecuteString(
      "(select (?s ?c) (?s STUDENT) (?s advisor ?f) (?f teaches ?c))");
  ASSERT_TRUE(rows.ok());
  EXPECT_NE(rows->find("(Alice CS101)"), std::string::npos) << *rows;
  EXPECT_NE(rows->find("(Bob CS301)"), std::string::npos) << *rows;

  // Summarize the student body.
  auto sum = Must(db_.AskDescriptionFull("STUDENT"));
  (void)sum;
  auto& symbols = db_.kb().vocab().symbols();
  auto q = ParseQueryString("STUDENT", &symbols);
  ASSERT_TRUE(q.ok());
  auto ext = SummarizeExtension(db_.kb(), *q);
  ASSERT_TRUE(ext.ok());
  std::string common = ext->normal_form->ToString(db_.kb().vocab());
  // Every known student is an undergrad person with a Knuth advisor.
  EXPECT_NE(common.find("undergrad"), std::string::npos) << common;
  EXPECT_NE(common.find("(FILLS advisor Knuth)"), std::string::npos)
      << common;

  // Open world: who might teach CS101? Anyone not excluded.
  auto possible = Must(db_.AskPossible("(FILLS teaches CS101)"));
  bool bob_possible = false;
  for (const auto& n : possible) bob_possible |= (n == "Bob");
  EXPECT_TRUE(bob_possible);

  // --- Retraction ----------------------------------------------------------------
  Must(db_.RetractInd("Alice", "(FILLS takes CS101)"));
  // Alice is no longer a student; Bob (takes CS301, advisor Knuth) still
  // is, and still an advised one.
  EXPECT_EQ(Must(db_.Ask("ADVISED-STUDENT")), std::vector<std::string>{
                                                  "Bob"});
  EXPECT_EQ(Must(db_.Ask("STUDENT")), std::vector<std::string>{"Bob"});
  // Alice's other facts survive.
  EXPECT_EQ(Must(db_.Fillers("Alice", "grade")),
            std::vector<std::string>{"85"});

  // --- Persistence round trip -------------------------------------------------------
  std::string snap =
      std::string(::testing::TempDir()) + "/university.snap";
  Must(db_.SaveSnapshot(snap));
  Database restored;
  Must(host::RegisterStandardTests(&restored.kb().vocab()));
  Must(restored.RegisterTest("passing-grade",
                             host::IntegerRangeTest(60, 100)));
  Must(restored.LoadFile(snap));
  EXPECT_EQ(Must(restored.Ask("TEACHER")), Must(db_.Ask("TEACHER")));
  EXPECT_EQ(Must(restored.Ask("STUDENT")), Must(db_.Ask("STUDENT")));
  EXPECT_EQ(Must(restored.Fillers("Bob", "mentor")),
            std::vector<std::string>{"Knuth"});
  std::remove(snap.c_str());

  // --- Explanations stay consistent with judgments -----------------------------------
  std::string why = Must(db_.WhyInstance("Knuth", "TEACHER"));
  EXPECT_EQ(why.find("[NO]"), std::string::npos) << why;
  std::string why_not = Must(db_.WhyInstance("Bob", "TEACHER"));
  EXPECT_NE(why_not.find("[NO]"), std::string::npos) << why_not;
}

}  // namespace
}  // namespace classic
