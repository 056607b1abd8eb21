// Tests for conjunctive path queries (the paper's announced "more
// powerful and integrated query language" over the role graph).

#include <gtest/gtest.h>

#include "classic/database.h"
#include "classic/interpreter.h"
#include "query/path_query.h"

namespace classic {
namespace {

class PathQueryTest : public ::testing::Test {
 protected:
  void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }
  template <typename T>
  T Must(Result<T> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  void SetUp() override {
    Must(db_.DefineRole("thing-driven"));
    Must(db_.DefineRole("maker"));
    Must(db_.DefineRole("enrolled-at"));
    Must(db_.DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING person)"));
    Must(db_.DefineConcept("COMPANY", "(PRIMITIVE CLASSIC-THING company)"));
    Must(db_.DefineConcept("CAR", "(PRIMITIVE CLASSIC-THING car)"));
    Must(db_.DefineConcept("STUDENT",
                           "(AND PERSON (AT-LEAST 1 enrolled-at))"));
    Must(db_.CreateIndividual("Rutgers"));
    Must(db_.CreateIndividual("Ferrari", "COMPANY"));
    Must(db_.CreateIndividual("GM", "COMPANY"));
    Must(db_.CreateIndividual("F40", "CAR"));
    Must(db_.AssertInd("F40", "(FILLS maker Ferrari)"));
    Must(db_.CreateIndividual("Impala", "CAR"));
    Must(db_.AssertInd("Impala", "(FILLS maker GM)"));
    Must(db_.CreateIndividual("Rocky", "PERSON"));
    Must(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)"));
    Must(db_.AssertInd("Rocky", "(FILLS thing-driven F40)"));
    Must(db_.CreateIndividual("Dino", "PERSON"));
    Must(db_.AssertInd("Dino", "(FILLS thing-driven Impala F40)"));
  }

  std::vector<std::vector<std::string>> Eval(const std::string& text) {
    auto q = ParsePathQueryString(text, db_.kb());
    EXPECT_TRUE(q.ok()) << q.status().ToString() << " for " << text;
    if (!q.ok()) return {};
    auto r = EvaluatePathQuery(db_.kb(), *q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return {};
    return PathQueryRowNames(db_.kb(), *r);
  }

  Database db_;
};

TEST_F(PathQueryTest, SingleConceptAtom) {
  auto rows = Eval("(select (?x) (?x PERSON))");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "Rocky");
  EXPECT_EQ(rows[1][0], "Dino");
}

TEST_F(PathQueryTest, TwoHopJoin) {
  // Who drives something made by Ferrari?
  auto rows = Eval(
      "(select (?p) (?p PERSON) (?p thing-driven ?c) (?c maker Ferrari))");
  ASSERT_EQ(rows.size(), 2u);  // Rocky and Dino both drive the F40
}

TEST_F(PathQueryTest, ProjectionOfPairs) {
  auto rows = Eval("(select (?p ?c) (?p thing-driven ?c) (?c CAR))");
  // Rocky-F40, Dino-Impala, Dino-F40.
  EXPECT_EQ(rows.size(), 3u);
  for (const auto& row : rows) ASSERT_EQ(row.size(), 2u);
}

TEST_F(PathQueryTest, ConstantSubject) {
  auto rows = Eval("(select (?c) (Dino thing-driven ?c))");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(PathQueryTest, ReverseStep) {
  // Bound object, free subject: uses the referencer index.
  auto rows = Eval("(select (?p) (?p thing-driven F40))");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(PathQueryTest, FilterAtomBothBound) {
  auto yes = Eval("(select (?x) (?x PERSON) (?x thing-driven F40))");
  EXPECT_EQ(yes.size(), 2u);
  auto no = Eval("(select (?x) (?x COMPANY) (?x thing-driven F40))");
  EXPECT_EQ(no.size(), 0u);
}

TEST_F(PathQueryTest, DefinedConceptAtomsUseRecognition) {
  // STUDENT is recognized, never asserted.
  auto rows = Eval(
      "(select (?s ?c) (?s STUDENT) (?s thing-driven ?c))");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "Rocky");
  EXPECT_EQ(rows[0][1], "F40");
}

TEST_F(PathQueryTest, ComplexConceptExpressionAtom) {
  auto rows = Eval(
      "(select (?c) (?c (AND CAR (FILLS maker GM))))");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "Impala");
}

TEST_F(PathQueryTest, TriangleJoin) {
  // Two people driving the same car.
  auto rows = Eval(
      "(select (?a ?b) (?a PERSON) (?b PERSON) "
      "(?a thing-driven ?c) (?b thing-driven ?c))");
  // Pairs (Rocky,Rocky),(Rocky,Dino),(Dino,Rocky),(Dino,Dino) via F40;
  // (Dino,Dino) also via Impala (deduplicated).
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(PathQueryTest, EmptyResult) {
  auto rows = Eval("(select (?x) (?x thing-driven Rutgers))");
  EXPECT_EQ(rows.size(), 0u);
}

TEST_F(PathQueryTest, RejectsUnconstrainedOutput) {
  EXPECT_FALSE(ParsePathQueryString("(select (?x) (?y PERSON))",
                                    db_.kb())
                   .ok());
}

TEST_F(PathQueryTest, RejectsMalformedAtoms) {
  EXPECT_FALSE(
      ParsePathQueryString("(select (?x))", db_.kb()).ok());
  EXPECT_FALSE(ParsePathQueryString(
                   "(select (?x) (?x r ?y ?z))", db_.kb())
                   .ok());
  EXPECT_FALSE(ParsePathQueryString(
                   "(select (?x) (?x norole ?y))", db_.kb())
                   .ok());
  EXPECT_FALSE(ParsePathQueryString(
                   "(select (x) (x PERSON))", db_.kb())
                   .ok());
}

TEST_F(PathQueryTest, StatsAreReported) {
  auto q = ParsePathQueryString(
      "(select (?p) (?p STUDENT) (?p thing-driven ?c))", db_.kb());
  ASSERT_TRUE(q.ok());
  auto r = EvaluatePathQuery(db_.kb(), *q);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->bindings_explored, 0u);
}

TEST_F(PathQueryTest, InterpreterSelectOp) {
  Interpreter interp(&db_);
  auto r = interp.ExecuteString(
      "(select (?p) (?p PERSON) (?p thing-driven ?c) (?c maker GM))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "((Dino))");
}

TEST_F(PathQueryTest, HostValueConstants) {
  Must(db_.DefineRole("age"));
  Must(db_.AssertInd("Rocky", "(FILLS age 17)"));
  Must(db_.AssertInd("Dino", "(FILLS age 21)"));
  auto rows = Eval("(select (?p) (?p age 17))");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "Rocky");
  // Variables can range over host values too.
  auto ages = Eval("(select (?a) (Rocky age ?a) (?a INTEGER))");
  ASSERT_EQ(ages.size(), 1u);
  EXPECT_EQ(ages[0][0], "17");
}

}  // namespace
}  // namespace classic
