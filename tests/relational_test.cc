// Tests for the relational projection (paper Section 3.5.2).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "classic/database.h"
#include "relational/relational.h"

namespace classic {
namespace {

class RelationalTest : public ::testing::Test {
 protected:
  void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }

  void SetUp() override {
    Must(db_.DefineRole("thing-driven"));
    Must(db_.DefineAttribute("domicile"));
    Must(db_.DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING person)"));
    Must(db_.DefineConcept("STUDENT",
                           "(AND PERSON (AT-LEAST 1 thing-driven))"));
    Must(db_.CreateIndividual("Rocky", "PERSON"));
    Must(db_.CreateIndividual("V1"));
    Must(db_.CreateIndividual("Home"));
    Must(db_.AssertInd("Rocky", "(FILLS thing-driven V1)"));
    Must(db_.AssertInd("Rocky", "(FILLS domicile Home)"));
  }

  Database db_;
};

TEST_F(RelationalTest, RolesBecomeBinaryRelations) {
  auto view = relational::BuildRelationalView(db_.kb());
  ASSERT_EQ(view.roles.size(), 2u);
  const auto& driven = view.roles[0];
  EXPECT_EQ(driven.role, "thing-driven");
  EXPECT_FALSE(driven.attribute);
  ASSERT_EQ(driven.tuples.size(), 1u);
  EXPECT_EQ(driven.tuples[0].first, "Rocky");
  EXPECT_EQ(driven.tuples[0].second, "V1");
  EXPECT_TRUE(view.roles[1].attribute);
}

TEST_F(RelationalTest, ConceptsBecomeUnaryRelations) {
  auto view = relational::BuildRelationalView(db_.kb());
  ASSERT_EQ(view.concepts.size(), 2u);
  // STUDENT's extension includes the *recognized* Rocky (derived, not
  // asserted) — the projection exposes deduced facts as plain rows.
  const auto& student = view.concepts[1];
  EXPECT_EQ(student.concept_name, "STUDENT");
  ASSERT_EQ(student.members.size(), 1u);
  EXPECT_EQ(student.members[0], "Rocky");
}

TEST_F(RelationalTest, DerivedFillersAppear) {
  // SAME-AS-derived fillers materialize as tuples too.
  Must(db_.DefineAttribute("rests-at"));
  Must(db_.AssertInd("Rocky", "(SAME-AS (rests-at) (domicile))"));
  auto view = relational::BuildRelationalView(db_.kb());
  bool found = false;
  for (const auto& rel : view.roles) {
    if (rel.role != "rests-at") continue;
    ASSERT_EQ(rel.tuples.size(), 1u);
    EXPECT_EQ(rel.tuples[0].second, "Home");
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(RelationalTest, TotalTuples) {
  auto view = relational::BuildRelationalView(db_.kb());
  // 2 role tuples (thing-driven, domicile) + PERSON{Rocky} + STUDENT{Rocky}.
  EXPECT_EQ(view.total_tuples(), 4u);
}

TEST_F(RelationalTest, CsvExport) {
  std::string dir = ::testing::TempDir();
  auto view = relational::BuildRelationalView(db_.kb());
  Must(relational::WriteCsv(view, dir));
  std::ifstream in(dir + "/role_thing-driven.csv");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "subject,filler\nRocky,V1\n");
  std::ifstream cin(dir + "/concept_STUDENT.csv");
  ASSERT_TRUE(cin.good());
  std::stringstream cs;
  cs << cin.rdbuf();
  EXPECT_EQ(cs.str(), "member\nRocky\n");
  std::remove((dir + "/role_thing-driven.csv").c_str());
  std::remove((dir + "/role_domicile.csv").c_str());
  std::remove((dir + "/concept_PERSON.csv").c_str());
  std::remove((dir + "/concept_STUDENT.csv").c_str());
}

TEST_F(RelationalTest, HostValuedFillersRenderAsValues) {
  Must(db_.DefineRole("age"));
  Must(db_.AssertInd("Rocky", "(FILLS age 17)"));
  auto view = relational::BuildRelationalView(db_.kb());
  bool found = false;
  for (const auto& rel : view.roles) {
    if (rel.role != "age") continue;
    ASSERT_EQ(rel.tuples.size(), 1u);
    EXPECT_EQ(rel.tuples[0].second, "17");
    found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace classic
