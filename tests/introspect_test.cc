// Tests for concept-aspect / ind-aspect / taxonomy navigation
// (paper Sections 3.5.1 / 3.5.2).

#include <gtest/gtest.h>

#include "classic/database.h"
#include "query/introspect.h"

namespace classic {
namespace {

class IntrospectTest : public ::testing::Test {
 protected:
  void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }
  template <typename T>
  T Must(Result<T> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  /// IndTold of the named individual, rendered.
  std::string Told(const std::string& name) {
    DescPtr told = Must(IndTold(db_.kb(), Must(db_.FindIndividual(name))));
    return told->ToString(db_.kb().vocab().symbols());
  }

  void SetUp() override {
    Must(db_.DefineRole("thing-driven"));
    Must(db_.DefineRole("wheel"));
    Must(db_.CreateIndividual("GM"));
    Must(db_.CreateIndividual("Ford"));
    Must(db_.CreateIndividual("Chrysler"));
    Must(db_.DefineConcept("AMERICAN-CAR-MAKER",
                           "(ONE-OF GM Ford Chrysler)"));
    Must(db_.DefineConcept("CAR", "(PRIMITIVE CLASSIC-THING car)"));
    Must(db_.DefineConcept(
        "VEHICLE-OWNER",
        "(AND (AT-LEAST 1 thing-driven) (AT-MOST 4 thing-driven) "
        "(ALL thing-driven CAR))"));
  }

  Database db_;
};

TEST_F(IntrospectTest, ConceptAspectOneOf) {
  auto e = Must(ConceptEnumeration(db_.kb(), "AMERICAN-CAR-MAKER"));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->size(), 3u);
  auto none = Must(ConceptEnumeration(db_.kb(), "CAR"));
  EXPECT_FALSE(none.has_value());
}

TEST_F(IntrospectTest, ConceptAspectAllWithRole) {
  DescPtr d = Must(
      ConceptValueRestriction(db_.kb(), "VEHICLE-OWNER", "thing-driven"));
  EXPECT_NE(d->ToString(db_.kb().vocab().symbols()).find("car"),
            std::string::npos);
  // Unrestricted role yields THING.
  DescPtr t = Must(ConceptValueRestriction(db_.kb(), "VEHICLE-OWNER",
                                           "wheel"));
  EXPECT_EQ(t->kind(), DescKind::kThing);
}

TEST_F(IntrospectTest, ConceptAspectBounds) {
  EXPECT_EQ(Must(ConceptBound(db_.kb(), "VEHICLE-OWNER", Aspect::kAtLeast,
                              "thing-driven")),
            1u);
  EXPECT_EQ(Must(ConceptBound(db_.kb(), "VEHICLE-OWNER", Aspect::kAtMost,
                              "thing-driven")),
            4u);
  EXPECT_EQ(Must(ConceptBound(db_.kb(), "VEHICLE-OWNER", Aspect::kAtMost,
                              "wheel")),
            kUnbounded);
}

TEST_F(IntrospectTest, ConceptAspectRoleList) {
  auto roles =
      Must(ConceptRestrictedRoles(db_.kb(), "VEHICLE-OWNER", Aspect::kAll));
  ASSERT_EQ(roles.size(), 1u);
  EXPECT_EQ(roles[0], "thing-driven");
  EXPECT_EQ(Must(ConceptRestrictedRoles(db_.kb(), "CAR", Aspect::kAll))
                .size(),
            0u);
}

TEST_F(IntrospectTest, DerivedAspectsVisible) {
  // The AT-MOST implied by an enumerated ALL is visible via the aspect
  // operator (aspects work on the *normalized* definition).
  Must(db_.DefineConcept("FEW", "(ALL wheel (ONE-OF GM Ford))"));
  EXPECT_EQ(
      Must(ConceptBound(db_.kb(), "FEW", Aspect::kAtMost, "wheel")), 2u);
}

TEST_F(IntrospectTest, IndAspects) {
  Must(db_.CreateIndividual("Rocky"));
  Must(db_.CreateIndividual("V1"));
  Must(db_.AssertInd("Rocky", "(FILLS thing-driven V1)"));
  IndId rocky = Must(db_.FindIndividual("Rocky"));
  auto fillers = Must(IndFillers(db_.kb(), rocky, "thing-driven"));
  ASSERT_EQ(fillers.size(), 1u);
  EXPECT_FALSE(Must(IndRoleClosed(db_.kb(), rocky, "thing-driven")));
  Must(db_.AssertInd("Rocky", "(CLOSE thing-driven)"));
  EXPECT_TRUE(Must(IndRoleClosed(db_.kb(), rocky, "thing-driven")));
  // Derived value restriction on an individual's role.
  Must(db_.CreateIndividual("Pat"));
  Must(db_.AssertInd("Pat", "(ALL thing-driven CAR)"));
  IndId pat = Must(db_.FindIndividual("Pat"));
  DescPtr vr = Must(IndValueRestriction(db_.kb(), pat, "thing-driven"));
  EXPECT_NE(vr->ToString(db_.kb().vocab().symbols()).find("car"),
            std::string::npos);
}

TEST_F(IntrospectTest, SubsumptionOperators) {
  EXPECT_TRUE(Must(db_.Subsumes("(AT-LEAST 1 thing-driven)",
                                "VEHICLE-OWNER")));
  EXPECT_FALSE(Must(db_.Subsumes("VEHICLE-OWNER",
                                 "(AT-LEAST 1 thing-driven)")));
  EXPECT_TRUE(Must(db_.Equivalent(
      "(AND (AT-LEAST 1 wheel) (AT-MOST 1 wheel))", "(EXACTLY-ONE wheel)")));
  EXPECT_TRUE(Must(db_.Coherent("VEHICLE-OWNER")));
  EXPECT_FALSE(Must(db_.Coherent("(AND (AT-LEAST 1 wheel) "
                                 "(AT-MOST 0 wheel))")));
}

TEST_F(IntrospectTest, TaxonomyNavigation) {
  Must(db_.DefineConcept("SPORTS-CAR", "(PRIMITIVE CAR sports-car)"));
  Must(db_.DefineConcept("HYPER-CAR", "(PRIMITIVE SPORTS-CAR hyper)"));
  auto parents = Must(db_.Parents("HYPER-CAR"));
  ASSERT_EQ(parents.size(), 1u);
  EXPECT_EQ(parents[0], "SPORTS-CAR");
  auto ancestors = Must(db_.Ancestors("HYPER-CAR"));
  EXPECT_EQ(ancestors.size(), 2u);
  auto children = Must(db_.Children("CAR"));
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0], "SPORTS-CAR");
  auto descendants = Must(db_.Descendants("CAR"));
  EXPECT_EQ(descendants.size(), 2u);
}

TEST_F(IntrospectTest, ConceptTestsAspect) {
  ASSERT_TRUE(db_.RegisterTest("t-even",
                               [](const TestArg&) { return true; })
                  .ok());
  ASSERT_TRUE(
      db_.DefineConcept("TESTED", "(AND CAR (TEST t-even))").ok());
  auto tests = Must(ConceptTests(db_.kb(), "TESTED"));
  ASSERT_EQ(tests.size(), 1u);
  EXPECT_EQ(tests[0], "t-even");
  EXPECT_EQ(Must(ConceptTests(db_.kb(), "CAR")).size(), 0u);
}

TEST_F(IntrospectTest, ConceptCorefsAspect) {
  ASSERT_TRUE(db_.DefineAttribute("a1").ok());
  ASSERT_TRUE(db_.DefineAttribute("a2").ok());
  ASSERT_TRUE(
      db_.DefineConcept("LINKED", "(SAME-AS (a1) (a2))").ok());
  auto corefs = Must(ConceptCorefs(db_.kb(), "LINKED"));
  ASSERT_EQ(corefs.size(), 1u);
  EXPECT_EQ(corefs[0], "(SAME-AS (a1) (a2))");
  EXPECT_EQ(Must(ConceptCorefs(db_.kb(), "CAR")).size(), 0u);
}

TEST_F(IntrospectTest, UnknownNamesAreNotFound) {
  EXPECT_TRUE(ConceptEnumeration(db_.kb(), "NOPE").status().IsNotFound());
  EXPECT_TRUE(db_.Parents("NOPE").status().IsNotFound());
  EXPECT_TRUE(
      ConceptValueRestriction(db_.kb(), "CAR", "norole").status()
          .IsNotFound());
}

TEST_F(IntrospectTest, ConceptsAsAnswers) {
  // Schema objects are queryable: which named concepts require at least
  // one thing-driven?
  ASSERT_TRUE(db_.DefineConcept("DRIVER-2",
                                "(AND (AT-LEAST 2 thing-driven) "
                                "(AT-MOST 4 thing-driven) "
                                "(ALL thing-driven CAR))")
                  .ok());
  auto d = ParseDescriptionString("(AT-LEAST 1 thing-driven)",
                                  &db_.kb().vocab().symbols());
  ASSERT_TRUE(d.ok());
  auto below = *NamedConceptsSubsumedBy(db_.kb(), *d);
  // VEHICLE-OWNER and DRIVER-2 both entail it.
  ASSERT_EQ(below.size(), 2u);
  EXPECT_EQ(below[0], "DRIVER-2");
  EXPECT_EQ(below[1], "VEHICLE-OWNER");

  auto d2 = ParseDescriptionString(
      "(AND VEHICLE-OWNER (AT-LEAST 3 thing-driven))",
      &db_.kb().vocab().symbols());
  ASSERT_TRUE(d2.ok());
  auto above = *NamedConceptsSubsuming(db_.kb(), *d2);
  bool has_owner = false;
  for (const auto& n : above) has_owner |= (n == "VEHICLE-OWNER");
  EXPECT_TRUE(has_owner);
}

TEST_F(IntrospectTest, ConceptsAsAnswersWithEquivalent) {
  ASSERT_TRUE(db_.DefineConcept("ONE-CAR", "(EXACTLY-ONE wheel)").ok());
  auto d = ParseDescriptionString("(AND (AT-LEAST 1 wheel) "
                                  "(AT-MOST 1 wheel))",
                                  &db_.kb().vocab().symbols());
  ASSERT_TRUE(d.ok());
  auto below = *NamedConceptsSubsumedBy(db_.kb(), *d);
  ASSERT_EQ(below.size(), 1u);
  EXPECT_EQ(below[0], "ONE-CAR");
}

TEST_F(IntrospectTest, ToldVsDerived) {
  ASSERT_TRUE(db_.CreateIndividual("Rocky").ok());
  ASSERT_TRUE(db_.CreateIndividual("V1").ok());
  ASSERT_TRUE(db_.AssertInd("Rocky", "(FILLS thing-driven V1)").ok());
  ASSERT_TRUE(db_.AssertInd("Rocky", "(ALL thing-driven CAR)").ok());
  IndId rocky = *db_.FindIndividual("Rocky");
  DescPtr told = *IndTold(db_.kb(), rocky);
  std::string told_str = told->ToString(db_.kb().vocab().symbols());
  // Told info is exactly what was asserted, in order.
  EXPECT_EQ(told_str,
            "(AND (FILLS thing-driven V1) (ALL thing-driven CAR))");
  // The derived description additionally recognizes V1's propagated type
  // (visible on V1, not Rocky) — and an empty individual is told THING.
  IndId v1 = *db_.FindIndividual("V1");
  DescPtr v1_told = *IndTold(db_.kb(), v1);
  EXPECT_EQ(v1_told->kind(), DescKind::kThing);
  std::string v1_derived = *db_.DescribeIndividual("V1");
  EXPECT_NE(v1_derived.find("car"), std::string::npos);
}

// Told information is read from the base log: exactly this individual's
// assertions, in the order they were accepted, however they interleave
// with another individual's.
TEST_F(IntrospectTest, ToldSkipsInterleavedAssertionsOfOthers) {
  Must(db_.CreateIndividual("Rocky"));
  Must(db_.CreateIndividual("Bullwinkle"));
  Must(db_.CreateIndividual("V1"));
  Must(db_.AssertInd("Rocky", "(FILLS thing-driven V1)"));
  Must(db_.AssertInd("Bullwinkle", "(AT-LEAST 1 wheel)"));
  Must(db_.AssertInd("Rocky", "(ALL thing-driven CAR)"));
  Must(db_.AssertInd("Bullwinkle", "(ALL thing-driven CAR)"));
  Must(db_.AssertInd("Rocky", "(AT-MOST 2 thing-driven)"));
  EXPECT_EQ(Told("Rocky"),
            "(AND (FILLS thing-driven V1) (ALL thing-driven CAR) "
            "(AT-MOST 2 thing-driven))");
  EXPECT_EQ(Told("Bullwinkle"),
            "(AND (AT-LEAST 1 wheel) (ALL thing-driven CAR))");
}

TEST_F(IntrospectTest, ToldAfterBulkAssertKeepsBatchOrder) {
  Must(db_.CreateIndividual("Rocky"));
  Must(db_.CreateIndividual("Bullwinkle"));
  Must(db_.CreateIndividual("V1"));
  Must(db_.BulkAssert({{"Rocky", "(FILLS thing-driven V1)"},
                       {"Bullwinkle", "(AT-LEAST 1 wheel)"},
                       {"Rocky", "(ALL thing-driven CAR)"}}));
  EXPECT_EQ(Told("Rocky"),
            "(AND (FILLS thing-driven V1) (ALL thing-driven CAR))");
  EXPECT_EQ(Told("Bullwinkle"), "(AT-LEAST 1 wheel)");
}

// Retraction erases the first matching assertion only (multiset
// semantics): the identical later one stays told, in its own place.
TEST_F(IntrospectTest, ToldAfterRetractingOneOfTwoIdenticalAssertions) {
  Must(db_.CreateIndividual("Rocky"));
  Must(db_.CreateIndividual("V1"));
  Must(db_.AssertInd("Rocky", "(ALL thing-driven CAR)"));
  Must(db_.AssertInd("Rocky", "(FILLS thing-driven V1)"));
  Must(db_.AssertInd("Rocky", "(ALL thing-driven CAR)"));
  Must(db_.RetractInd("Rocky", "(ALL thing-driven CAR)"));
  EXPECT_EQ(Told("Rocky"),
            "(AND (FILLS thing-driven V1) (ALL thing-driven CAR))");
  Must(db_.RetractInd("Rocky", "(ALL thing-driven CAR)"));
  EXPECT_EQ(Told("Rocky"), "(FILLS thing-driven V1)");
  EXPECT_TRUE(db_.RetractInd("Rocky", "(ALL thing-driven CAR)").IsNotFound());
}

TEST_F(IntrospectTest, AspectParsing) {
  EXPECT_TRUE(ParseAspect("ONE-OF").ok());
  EXPECT_TRUE(ParseAspect("SAME-AS").ok());
  EXPECT_FALSE(ParseAspect("NOPE").ok());
}

}  // namespace
}  // namespace classic
