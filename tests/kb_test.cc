// Behavioral tests for the knowledge base: recognition, propagation,
// rules, integrity checking, retraction (paper Sections 3.2-3.4).

#include <gtest/gtest.h>

#include "classic/database.h"
#include "host/standard_tests.h"

namespace classic {
namespace {

class KbTest : public ::testing::Test {
 protected:
  void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }

  template <typename T>
  T Must(Result<T> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  /// The paper's running vocabulary.
  void SetUpStudentWorld() {
    Must(db_.DefineRole("enrolled-at"));
    Must(db_.DefineRole("thing-driven"));
    Must(db_.DefineRole("maker"));
    Must(db_.DefineRole("eat"));
    Must(db_.DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING person)"));
    Must(db_.DefineConcept("CAR", "(PRIMITIVE CLASSIC-THING car)"));
    Must(db_.DefineConcept("SPORTS-CAR", "(PRIMITIVE CAR sports-car)"));
    Must(db_.DefineConcept("STUDENT",
                           "(AND PERSON (AT-LEAST 1 enrolled-at))"));
    Must(db_.DefineConcept(
        "RICH-KID", "(AND STUDENT (ALL thing-driven SPORTS-CAR) "
                    "(AT-LEAST 2 thing-driven))"));
  }

  Database db_;
};

TEST_F(KbTest, FreshIndividualKnowsOnlyThing) {
  Must(db_.CreateIndividual("Rocky"));
  EXPECT_EQ(Must(db_.MostSpecificConcepts("Rocky")).size(), 0u);
  EXPECT_EQ(Must(db_.DescribeIndividual("Rocky")), "CLASSIC-THING");
}

TEST_F(KbTest, RecognitionOnAssert) {
  SetUpStudentWorld();
  Must(db_.CreateIndividual("Rutgers"));
  Must(db_.CreateIndividual("Rocky", "PERSON"));
  EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 0u);
  // "the moment we learn that Rocky is enrolled at some school we
  // implicitly recognize Rocky as a STUDENT"
  Must(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)"));
  auto students = Must(db_.Ask("STUDENT"));
  ASSERT_EQ(students.size(), 1u);
  EXPECT_EQ(students[0], "Rocky");
  auto msc = Must(db_.MostSpecificConcepts("Rocky"));
  ASSERT_EQ(msc.size(), 1u);
  EXPECT_EQ(msc[0], "STUDENT");
}

TEST_F(KbTest, RecognitionViaAtLeastWithoutNamedFiller) {
  SetUpStudentWorld();
  Must(db_.CreateIndividual("Rocky", "PERSON"));
  // Existence without identity: still recognized.
  Must(db_.AssertInd("Rocky", "(AT-LEAST 1 enrolled-at)"));
  EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 1u);
}

TEST_F(KbTest, AssertAndExpandsLikeSeparateAsserts) {
  SetUpStudentWorld();
  Must(db_.CreateIndividual("A"));
  Must(db_.CreateIndividual("B"));
  Must(db_.AssertInd("A", "RICH-KID"));
  Must(db_.AssertInd("B", "PERSON"));
  Must(db_.AssertInd("B", "(AT-LEAST 1 enrolled-at)"));
  Must(db_.AssertInd("B", "(ALL thing-driven SPORTS-CAR)"));
  Must(db_.AssertInd("B", "(AT-LEAST 2 thing-driven)"));
  // Both are RICH-KIDs; the conjunction is equivalent to its parts.
  auto kids = Must(db_.Ask("RICH-KID"));
  EXPECT_EQ(kids.size(), 2u);
}

TEST_F(KbTest, AllRestrictionPropagatesToFillers) {
  SetUpStudentWorld();
  Must(db_.CreateIndividual("Rocky", "PERSON"));
  Must(db_.CreateIndividual("Volvo-17"));
  Must(db_.AssertInd("Rocky", "(FILLS thing-driven Volvo-17)"));
  EXPECT_EQ(Must(db_.Ask("SPORTS-CAR")).size(), 0u);
  Must(db_.AssertInd("Rocky", "(ALL thing-driven SPORTS-CAR)"));
  // Volvo-17 is now recognized as a SPORTS-CAR (and hence a CAR).
  auto cars = Must(db_.Ask("CAR"));
  ASSERT_EQ(cars.size(), 1u);
  EXPECT_EQ(cars[0], "Volvo-17");
}

TEST_F(KbTest, AllRestrictionAppliesToLaterFillers) {
  SetUpStudentWorld();
  Must(db_.CreateIndividual("Rocky", "PERSON"));
  Must(db_.CreateIndividual("Volvo-17"));
  Must(db_.AssertInd("Rocky", "(ALL thing-driven SPORTS-CAR)"));
  Must(db_.AssertInd("Rocky", "(FILLS thing-driven Volvo-17)"));
  EXPECT_EQ(Must(db_.Ask("SPORTS-CAR")).size(), 1u);
}

TEST_F(KbTest, AtMostClosesRole) {
  SetUpStudentWorld();
  Must(db_.CreateIndividual("Rocky"));
  Must(db_.CreateIndividual("Volvo-17"));
  Must(db_.AssertInd("Rocky", "(AT-MOST 1 thing-driven)"));
  EXPECT_FALSE(Must(db_.RoleClosed("Rocky", "thing-driven")));
  Must(db_.AssertInd("Rocky", "(FILLS thing-driven Volvo-17)"));
  // "results in thing-driven being closed as soon as we learn that Rocky
  // drives Volvo-17"
  EXPECT_TRUE(Must(db_.RoleClosed("Rocky", "thing-driven")));
}

TEST_F(KbTest, ExplicitCloseRole) {
  SetUpStudentWorld();
  Must(db_.CreateIndividual("Rocky"));
  Must(db_.CreateIndividual("Volvo-17"));
  Must(db_.AssertInd("Rocky", "(FILLS thing-driven Volvo-17)"));
  Must(db_.AssertInd("Rocky", "(CLOSE thing-driven)"));
  EXPECT_TRUE(Must(db_.RoleClosed("Rocky", "thing-driven")));
  // A closed role rejects new fillers.
  Must(db_.CreateIndividual("Ferrari-9"));
  Status st = db_.AssertInd("Rocky", "(FILLS thing-driven Ferrari-9)");
  EXPECT_TRUE(st.IsInconsistent()) << st.ToString();
}

TEST_F(KbTest, ClosedRoleEnablesAllRecognition) {
  SetUpStudentWorld();
  Must(db_.CreateIndividual("Rocky", "PERSON"));
  Must(db_.CreateIndividual("Rutgers"));
  Must(db_.CreateIndividual("C1", "SPORTS-CAR"));
  Must(db_.CreateIndividual("C2", "SPORTS-CAR"));
  Must(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)"));
  Must(db_.AssertInd("Rocky", "(FILLS thing-driven C1 C2)"));
  // Not a RICH-KID yet: more things might be driven (open world).
  EXPECT_EQ(Must(db_.Ask("RICH-KID")).size(), 0u);
  Must(db_.AssertInd("Rocky", "(CLOSE thing-driven)"));
  // Now all drivens are known, and all are sports cars.
  EXPECT_EQ(Must(db_.Ask("RICH-KID")).size(), 1u);
}

TEST_F(KbTest, SameAsDerivesFiller) {
  Must(db_.DefineAttribute("likes"));
  Must(db_.DefineAttribute("drives"));
  Must(db_.CreateIndividual("Rocky"));
  Must(db_.CreateIndividual("Volvo-17"));
  Must(db_.AssertInd("Rocky", "(FILLS drives Volvo-17)"));
  Must(db_.AssertInd("Rocky", "(SAME-AS (likes) (drives))"));
  // "would lead to likes being filled by Volvo-17"
  auto liked = Must(db_.Fillers("Rocky", "likes"));
  ASSERT_EQ(liked.size(), 1u);
  EXPECT_EQ(liked[0], "Volvo-17");
}

TEST_F(KbTest, SameAsChainPropagatesThroughIntermediate) {
  // (SAME-AS (driver) (insurance payer)): once insurance is known, its
  // payer is derived from the driver.
  Must(db_.DefineAttribute("driver"));
  Must(db_.DefineAttribute("insurance"));
  Must(db_.DefineAttribute("payer"));
  Must(db_.CreateIndividual("Car-1"));
  Must(db_.CreateIndividual("Alice"));
  Must(db_.CreateIndividual("Policy-7"));
  Must(db_.AssertInd("Car-1", "(SAME-AS (driver) (insurance payer))"));
  Must(db_.AssertInd("Car-1", "(FILLS driver Alice)"));
  Must(db_.AssertInd("Car-1", "(FILLS insurance Policy-7)"));
  auto payer = Must(db_.Fillers("Policy-7", "payer"));
  ASSERT_EQ(payer.size(), 1u);
  EXPECT_EQ(payer[0], "Alice");
}

TEST_F(KbTest, SameAsConflictRejected) {
  Must(db_.DefineAttribute("a"));
  Must(db_.DefineAttribute("b"));
  Must(db_.CreateIndividual("X"));
  Must(db_.CreateIndividual("P"));
  Must(db_.CreateIndividual("Q"));
  Must(db_.AssertInd("X", "(FILLS a P)"));
  Must(db_.AssertInd("X", "(FILLS b Q)"));
  Status st = db_.AssertInd("X", "(SAME-AS (a) (b))");
  EXPECT_TRUE(st.IsInconsistent()) << st.ToString();
  // Atomicity: the failed assert left no trace.
  EXPECT_EQ(Must(db_.Fillers("X", "a")).size(), 1u);
}

TEST_F(KbTest, RulesFireOnRecognition) {
  SetUpStudentWorld();
  Must(db_.DefineConcept("JUNK-FOOD", "(PRIMITIVE CLASSIC-THING junk)"));
  Must(db_.AssertRule("STUDENT", "(ALL eat JUNK-FOOD)"));
  Must(db_.CreateIndividual("Rutgers"));
  Must(db_.CreateIndividual("Rocky", "PERSON"));
  Must(db_.CreateIndividual("Chips"));
  Must(db_.AssertInd("Rocky", "(FILLS eat Chips)"));
  EXPECT_EQ(Must(db_.Ask("JUNK-FOOD")).size(), 0u);
  // Enrolling makes Rocky a STUDENT; the rule then derives that
  // everything he eats is junk food — retroactively for Chips.
  Must(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)"));
  auto junk = Must(db_.Ask("JUNK-FOOD"));
  ASSERT_EQ(junk.size(), 1u);
  EXPECT_EQ(junk[0], "Chips");
}

TEST_F(KbTest, RuleFiresForExistingInstances) {
  SetUpStudentWorld();
  Must(db_.DefineConcept("JUNK-FOOD", "(PRIMITIVE CLASSIC-THING junk)"));
  Must(db_.CreateIndividual("Rutgers"));
  Must(db_.CreateIndividual("Rocky", "STUDENT"));
  // Rule added AFTER Rocky is already a student.
  Must(db_.AssertRule("STUDENT", "(ALL eat JUNK-FOOD)"));
  Must(db_.CreateIndividual("Chips"));
  Must(db_.AssertInd("Rocky", "(FILLS eat Chips)"));
  EXPECT_EQ(Must(db_.Ask("JUNK-FOOD")).size(), 1u);
}

TEST_F(KbTest, RuleChainsToFixedPoint) {
  Must(db_.DefineRole("r"));
  Must(db_.DefineConcept("A", "(PRIMITIVE CLASSIC-THING a)"));
  Must(db_.DefineConcept("B", "(PRIMITIVE CLASSIC-THING b)"));
  Must(db_.DefineConcept("C", "(PRIMITIVE CLASSIC-THING c)"));
  Must(db_.AssertRule("A", "B"));
  Must(db_.AssertRule("B", "C"));
  Must(db_.CreateIndividual("X", "A"));
  auto msc = Must(db_.MostSpecificConcepts("X"));
  // X is A, B and C (none subsumes another: all primitive siblings).
  EXPECT_EQ(msc.size(), 3u);
}

TEST_F(KbTest, RuleIsNotADefinition) {
  // "someone would not be recognized as a STUDENT until it was known that
  // she also ate junk food" — rules must not affect recognition.
  SetUpStudentWorld();
  Must(db_.DefineConcept("JUNK-FOOD", "(PRIMITIVE CLASSIC-THING junk)"));
  Must(db_.AssertRule("STUDENT", "(ALL eat JUNK-FOOD)"));
  Must(db_.CreateIndividual("Rutgers"));
  Must(db_.CreateIndividual("Rocky", "PERSON"));
  Must(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)"));
  EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 1u);
}

TEST_F(KbTest, ContradictoryRuleRejected) {
  Must(db_.DefineRole("r"));
  Must(db_.DefineConcept("A", "(PRIMITIVE CLASSIC-THING a)"));
  Must(db_.CreateIndividual("X", "A"));
  Must(db_.AssertInd("X", "(AT-LEAST 2 r)"));
  Status st = db_.AssertRule("A", "(AT-MOST 1 r)");
  EXPECT_TRUE(st.IsInconsistent()) << st.ToString();
  // The rule must not remain half-applied.
  EXPECT_EQ(db_.kb().rules().size(), 0u);
  EXPECT_EQ(Must(db_.MostSpecificConcepts("X")).size(), 1u);
}

TEST_F(KbTest, IntegrityRejectionIsAtomic) {
  SetUpStudentWorld();
  Must(db_.CreateIndividual("Rocky"));
  Must(db_.CreateIndividual("V1"));
  Must(db_.CreateIndividual("V2"));
  Must(db_.AssertInd("Rocky", "(FILLS thing-driven V1 V2)"));
  std::string before = Must(db_.DescribeIndividual("Rocky"));
  Status st = db_.AssertInd("Rocky", "(AT-MOST 1 thing-driven)");
  EXPECT_TRUE(st.IsInconsistent());
  EXPECT_EQ(Must(db_.DescribeIndividual("Rocky")), before);
  EXPECT_GT(db_.kb().stats().rejected_updates, 0u);
}

TEST_F(KbTest, PropagatedInconsistencyRollsBackEverything) {
  // The update is accepted at Rocky but breaks a *filler*; everything
  // must roll back.
  SetUpStudentWorld();
  Must(db_.DefineConcept(
      "MALE-PERSON", "(DISJOINT-PRIMITIVE PERSON gender male)"));
  Must(db_.DefineConcept(
      "FEMALE-PERSON", "(DISJOINT-PRIMITIVE PERSON gender female)"));
  Must(db_.DefineRole("knows"));
  Must(db_.CreateIndividual("A"));
  Must(db_.CreateIndividual("B", "MALE-PERSON"));
  Must(db_.AssertInd("A", "(FILLS knows B)"));
  std::string a_before = Must(db_.DescribeIndividual("A"));
  std::string b_before = Must(db_.DescribeIndividual("B"));
  // Asserting that everyone A knows is female contradicts B's maleness.
  Status st = db_.AssertInd("A", "(ALL knows FEMALE-PERSON)");
  EXPECT_TRUE(st.IsInconsistent()) << st.ToString();
  EXPECT_EQ(Must(db_.DescribeIndividual("A")), a_before);
  EXPECT_EQ(Must(db_.DescribeIndividual("B")), b_before);
}

TEST_F(KbTest, CascadeReclassificationThroughFillerHolders) {
  // j's membership depends on its filler i's type; when i is upgraded,
  // j must be reclassified.
  Must(db_.DefineRole("part"));
  Must(db_.DefineConcept("WIDGET", "(PRIMITIVE CLASSIC-THING widget)"));
  Must(db_.DefineConcept(
      "WIDGET-BOX", "(AND (AT-LEAST 1 part) (ALL part WIDGET))"));
  Must(db_.CreateIndividual("Box"));
  Must(db_.CreateIndividual("P1"));
  Must(db_.AssertInd("Box", "(FILLS part P1)"));
  Must(db_.AssertInd("Box", "(CLOSE part)"));
  EXPECT_EQ(Must(db_.Ask("WIDGET-BOX")).size(), 0u);
  // Upgrading P1 reclassifies Box (closed role + all fillers WIDGET).
  Must(db_.AssertInd("P1", "WIDGET"));
  EXPECT_EQ(Must(db_.Ask("WIDGET-BOX")).size(), 1u);
}

TEST_F(KbTest, HostValuedFillersAndTypeChecks) {
  Must(db_.DefineRole("age"));
  Must(db_.CreateIndividual("Rocky"));
  Must(db_.AssertInd("Rocky", "(FILLS age 17)"));
  auto ages = Must(db_.Fillers("Rocky", "age"));
  ASSERT_EQ(ages.size(), 1u);
  EXPECT_EQ(ages[0], "17");
  // The filler is an INTEGER; requiring STRING ages contradicts.
  Status st = db_.AssertInd("Rocky", "(ALL age STRING)");
  EXPECT_TRUE(st.IsInconsistent()) << st.ToString();
  Must(db_.AssertInd("Rocky", "(ALL age INTEGER)"));
}

TEST_F(KbTest, HostIndividualsCannotBeDescribed) {
  Must(db_.DefineRole("age"));
  Must(db_.CreateIndividual("Rocky"));
  Must(db_.AssertInd("Rocky", "(FILLS age 17)"));
  IndId seventeen =
      db_.kb().vocab().InternHostValue(HostValue::Integer(17));
  auto d = ParseDescriptionString("(AT-LEAST 1 age)",
                                  &db_.kb().vocab().symbols());
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(db_.kb().AssertInd(seventeen, *d).IsInvalidArgument());
}

TEST_F(KbTest, TestConceptsInRecognition) {
  Must(host::RegisterStandardTests(&db_.kb().vocab()));
  Must(db_.DefineRole("age"));
  Must(db_.DefineConcept(
      "EVEN-AGED", "(AND (AT-LEAST 1 age) (ALL age (TEST even)))"));
  Must(db_.CreateIndividual("A"));
  Must(db_.AssertInd("A", "(FILLS age 4)"));
  Must(db_.AssertInd("A", "(CLOSE age)"));
  auto answers = Must(db_.Ask("EVEN-AGED"));
  ASSERT_EQ(answers.size(), 1u);
  // An odd-aged individual is not recognized.
  Must(db_.CreateIndividual("B"));
  Must(db_.AssertInd("B", "(FILLS age 3)"));
  Must(db_.AssertInd("B", "(CLOSE age)"));
  EXPECT_EQ(Must(db_.Ask("EVEN-AGED")).size(), 1u);
}

TEST_F(KbTest, RetractionRecomputesDerivations) {
  SetUpStudentWorld();
  Must(db_.CreateIndividual("Rutgers"));
  Must(db_.CreateIndividual("Rocky", "PERSON"));
  Must(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)"));
  EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 1u);
  Must(db_.RetractInd("Rocky", "(FILLS enrolled-at Rutgers)"));
  EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 0u);
  EXPECT_EQ(Must(db_.Fillers("Rocky", "enrolled-at")).size(), 0u);
  // The PERSON assertion survives.
  EXPECT_EQ(Must(db_.Ask("PERSON")).size(), 1u);
}

TEST_F(KbTest, RetractionOfUnassertedFails) {
  Must(db_.CreateIndividual("Rocky"));
  Must(db_.DefineRole("r"));
  EXPECT_TRUE(
      db_.RetractInd("Rocky", "(AT-LEAST 1 r)").IsNotFound());
}

TEST_F(KbTest, RetractionAllowsPreviouslyContradictoryAssert) {
  Must(db_.DefineRole("r"));
  Must(db_.CreateIndividual("X"));
  Must(db_.AssertInd("X", "(AT-LEAST 3 r)"));
  EXPECT_TRUE(db_.AssertInd("X", "(AT-MOST 2 r)").IsInconsistent());
  Must(db_.RetractInd("X", "(AT-LEAST 3 r)"));
  Must(db_.AssertInd("X", "(AT-MOST 2 r)"));
}

TEST_F(KbTest, DefineConceptReclassifiesExistingIndividuals) {
  Must(db_.DefineRole("wheel"));
  Must(db_.CreateIndividual("Trike"));
  Must(db_.AssertInd("Trike", "(AT-LEAST 3 wheel)"));
  // New concept defined after the data exists.
  Must(db_.DefineConcept("MULTI-WHEELER", "(AT-LEAST 2 wheel)"));
  auto inst = Must(db_.InstancesOf("MULTI-WHEELER"));
  ASSERT_EQ(inst.size(), 1u);
  EXPECT_EQ(inst[0], "Trike");
}

TEST_F(KbTest, DisjointPrimitiveIntegrity) {
  Must(db_.DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING person)"));
  Must(db_.DefineConcept("MALE", "(DISJOINT-PRIMITIVE PERSON gender male)"));
  Must(db_.DefineConcept("FEMALE",
                         "(DISJOINT-PRIMITIVE PERSON gender female)"));
  Must(db_.CreateIndividual("Pat", "MALE"));
  Status st = db_.AssertInd("Pat", "FEMALE");
  EXPECT_TRUE(st.IsInconsistent()) << st.ToString();
  // Pat is still (only) MALE.
  auto msc = Must(db_.MostSpecificConcepts("Pat"));
  ASSERT_EQ(msc.size(), 1u);
  EXPECT_EQ(msc[0], "MALE");
}

TEST_F(KbTest, StatsAreTracked) {
  SetUpStudentWorld();
  Must(db_.CreateIndividual("Rutgers"));
  Must(db_.CreateIndividual("Rocky", "PERSON"));
  Must(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)"));
  const KbStats& stats = db_.kb().stats();
  EXPECT_GT(stats.propagation_steps, 0u);
  EXPECT_GT(stats.realizations, 0u);
  EXPECT_GT(stats.satisfies_checks, 0u);
}

}  // namespace
}  // namespace classic
