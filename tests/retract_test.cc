// Edge-case coverage for retraction (paper Section 3.4, "destructive
// update"): retracting something never asserted, retract-then-reassert
// cycles, retractions whose re-derivation cascades across individuals
// (de-recognizing propagated memberships), and duplicate assertions.
// The serving layer leans on RetractInd for its writer path
// (tests/parallel_stress_test.cc), so its contract is pinned here.

#include <gtest/gtest.h>

#include "classic/database.h"
#include "index_check.h"

namespace classic {
namespace {

class RetractTest : public ::testing::Test {
 protected:
  void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }

  template <typename T>
  T Must(Result<T> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  /// Every update goes through here, accepted or rejected, so the KB's
  /// indexes are checked against its states after each one.
  Status Checked(Status st) {
    EXPECT_TRUE(CheckIndexes(db_.kb()));
    return st;
  }
  template <typename T>
  Result<T> Checked(Result<T> r) {
    EXPECT_TRUE(CheckIndexes(db_.kb()));
    return r;
  }

  /// The paper's running vocabulary (same as kb_test.cc).
  void SetUpStudentWorld() {
    Must(db_.DefineRole("enrolled-at"));
    Must(db_.DefineRole("thing-driven"));
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

TEST_F(RetractTest, RetractingUnassertedExpressionIsNotFound) {
  SetUpStudentWorld();
  Must(Checked(db_.CreateIndividual("Rutgers")));
  Must(Checked(db_.CreateIndividual("Rocky", "PERSON")));
  // Never asserted at all.
  EXPECT_TRUE(Checked(db_.RetractInd("Rocky", "(AT-LEAST 1 enrolled-at)"))
                  .IsNotFound());
  // A *derived* fact is not a base assertion: Rocky IS recognized as a
  // STUDENT after the FILLS, but STUDENT was never asserted, so it cannot
  // be retracted.
  Must(Checked(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)")));
  EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 1u);
  EXPECT_TRUE(Checked(db_.RetractInd("Rocky", "STUDENT")).IsNotFound());
  // A failed retraction must not disturb the derived state.
  EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 1u);
  // Retracting from an unknown individual reports the individual.
  EXPECT_TRUE(Checked(db_.RetractInd("Nobody", "PERSON")).IsNotFound());
}

TEST_F(RetractTest, RetractThenReassertRoundTrips) {
  SetUpStudentWorld();
  Must(Checked(db_.CreateIndividual("Rutgers")));
  Must(Checked(db_.CreateIndividual("Rocky", "PERSON")));
  // Several full cycles: each retraction de-recognizes, each re-assert
  // re-recognizes, and no residue accumulates across cycles.
  for (int cycle = 0; cycle < 3; ++cycle) {
    Must(Checked(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)")));
    EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 1u) << "cycle " << cycle;
    EXPECT_EQ(Must(db_.Fillers("Rocky", "enrolled-at")).size(), 1u);
    Must(Checked(db_.RetractInd("Rocky", "(FILLS enrolled-at Rutgers)")));
    EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 0u) << "cycle " << cycle;
    EXPECT_EQ(Must(db_.Fillers("Rocky", "enrolled-at")).size(), 0u);
    // Retracting again in the same cycle is NotFound (it is gone).
    EXPECT_TRUE(
        Checked(db_.RetractInd("Rocky", "(FILLS enrolled-at Rutgers)"))
            .IsNotFound());
  }
  // The untouched PERSON assertion survives all cycles.
  EXPECT_EQ(Must(db_.Ask("PERSON")).size(), 1u);
}

TEST_F(RetractTest, RetractionCascadesAcrossPropagation) {
  SetUpStudentWorld();
  Must(Checked(db_.CreateIndividual("Rutgers")));
  Must(Checked(db_.CreateIndividual("Rocky", "PERSON")));
  Must(Checked(db_.CreateIndividual("Bat1", "CAR")));
  Must(Checked(db_.CreateIndividual("Bat2", "CAR")));
  Must(Checked(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)")));
  Must(Checked(db_.AssertInd("Rocky", "(FILLS thing-driven Bat1 Bat2)")));
  Must(Checked(db_.AssertInd("Rocky", "(ALL thing-driven SPORTS-CAR)")));
  // The ALL propagates to the known fillers, and Rocky becomes RICH-KID.
  EXPECT_EQ(Must(db_.Ask("SPORTS-CAR")).size(), 2u);
  EXPECT_EQ(Must(db_.Ask("RICH-KID")).size(), 1u);

  // Retracting the ALL must cascade: the propagated SPORTS-CAR
  // memberships on Bat1/Bat2 are re-derived away, and Rocky is
  // de-recognized as a RICH-KID — three individuals reclassified by one
  // retraction on Rocky.
  Must(Checked(db_.RetractInd("Rocky", "(ALL thing-driven SPORTS-CAR)")));
  EXPECT_EQ(Must(db_.Ask("SPORTS-CAR")).size(), 0u);
  EXPECT_EQ(Must(db_.Ask("RICH-KID")).size(), 0u);
  // Non-derived facts are untouched by the cascade.
  EXPECT_EQ(Must(db_.Ask("CAR")).size(), 2u);
  EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 1u);
  EXPECT_EQ(Must(db_.Fillers("Rocky", "thing-driven")).size(), 2u);

  // And the cascade reverses: re-asserting restores all three.
  Must(Checked(db_.AssertInd("Rocky", "(ALL thing-driven SPORTS-CAR)")));
  EXPECT_EQ(Must(db_.Ask("SPORTS-CAR")).size(), 2u);
  EXPECT_EQ(Must(db_.Ask("RICH-KID")).size(), 1u);
}

TEST_F(RetractTest, DirectlyAssertedMembershipSurvivesCascade) {
  SetUpStudentWorld();
  Must(Checked(db_.CreateIndividual("Rocky", "PERSON")));
  // Asserted, not derived.
  Must(Checked(db_.CreateIndividual("Ferrari-9", "SPORTS-CAR")));
  Must(Checked(db_.AssertInd("Rocky", "(FILLS thing-driven Ferrari-9)")));
  Must(Checked(db_.AssertInd("Rocky", "(ALL thing-driven SPORTS-CAR)")));
  EXPECT_EQ(Must(db_.Ask("SPORTS-CAR")).size(), 1u);
  // Retracting Rocky's ALL re-derives Ferrari-9 — whose own base
  // assertion keeps it a SPORTS-CAR.
  Must(Checked(db_.RetractInd("Rocky", "(ALL thing-driven SPORTS-CAR)")));
  EXPECT_EQ(Must(db_.Ask("SPORTS-CAR")).size(), 1u);
}

TEST_F(RetractTest, DuplicateAssertionsRetractOneOccurrenceAtATime) {
  SetUpStudentWorld();
  Must(Checked(db_.CreateIndividual("Rutgers")));
  Must(Checked(db_.CreateIndividual("Rocky", "PERSON")));
  // Base assertions form a multiset: asserting the same expression twice
  // records two entries, and each retraction removes exactly one.
  Must(Checked(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)")));
  Must(Checked(db_.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)")));
  EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 1u);
  // The first retraction leaves the duplicate, so the fact (and the
  // derived STUDENT membership) still holds.
  Must(Checked(db_.RetractInd("Rocky", "(FILLS enrolled-at Rutgers)")));
  EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 1u);
  EXPECT_EQ(Must(db_.Fillers("Rocky", "enrolled-at")).size(), 1u);
  // The second removes the last occurrence; the third finds nothing.
  Must(Checked(db_.RetractInd("Rocky", "(FILLS enrolled-at Rutgers)")));
  EXPECT_EQ(Must(db_.Ask("STUDENT")).size(), 0u);
  EXPECT_TRUE(Checked(db_.RetractInd("Rocky", "(FILLS enrolled-at Rutgers)"))
                  .IsNotFound());
}

TEST_F(RetractTest, RetractionUnblocksContradictoryBoundAfterPropagation) {
  // Retraction re-opens room blocked by a *propagated* constraint chain:
  // AT-MOST 1 + FILLS closes the role; retracting the FILLS reopens it.
  Must(db_.DefineRole("r"));
  Must(Checked(db_.CreateIndividual("X")));
  Must(Checked(db_.CreateIndividual("A")));
  Must(Checked(db_.CreateIndividual("B")));
  Must(Checked(db_.AssertInd("X", "(AT-MOST 1 r)")));
  Must(Checked(db_.AssertInd("X", "(FILLS r A)")));
  // Role is now full: a second distinct filler is inconsistent.
  EXPECT_TRUE(Checked(db_.AssertInd("X", "(FILLS r B)")).IsInconsistent());
  Must(Checked(db_.RetractInd("X", "(FILLS r A)")));
  Must(Checked(db_.AssertInd("X", "(FILLS r B)")));
  auto fillers = Must(db_.Fillers("X", "r"));
  ASSERT_EQ(fillers.size(), 1u);
  EXPECT_EQ(fillers[0], "B");
}

}  // namespace
}  // namespace classic
