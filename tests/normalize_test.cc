// Unit tests for normalization: the derived-constraint rules of paper
// Section 2.2 and the canonical-form invariants.

#include <gtest/gtest.h>

#include "desc/normalize.h"
#include "desc/parser.h"
#include "desc/vocabulary.h"
#include "obs/metrics.h"

namespace classic {
namespace {

class NormalizeTest : public ::testing::Test {
 protected:
  NormalizeTest() : norm_(&vocab_) {
    Must(vocab_.DefineRole("r").status());
    Must(vocab_.DefineRole("s").status());
    Must(vocab_.DefineRole("thing-driven").status());
    Must(vocab_.DefineRole("driver", true).status());
    Must(vocab_.DefineRole("payer", true).status());
    Must(vocab_.DefineRole("insurance", true).status());
    ford_ = *vocab_.CreateIndividual("Ford-1");
    volvo_ = *vocab_.CreateIndividual("Volvo-2");
    toyota_ = *vocab_.CreateIndividual("Toyota-3");
    vw_ = *vocab_.CreateIndividual("VW-4");
  }

  void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }

  NormalFormPtr NF(const std::string& text, bool ind_expr = false) {
    auto d = ParseDescriptionString(text, &vocab_.symbols());
    EXPECT_TRUE(d.ok()) << d.status().ToString() << " for " << text;
    auto nf = ind_expr ? norm_.NormalizeIndividualExpr(*d)
                       : norm_.NormalizeConcept(*d);
    EXPECT_TRUE(nf.ok()) << nf.status().ToString() << " for " << text;
    return *nf;
  }

  Vocabulary vocab_;
  Normalizer norm_;
  IndId ford_, volvo_, toyota_, vw_;
};

TEST_F(NormalizeTest, ThingIsVacuous) {
  EXPECT_TRUE(NF("THING")->IsThing());
  EXPECT_TRUE(NF("(AND THING THING)")->IsThing());
}

TEST_F(NormalizeTest, AndFlattensPerRole) {
  NormalFormPtr nf =
      NF("(AND (AT-LEAST 1 r) (AT-LEAST 3 r) (AT-MOST 9 r) (AT-MOST 5 r))");
  RoleId r = *vocab_.FindRole(vocab_.symbols().Lookup("r"));
  EXPECT_EQ(nf->role(r).at_least, 3u);
  EXPECT_EQ(nf->role(r).at_most, 5u);
}

TEST_F(NormalizeTest, PaperExampleAllDistributesOverAnd) {
  // (AND (ALL r CAR-ish) (ALL r EXPENSIVE-ish)) ==
  // (ALL r (AND CAR-ish EXPENSIVE-ish)), using anonymous primitives.
  NormalFormPtr a =
      NF("(AND (ALL thing-driven (PRIMITIVE CLASSIC-THING car)) "
         "(ALL thing-driven (PRIMITIVE CLASSIC-THING expensive)))");
  NormalFormPtr b =
      NF("(ALL thing-driven (AND (PRIMITIVE CLASSIC-THING car) "
         "(PRIMITIVE CLASSIC-THING expensive)))");
  EXPECT_TRUE(a->Equals(*b));
}

TEST_F(NormalizeTest, PaperExampleEnumerationIntersection) {
  // (ALL td (AND (ONE-OF Ford-1 Volvo-2 Toyota-3) (ONE-OF Volvo-2 Toyota-3
  // VW-4))) == (AND (ALL td (ONE-OF Volvo-2 Toyota-3)) (AT-MOST 2 td)).
  NormalFormPtr a =
      NF("(ALL thing-driven (AND (ONE-OF Ford-1 Volvo-2 Toyota-3) "
         "(ONE-OF Volvo-2 Toyota-3 VW-4)))");
  NormalFormPtr b =
      NF("(AND (ALL thing-driven (ONE-OF Volvo-2 Toyota-3)) "
         "(AT-MOST 2 thing-driven))");
  EXPECT_TRUE(a->Equals(*b)) << a->ToString(vocab_) << "\nvs\n"
                             << b->ToString(vocab_);
}

TEST_F(NormalizeTest, EnumeratedValueRestrictionBoundsAtMost) {
  NormalFormPtr nf = NF("(ALL r (ONE-OF Ford-1 Volvo-2))");
  RoleId r = *vocab_.FindRole(vocab_.symbols().Lookup("r"));
  EXPECT_EQ(nf->role(r).at_most, 2u);
}

TEST_F(NormalizeTest, EmptyEnumerationIsIncoherent) {
  NormalFormPtr nf = NF("(AND (ONE-OF Ford-1) (ONE-OF Volvo-2))");
  EXPECT_TRUE(nf->incoherent());
}

TEST_F(NormalizeTest, CardinalityClashIsIncoherent) {
  EXPECT_TRUE(NF("(AND (AT-LEAST 2 r) (AT-MOST 1 r))")->incoherent());
  EXPECT_FALSE(NF("(AND (AT-LEAST 1 r) (AT-MOST 1 r))")->incoherent());
}

TEST_F(NormalizeTest, FillersRaiseAtLeast) {
  NormalFormPtr nf = NF("(FILLS r Ford-1 Volvo-2)");
  RoleId r = *vocab_.FindRole(vocab_.symbols().Lookup("r"));
  EXPECT_EQ(nf->role(r).at_least, 2u);
  EXPECT_EQ(nf->role(r).fillers.size(), 2u);
}

TEST_F(NormalizeTest, FillersBeyondAtMostAreIncoherent) {
  EXPECT_TRUE(
      NF("(AND (FILLS r Ford-1 Volvo-2) (AT-MOST 1 r))")->incoherent());
}

TEST_F(NormalizeTest, AtMostReachedClosesRole) {
  NormalFormPtr nf = NF("(AND (FILLS r Ford-1) (AT-MOST 1 r))");
  RoleId r = *vocab_.FindRole(vocab_.symbols().Lookup("r"));
  EXPECT_TRUE(nf->role(r).closed);
}

TEST_F(NormalizeTest, CloseOnlyInIndividualExpressions) {
  auto d = ParseDescriptionString("(CLOSE r)", &vocab_.symbols());
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(norm_.NormalizeConcept(*d).ok());
  EXPECT_TRUE(norm_.NormalizeIndividualExpr(*d).ok());
}

TEST_F(NormalizeTest, ClosedRoleFixesCardinality) {
  NormalFormPtr nf = NF("(AND (FILLS r Ford-1 Volvo-2) (CLOSE r))", true);
  RoleId r = *vocab_.FindRole(vocab_.symbols().Lookup("r"));
  EXPECT_EQ(nf->role(r).at_least, 2u);
  EXPECT_EQ(nf->role(r).at_most, 2u);
}

TEST_F(NormalizeTest, ClosedRoleBelowAtLeastIsIncoherent) {
  NormalFormPtr nf =
      NF("(AND (FILLS r Ford-1) (AT-LEAST 3 r) (CLOSE r))", true);
  EXPECT_TRUE(nf->incoherent());
}

TEST_F(NormalizeTest, IncoherentValueRestrictionForcesAtMostZero) {
  NormalFormPtr nf =
      NF("(ALL r (AND (AT-LEAST 2 s) (AT-MOST 1 s)))");
  RoleId r = *vocab_.FindRole(vocab_.symbols().Lookup("r"));
  EXPECT_EQ(nf->role(r).at_most, 0u);
  EXPECT_FALSE(nf->incoherent());
  // ... but requiring a filler then is incoherent.
  EXPECT_TRUE(NF("(AND (ALL r (AND (AT-LEAST 2 s) (AT-MOST 1 s))) "
                 "(AT-LEAST 1 r))")
                  ->incoherent());
}

TEST_F(NormalizeTest, DisjointPrimitivesConflict) {
  EXPECT_TRUE(NF("(AND (DISJOINT-PRIMITIVE CLASSIC-THING gender male) "
                 "(DISJOINT-PRIMITIVE CLASSIC-THING gender female))")
                  ->incoherent());
  EXPECT_FALSE(NF("(AND (DISJOINT-PRIMITIVE CLASSIC-THING gender male) "
                  "(DISJOINT-PRIMITIVE CLASSIC-THING age young))")
                   ->incoherent());
}

TEST_F(NormalizeTest, SamePrimitiveIndexIsSameAtom) {
  NormalFormPtr a = NF("(PRIMITIVE CLASSIC-THING car)");
  NormalFormPtr b = NF("(AND (PRIMITIVE CLASSIC-THING car) "
                       "(PRIMITIVE CLASSIC-THING car))");
  EXPECT_TRUE(a->Equals(*b));
}

TEST_F(NormalizeTest, BuiltinDisjointness) {
  EXPECT_TRUE(NF("(AND INTEGER STRING)")->incoherent());
  EXPECT_TRUE(NF("(AND CLASSIC-THING HOST-THING)")->incoherent());
  EXPECT_FALSE(NF("(AND INTEGER NUMBER)")->incoherent());
}

TEST_F(NormalizeTest, HostValueEnumerationFiltering) {
  // (AND INTEGER (ONE-OF 1 "a" 2)) keeps only the integers.
  NormalFormPtr nf = NF("(AND INTEGER (ONE-OF 1 \"a\" 2))");
  ASSERT_NE(nf->enumeration(), nullptr);
  EXPECT_EQ(nf->enumeration()->size(), 2u);
  // All strings -> empty -> incoherent.
  EXPECT_TRUE(NF("(AND INTEGER (ONE-OF \"a\" \"b\"))")->incoherent());
}

TEST_F(NormalizeTest, ClassicIndividualsSurviveHostFilter) {
  // Named individuals are CLASSIC things, incompatible with INTEGER.
  EXPECT_TRUE(NF("(AND INTEGER (ONE-OF Ford-1))")->incoherent());
  EXPECT_FALSE(NF("(AND CLASSIC-THING (ONE-OF Ford-1))")->incoherent());
}

TEST_F(NormalizeTest, HostFillerAgainstEnumeratedRestriction) {
  EXPECT_TRUE(
      NF("(AND (FILLS r 5) (ALL r (ONE-OF 1 2)))")->incoherent());
  EXPECT_FALSE(
      NF("(AND (FILLS r 1) (ALL r (ONE-OF 1 2)))")->incoherent());
}

TEST_F(NormalizeTest, HostFillerAgainstTypeRestriction) {
  EXPECT_TRUE(NF("(AND (FILLS r \"x\") (ALL r INTEGER))")->incoherent());
  EXPECT_FALSE(NF("(AND (FILLS r 7) (ALL r INTEGER))")->incoherent());
}

TEST_F(NormalizeTest, SameAsDeepStepsRequireAttributes) {
  // The first step may be multi-valued (SAME-AS then derives AT-MOST 1),
  // but deeper steps must be declared attributes.
  auto deep =
      ParseDescriptionString("(SAME-AS (driver) (r s))", &vocab_.symbols());
  ASSERT_TRUE(deep.ok());
  auto nf = norm_.NormalizeConcept(*deep);
  EXPECT_TRUE(nf.status().IsInvalidArgument());
}

TEST_F(NormalizeTest, SameAsDerivesSingleValuedness) {
  NormalFormPtr nf = NF("(SAME-AS (r) (s))");
  RoleId r = *vocab_.FindRole(vocab_.symbols().Lookup("r"));
  RoleId s = *vocab_.FindRole(vocab_.symbols().Lookup("s"));
  EXPECT_EQ(nf->role(r).at_most, 1u);
  EXPECT_EQ(nf->role(s).at_most, 1u);
}

TEST_F(NormalizeTest, SameAsMergesAttributeRestrictions) {
  // driver == payer, and driver must be a CAR-ish thing => payer too.
  NormalFormPtr nf =
      NF("(AND (SAME-AS (driver) (payer)) "
         "(ALL driver (PRIMITIVE CLASSIC-THING car)))");
  RoleId payer = *vocab_.FindRole(vocab_.symbols().Lookup("payer"));
  ASSERT_NE(nf->role(payer).value_restriction, nullptr);
  EXPECT_FALSE(nf->role(payer).value_restriction->IsThing());
}

TEST_F(NormalizeTest, SameAsPropagatesFillers) {
  NormalFormPtr nf =
      NF("(AND (SAME-AS (driver) (payer)) (FILLS driver Ford-1))");
  RoleId payer = *vocab_.FindRole(vocab_.symbols().Lookup("payer"));
  EXPECT_EQ(nf->role(payer).fillers.count(ford_), 1u);
}

TEST_F(NormalizeTest, SameAsDistinctFillersConflict) {
  NormalFormPtr nf = NF(
      "(AND (SAME-AS (driver) (payer)) (FILLS driver Ford-1) "
      "(FILLS payer Volvo-2))");
  EXPECT_TRUE(nf->incoherent());
}

TEST_F(NormalizeTest, AttributesAreSingleValued) {
  NormalFormPtr nf = NF("(AT-LEAST 1 driver)");
  RoleId driver = *vocab_.FindRole(vocab_.symbols().Lookup("driver"));
  EXPECT_EQ(nf->role(driver).at_most, 1u);
  EXPECT_TRUE(NF("(FILLS driver Ford-1 Volvo-2)")->incoherent());
}

TEST_F(NormalizeTest, UndeclaredRoleIsError) {
  auto d = ParseDescriptionString("(AT-LEAST 1 nosuchrole)",
                                  &vocab_.symbols());
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(norm_.NormalizeConcept(*d).status().IsNotFound());
}

TEST_F(NormalizeTest, UnknownIndividualIsError) {
  auto d = ParseDescriptionString("(ONE-OF NoSuchInd)", &vocab_.symbols());
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(norm_.NormalizeConcept(*d).status().IsNotFound());
}

TEST_F(NormalizeTest, UnknownConceptIsError) {
  auto d = ParseDescriptionString("NOSUCHCONCEPT", &vocab_.symbols());
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(norm_.NormalizeConcept(*d).status().IsNotFound());
}

TEST_F(NormalizeTest, UnregisteredTestIsError) {
  auto d = ParseDescriptionString("(TEST even)", &vocab_.symbols());
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(norm_.NormalizeConcept(*d).status().IsNotFound());
}

TEST_F(NormalizeTest, RegisteredTestNormalizes) {
  ASSERT_TRUE(
      vocab_.RegisterTest("even", [](const TestArg&) { return true; }).ok());
  NormalFormPtr nf = NF("(TEST even)");
  EXPECT_EQ(nf->tests().size(), 1u);
}

TEST_F(NormalizeTest, PoolSharesEqualForms) {
  [[maybe_unused]] obs::CounterDeltaScope window;
  NormalFormPtr a = NF("(AND (AT-LEAST 1 r) (PRIMITIVE CLASSIC-THING p))");
  NormalFormPtr b = NF("(AND (PRIMITIVE CLASSIC-THING p) (AT-LEAST 1 r))");
  EXPECT_EQ(a.get(), b.get());  // interned: same object
#if CLASSIC_OBS
  EXPECT_GT(window.Deltas()[static_cast<size_t>(obs::Counter::kInternHits)],
            0u);
#endif
}

TEST_F(NormalizeTest, NoInterningWhenDisabled) {
  Normalizer raw(&vocab_, Normalizer::Options{/*intern_forms=*/false});
  auto d = ParseDescriptionString("(AT-LEAST 1 r)", &vocab_.symbols());
  ASSERT_TRUE(d.ok());
  auto a = raw.NormalizeConcept(*d);
  auto b = raw.NormalizeConcept(*d);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_TRUE((*a)->Equals(**b));
}

TEST_F(NormalizeTest, RoundTripThroughDescription) {
  NormalFormPtr nf = NF(
      "(AND (PRIMITIVE CLASSIC-THING crime) (AT-LEAST 1 r) (AT-MOST 4 r) "
      "(ALL r (PRIMITIVE CLASSIC-THING person)) (FILLS s Ford-1))");
  // Rendering and re-normalizing is identity on normal forms.
  DescPtr rendered = nf->ToDescription(vocab_);
  auto again = norm_.NormalizeConcept(rendered);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(nf->Equals(**again))
      << nf->ToString(vocab_) << "\nvs\n" << (*again)->ToString(vocab_);
}

TEST_F(NormalizeTest, ToStringWritesTheTextOfToDescription) {
  ASSERT_TRUE(
      vocab_.RegisterTest("even", [](const TestArg&) { return true; }).ok());
  // Each row: a concept and its rendering. The rows reach the rules the
  // random descriptions of property_test do not: host fillers of every
  // type (a string holding a quote and a backslash, a real), implied
  // atoms, an attribute's declared AT-MOST 1, TEST, DISJOINT-PRIMITIVE,
  // a lone part, THING and NOTHING.
  const struct {
    const char* concept_text;
    const char* rendered;
  } kRows[] = {
      {"THING", "THING"},
      {"NOTHING", "NOTHING"},
      {"(AND (AT-LEAST 2 r) (AT-MOST 1 r))", "NOTHING"},
      {"(AT-LEAST 2 r)", "(AT-LEAST 2 r)"},
      {"(AND INTEGER NUMBER)", "INTEGER"},
      {"(ALL r (AND NUMBER REAL HOST-THING))", "(ALL r REAL)"},
      {"(AND (AT-LEAST 1 driver) (AT-MOST 1 driver))", "(AT-LEAST 1 driver)"},
      {"(AT-MOST 0 driver)", "(AT-MOST 0 driver)"},
      {"(FILLS s 7 2.5 \"say \\\"hi\\\" \\\\ now\" #t)",
       "(FILLS s 7 2.5 \"say \\\"hi\\\" \\\\ now\" #t)"},
      {"(AND (FILLS insurance 3.0) (ALL insurance REAL))",
       "(AND (FILLS insurance 3.0) (ALL insurance REAL))"},
      {"(ONE-OF #f #t)", "(AND BOOLEAN (ONE-OF #t #f))"},
      {"(TEST even)", "(TEST even)"},
      {"(AND (DISJOINT-PRIMITIVE CLASSIC-THING gender male) "
       "(PRIMITIVE CLASSIC-THING crime) (TEST even))",
       "(AND CLASSIC-THING (DISJOINT-PRIMITIVE THING gender male) "
       "(PRIMITIVE THING crime) (TEST even))"},
      {"(AND (AT-LEAST 3 r) (AT-MOST 4 r) (FILLS r Ford-1 Volvo-2) "
       "(ALL r (AND (PRIMITIVE CLASSIC-THING car) (AT-LEAST 1 s))))",
       "(AND (AT-LEAST 3 r) (AT-MOST 4 r) (FILLS r Ford-1 Volvo-2) "
       "(ALL r (AND CLASSIC-THING (PRIMITIVE THING car) (AT-LEAST 1 s))))"},
      {"(SAME-AS (driver) (payer))", "(SAME-AS (driver) (payer))"},
  };
  for (const auto& row : kRows) {
    NormalFormPtr nf = NF(row.concept_text);
    ASSERT_NE(nf, nullptr) << row.concept_text;
    EXPECT_EQ(nf->ToString(vocab_), row.rendered) << row.concept_text;
    EXPECT_EQ(nf->ToString(vocab_),
              nf->ToDescription(vocab_)->ToString(vocab_.symbols()))
        << row.concept_text;
  }
}

TEST_F(NormalizeTest, SizeGrowsWithConstraints) {
  EXPECT_LT(NF("(AT-LEAST 1 r)")->Size(),
            NF("(AND (AT-LEAST 1 r) (ALL r (AND (AT-LEAST 1 s) "
               "(PRIMITIVE CLASSIC-THING p))))")
                ->Size());
}

}  // namespace
}  // namespace classic
