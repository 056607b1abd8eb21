// Property-based tests over randomly generated descriptions
// (parameterized by RNG seed). These pin down the lattice-theoretic
// invariants the paper's inferences rely on:
//
//   - subsumption is reflexive and transitive, equivalence symmetric;
//   - AND is the meet: (AND a b) is subsumed by both conjuncts, and
//     anything subsumed by both is subsumed by the AND;
//   - Meet on normal forms is idempotent / commutative / associative up
//     to equivalence, with THING as unit and bottom absorbing;
//   - normalization is canonical: rendering a normal form back to a
//     description and re-normalizing yields an equal form;
//   - subsumption agrees between the expression and its normal form.

#include <gtest/gtest.h>

#include "desc/normalize.h"
#include "desc/parser.h"
#include "subsume/subsume.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace classic {
namespace {

constexpr size_t kRoles = 6;
constexpr size_t kPrims = 8;
constexpr size_t kInds = 6;

/// Shared vocabulary for all property cases.
class PropertyEnv {
 public:
  PropertyEnv() : norm_(&vocab_) {
    for (size_t i = 0; i < kRoles; ++i) {
      (void)vocab_.DefineRole(StrCat("r", i), /*attribute=*/i < 2);
    }
    for (size_t i = 0; i < kInds; ++i) {
      (void)vocab_.CreateIndividual(StrCat("I", i));
    }
  }

  /// Random description of roughly `budget` constructors.
  DescPtr Generate(Rng* rng, size_t budget, int depth = 0) {
    std::vector<DescPtr> parts;
    while (budget > 0) {
      switch (rng->Below(depth < 2 ? 6 : 4)) {
        case 0: {
          parts.push_back(Description::Primitive(
              Description::ClassicThing(),
              vocab_.symbols().Intern(StrCat("p", rng->Below(kPrims)))));
          budget -= std::min<size_t>(budget, 1);
          break;
        }
        case 1: {
          parts.push_back(Description::AtLeast(
              static_cast<uint32_t>(rng->Below(3)), RandomRole(rng)));
          budget -= std::min<size_t>(budget, 1);
          break;
        }
        case 2: {
          parts.push_back(Description::AtMost(
              static_cast<uint32_t>(2 + rng->Below(6)), RandomRole(rng)));
          budget -= std::min<size_t>(budget, 1);
          break;
        }
        case 3: {
          std::vector<IndRef> members;
          size_t n = 1 + rng->Below(kInds);
          for (size_t i = 0; i < n; ++i) {
            members.push_back(IndRef::Named(
                vocab_.symbols().Intern(StrCat("I", rng->Below(kInds)))));
          }
          parts.push_back(Description::OneOf(std::move(members)));
          budget -= std::min<size_t>(budget, 2);
          break;
        }
        case 4: {
          if (budget < 3) {
            budget -= 1;
            break;
          }
          size_t inner = budget / 2;
          parts.push_back(Description::All(
              RandomRole(rng), Generate(rng, inner, depth + 1)));
          budget -= std::min(budget, inner + 1);
          break;
        }
        case 5: {
          // SAME-AS over the two attributes.
          parts.push_back(Description::SameAs(
              {vocab_.symbols().Intern("r0")},
              {vocab_.symbols().Intern("r1")}));
          budget -= std::min<size_t>(budget, 2);
          break;
        }
      }
    }
    if (parts.empty()) return Description::Thing();
    if (parts.size() == 1) return parts[0];
    return Description::And(std::move(parts));
  }

  NormalFormPtr NF(const DescPtr& d) {
    auto nf = norm_.NormalizeConcept(d);
    EXPECT_TRUE(nf.ok()) << nf.status().ToString();
    return nf.ok() ? *nf : nullptr;
  }

  Vocabulary vocab_;
  Normalizer norm_;

 private:
  Symbol RandomRole(Rng* rng) {
    return vocab_.symbols().Intern(StrCat("r", rng->Below(kRoles)));
  }
};

PropertyEnv* Env() {
  static auto* env = new PropertyEnv();
  return env;
}

class DescPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DescPropertyTest, SubsumptionReflexive) {
  Rng rng(GetParam());
  NormalFormPtr a = Env()->NF(Env()->Generate(&rng, 12));
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(Subsumes(*a, *a));
}

TEST_P(DescPropertyTest, AndIsLowerBound) {
  Rng rng(GetParam() * 31 + 7);
  DescPtr a = Env()->Generate(&rng, 10);
  DescPtr b = Env()->Generate(&rng, 10);
  NormalFormPtr na = Env()->NF(a);
  NormalFormPtr nb = Env()->NF(b);
  NormalFormPtr nab = Env()->NF(Description::And({a, b}));
  ASSERT_TRUE(na && nb && nab);
  EXPECT_TRUE(Subsumes(*na, *nab));
  EXPECT_TRUE(Subsumes(*nb, *nab));
}

TEST_P(DescPropertyTest, MeetAgreesWithSyntacticAnd) {
  Rng rng(GetParam() * 131 + 3);
  DescPtr a = Env()->Generate(&rng, 10);
  DescPtr b = Env()->Generate(&rng, 10);
  NormalFormPtr na = Env()->NF(a);
  NormalFormPtr nb = Env()->NF(b);
  NormalFormPtr nab = Env()->NF(Description::And({a, b}));
  ASSERT_TRUE(na && nb && nab);
  NormalFormPtr met = Env()->norm_.Meet(*na, *nb);
  EXPECT_TRUE(Equivalent(*met, *nab))
      << met->ToString(Env()->vocab_) << "\nvs\n"
      << nab->ToString(Env()->vocab_);
}

TEST_P(DescPropertyTest, MeetIdempotentCommutative) {
  Rng rng(GetParam() * 17 + 11);
  NormalFormPtr a = Env()->NF(Env()->Generate(&rng, 12));
  NormalFormPtr b = Env()->NF(Env()->Generate(&rng, 12));
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(Equivalent(*Env()->norm_.Meet(*a, *a), *a));
  EXPECT_TRUE(Equivalent(*Env()->norm_.Meet(*a, *b),
                         *Env()->norm_.Meet(*b, *a)));
}

TEST_P(DescPropertyTest, MeetAssociative) {
  Rng rng(GetParam() * 313 + 1);
  NormalFormPtr a = Env()->NF(Env()->Generate(&rng, 8));
  NormalFormPtr b = Env()->NF(Env()->Generate(&rng, 8));
  NormalFormPtr c = Env()->NF(Env()->Generate(&rng, 8));
  ASSERT_TRUE(a && b && c);
  NormalFormPtr left = Env()->norm_.Meet(*Env()->norm_.Meet(*a, *b), *c);
  NormalFormPtr right = Env()->norm_.Meet(*a, *Env()->norm_.Meet(*b, *c));
  EXPECT_TRUE(Equivalent(*left, *right));
}

TEST_P(DescPropertyTest, ThingIsUnitBottomAbsorbs) {
  Rng rng(GetParam() * 1009 + 13);
  NormalFormPtr a = Env()->NF(Env()->Generate(&rng, 12));
  ASSERT_TRUE(a);
  EXPECT_TRUE(Equivalent(*Env()->norm_.Meet(*a, ThingNormalForm()), *a));
  NormalForm bottom;
  bottom.MarkIncoherent("test bottom");
  EXPECT_TRUE(Env()->norm_.Meet(*a, bottom)->incoherent());
}

TEST_P(DescPropertyTest, TransitivityOnMeetChain) {
  // a >= (a AND b) >= (a AND b AND c): a chain where subsumption must be
  // transitive by construction.
  Rng rng(GetParam() * 73 + 29);
  DescPtr a = Env()->Generate(&rng, 8);
  DescPtr b = Env()->Generate(&rng, 8);
  DescPtr c = Env()->Generate(&rng, 8);
  NormalFormPtr na = Env()->NF(a);
  NormalFormPtr nab = Env()->NF(Description::And({a, b}));
  NormalFormPtr nabc = Env()->NF(Description::And({a, b, c}));
  ASSERT_TRUE(na && nab && nabc);
  ASSERT_TRUE(Subsumes(*na, *nab));
  ASSERT_TRUE(Subsumes(*nab, *nabc));
  EXPECT_TRUE(Subsumes(*na, *nabc));
}

TEST_P(DescPropertyTest, RenderRoundTripIsIdentity) {
  Rng rng(GetParam() * 211 + 5);
  NormalFormPtr nf = Env()->NF(Env()->Generate(&rng, 14));
  ASSERT_TRUE(nf);
  DescPtr rendered = nf->ToDescription(Env()->vocab_);
  // The one-buffer renderer writes exactly the text of the Description.
  EXPECT_EQ(nf->ToString(Env()->vocab_),
            rendered->ToString(Env()->vocab_.symbols()));
  auto again = Env()->norm_.NormalizeConcept(rendered);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\nfor "
                          << rendered->ToString(Env()->vocab_.symbols());
  EXPECT_TRUE(nf->Equals(**again))
      << nf->ToString(Env()->vocab_) << "\nvs\n"
      << (*again)->ToString(Env()->vocab_);
}

TEST_P(DescPropertyTest, EqualsImpliesEquivalent) {
  Rng rng(GetParam() * 97 + 41);
  NormalFormPtr a = Env()->NF(Env()->Generate(&rng, 12));
  NormalFormPtr b = Env()->NF(Env()->Generate(&rng, 12));
  ASSERT_TRUE(a && b);
  if (a->Equals(*b)) {
    EXPECT_TRUE(Equivalent(*a, *b));
    // Hash agrees with Equals.
    EXPECT_EQ(a->Hash(), b->Hash());
  }
}

TEST_P(DescPropertyTest, ParsePrintParseFixpoint) {
  Rng rng(GetParam() * 389 + 2);
  DescPtr d = Env()->Generate(&rng, 14);
  std::string printed = d->ToString(Env()->vocab_.symbols());
  auto reparsed = ParseDescriptionString(printed, &Env()->vocab_.symbols());
  ASSERT_TRUE(reparsed.ok()) << printed;
  EXPECT_EQ((*reparsed)->ToString(Env()->vocab_.symbols()), printed);
  // And semantics are preserved.
  NormalFormPtr n1 = Env()->NF(d);
  NormalFormPtr n2 = Env()->NF(*reparsed);
  ASSERT_TRUE(n1 && n2);
  EXPECT_TRUE(n1->Equals(*n2));
}

TEST_P(DescPropertyTest, SizeIsPositiveAndStable) {
  Rng rng(GetParam() * 643 + 17);
  NormalFormPtr nf = Env()->NF(Env()->Generate(&rng, 10));
  ASSERT_TRUE(nf);
  EXPECT_GE(nf->Size(), 1u);
  EXPECT_EQ(nf->Size(), nf->Size());
}

TEST_P(DescPropertyTest, JoinIsUpperBound) {
  Rng rng(GetParam() * 911 + 77);
  NormalFormPtr a = Env()->NF(Env()->Generate(&rng, 10));
  NormalFormPtr b = Env()->NF(Env()->Generate(&rng, 10));
  ASSERT_TRUE(a && b);
  NormalFormPtr j = JoinNormalForms(*a, *b, Env()->vocab_);
  EXPECT_TRUE(Subsumes(*j, *a))
      << "join " << j->ToString(Env()->vocab_) << "\nfails to subsume "
      << a->ToString(Env()->vocab_);
  EXPECT_TRUE(Subsumes(*j, *b))
      << "join " << j->ToString(Env()->vocab_) << "\nfails to subsume "
      << b->ToString(Env()->vocab_);
}

TEST_P(DescPropertyTest, JoinIdempotentCommutative) {
  Rng rng(GetParam() * 733 + 5);
  NormalFormPtr a = Env()->NF(Env()->Generate(&rng, 10));
  NormalFormPtr b = Env()->NF(Env()->Generate(&rng, 10));
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(Equivalent(*JoinNormalForms(*a, *a, Env()->vocab_), *a));
  EXPECT_TRUE(Equivalent(*JoinNormalForms(*a, *b, Env()->vocab_),
                         *JoinNormalForms(*b, *a, Env()->vocab_)));
}

TEST_P(DescPropertyTest, JoinWithBottomAndThing) {
  Rng rng(GetParam() * 557 + 31);
  NormalFormPtr a = Env()->NF(Env()->Generate(&rng, 10));
  ASSERT_TRUE(a);
  NormalForm bottom;
  bottom.MarkIncoherent("test");
  // join(a, bottom) == a; join(a, THING) == THING.
  EXPECT_TRUE(
      Equivalent(*JoinNormalForms(*a, bottom, Env()->vocab_), *a));
  EXPECT_TRUE(JoinNormalForms(*a, ThingNormalForm(), Env()->vocab_)
                  ->IsThing());
}

TEST_P(DescPropertyTest, AbsorptionSamples) {
  // join(a, meet(a,b)) == a  (meet(a,b) is below a, so the join is a).
  Rng rng(GetParam() * 449 + 13);
  NormalFormPtr a = Env()->NF(Env()->Generate(&rng, 8));
  NormalFormPtr b = Env()->NF(Env()->Generate(&rng, 8));
  ASSERT_TRUE(a && b);
  NormalFormPtr met = Env()->norm_.Meet(*a, *b);
  NormalFormPtr j = JoinNormalForms(*a, *met, Env()->vocab_);
  // The join is an upper bound of both; since met <= a it must be
  // equivalent to a whenever the join is exact, and at least subsume a.
  EXPECT_TRUE(Subsumes(*j, *a));
  // And a is itself an upper bound, so an exact join can't be strictly
  // above a... but ours may approximate. Soundness only:
  EXPECT_TRUE(Subsumes(*j, *met));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DescPropertyTest,
                         ::testing::Range<uint64_t>(1, 33));

}  // namespace
}  // namespace classic
