// Direct unit tests of the NormalForm build API — paths not reachable
// through the parser (programmatic construction, MergeNormalFormInto,
// Tighten idempotence, size/hash behavior).

#include <gtest/gtest.h>

#include "desc/normal_form.h"
#include "desc/normalize.h"

namespace classic {
namespace {

class NormalFormApiTest : public ::testing::Test {
 protected:
  NormalFormApiTest() {
    r_ = *vocab_.DefineRole("r");
    s_ = *vocab_.DefineRole("s");
    attr_ = *vocab_.DefineRole("attr", /*attribute=*/true);
    a_ = *vocab_.CreateIndividual("A");
    b_ = *vocab_.CreateIndividual("B");
    p_ = vocab_.PrimitiveAtom(vocab_.symbols().Intern("p"));
    q_ = vocab_.PrimitiveAtom(vocab_.symbols().Intern("q"));
  }

  Vocabulary vocab_;
  RoleId r_, s_, attr_;
  IndId a_, b_;
  AtomId p_, q_;
};

TEST_F(NormalFormApiTest, DefaultIsThing) {
  NormalForm nf;
  nf.Tighten(vocab_);
  EXPECT_TRUE(nf.IsThing());
  EXPECT_FALSE(nf.incoherent());
  EXPECT_EQ(nf.Size(), 1u);
}

TEST_F(NormalFormApiTest, TightenIsIdempotent) {
  NormalForm nf;
  nf.AddAtom(p_, vocab_);
  RoleRestriction* rr = nf.MutableRole(r_, vocab_);
  rr->at_least = 2;
  rr->fillers = {a_, b_};
  rr->closed = true;
  nf.Tighten(vocab_);
  NormalForm copy = nf;
  copy.Tighten(vocab_);
  EXPECT_TRUE(nf.Equals(copy));
  EXPECT_EQ(nf.Hash(), copy.Hash());
}

TEST_F(NormalFormApiTest, ClosedDerivesExactBounds) {
  NormalForm nf;
  RoleRestriction* rr = nf.MutableRole(r_, vocab_);
  rr->fillers = {a_, b_};
  rr->closed = true;
  nf.Tighten(vocab_);
  EXPECT_EQ(nf.role(r_).at_least, 2u);
  EXPECT_EQ(nf.role(r_).at_most, 2u);
}

TEST_F(NormalFormApiTest, TrivialRecordsAreDropped) {
  NormalForm nf;
  nf.MutableRole(r_, vocab_);       // never constrained
  nf.MutableRole(attr_, vocab_);    // only the implicit at-most-1 clamp
  nf.Tighten(vocab_);
  EXPECT_TRUE(nf.roles().empty());
  EXPECT_TRUE(nf.IsThing());
}

TEST_F(NormalFormApiTest, AttributeClampOnCreation) {
  NormalForm nf;
  RoleRestriction* rr = nf.MutableRole(attr_, vocab_);
  EXPECT_EQ(rr->at_most, 1u);
  rr->fillers = {a_, b_};
  nf.Tighten(vocab_);
  EXPECT_TRUE(nf.incoherent());
}

TEST_F(NormalFormApiTest, MergeCombinesConstraints) {
  NormalForm x;
  x.MutableRole(r_, vocab_)->at_least = 1;
  x.AddAtom(p_, vocab_);
  x.Tighten(vocab_);
  NormalForm y;
  y.MutableRole(r_, vocab_)->at_most = 3;
  y.AddAtom(q_, vocab_);
  y.Tighten(vocab_);

  NormalForm merged = x;
  MergeNormalFormInto(&merged, y, vocab_);
  merged.Tighten(vocab_);
  EXPECT_EQ(merged.atoms().size(), 2u);
  EXPECT_EQ(merged.role(r_).at_least, 1u);
  EXPECT_EQ(merged.role(r_).at_most, 3u);
}

TEST_F(NormalFormApiTest, MeetMatchesMerge) {
  NormalForm x;
  x.MutableRole(r_, vocab_)->fillers = {a_};
  x.Tighten(vocab_);
  NormalForm y;
  y.MutableRole(r_, vocab_)->fillers = {b_};
  y.Tighten(vocab_);
  NormalFormPtr met = MeetNormalForms(x, y, vocab_);
  EXPECT_EQ(met->role(r_).fillers.size(), 2u);
  EXPECT_EQ(met->role(r_).at_least, 2u);
}

TEST_F(NormalFormApiTest, IncoherencePreservesFirstReason) {
  NormalForm nf;
  nf.MarkIncoherent("first");
  nf.MarkIncoherent("second");
  EXPECT_EQ(nf.incoherence_reason(), "first");
}

TEST_F(NormalFormApiTest, IncoherentFormsAllEqual) {
  NormalForm x;
  x.MarkIncoherent("x-reason");
  NormalForm y;
  y.AddAtom(p_, vocab_);
  y.MarkIncoherent("y-reason");
  EXPECT_TRUE(x.Equals(y));
  EXPECT_EQ(x.Hash(), y.Hash());
  NormalForm coherent;
  EXPECT_FALSE(x.Equals(coherent));
}

TEST_F(NormalFormApiTest, RoleAccessorForUnknownRoleIsTrivial) {
  NormalForm nf;
  const RoleRestriction& rr = nf.role(r_);
  EXPECT_TRUE(rr.IsTrivial());
  EXPECT_EQ(rr.at_most, kUnbounded);
}

TEST_F(NormalFormApiTest, VacuousValueRestrictionNormalizedAway) {
  NormalForm nf;
  RoleRestriction* rr = nf.MutableRole(r_, vocab_);
  rr->at_least = 1;
  rr->value_restriction = ThingNormalFormPtr();
  nf.Tighten(vocab_);
  EXPECT_EQ(nf.role(r_).value_restriction, nullptr);
}

TEST_F(NormalFormApiTest, NestedIncoherentRestrictionZeroesAtMost) {
  auto bottom = std::make_shared<NormalForm>();
  bottom->MarkIncoherent("nested bottom");
  NormalForm nf;
  nf.MutableRole(r_, vocab_)->value_restriction = bottom;
  nf.Tighten(vocab_);
  EXPECT_FALSE(nf.incoherent());
  EXPECT_EQ(nf.role(r_).at_most, 0u);
  EXPECT_TRUE(nf.role(r_).closed);
}

TEST_F(NormalFormApiTest, SizeCountsNestedRestrictions) {
  auto inner = std::make_shared<NormalForm>();
  inner->AddAtom(p_, vocab_);
  inner->Tighten(vocab_);
  NormalForm nf;
  nf.MutableRole(r_, vocab_)->value_restriction = inner;
  nf.MutableRole(r_, vocab_)->at_least = 1;
  nf.Tighten(vocab_);
  EXPECT_GT(nf.Size(), inner->Size());
}

TEST_F(NormalFormApiTest, EnumerationIntersectionViaApi) {
  NormalForm nf;
  nf.IntersectEnumeration({a_, b_});
  nf.IntersectEnumeration({b_});
  nf.Tighten(vocab_);
  ASSERT_NE(nf.enumeration(), nullptr);
  EXPECT_EQ(nf.enumeration()->size(), 1u);
  nf.IntersectEnumeration({a_});
  nf.Tighten(vocab_);
  EXPECT_TRUE(nf.incoherent());
}

TEST_F(NormalFormApiTest, CorefMergeThroughApi) {
  NormalForm nf;
  nf.mutable_coref()->Equate({attr_}, {attr_, attr_});
  nf.MutableRole(attr_, vocab_)->fillers = {a_};
  nf.Tighten(vocab_);
  EXPECT_FALSE(nf.incoherent());
  EXPECT_TRUE(nf.coref().Entails({attr_}, {attr_, attr_}));
}

}  // namespace
}  // namespace classic
