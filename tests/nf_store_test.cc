// Unit tests for NormalFormStore: structural dedup, deep interning of
// value restrictions, dense id assignment, and the copy-resets-id
// invariant that keeps mutated copies from impersonating canonical forms.

#include <gtest/gtest.h>

#include "desc/nf_store.h"
#include "desc/normalize.h"
#include "desc/parser.h"
#include "desc/vocabulary.h"
#include "obs/metrics.h"

namespace classic {
namespace {

class NfStoreTest : public ::testing::Test {
 protected:
  NfStoreTest() : norm_(&vocab_) {
    EXPECT_TRUE(vocab_.DefineRole("r").ok());
    EXPECT_TRUE(vocab_.DefineRole("s").ok());
  }

  NormalFormPtr NF(const std::string& text) {
    auto d = ParseDescriptionString(text, &vocab_.symbols());
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    auto nf = norm_.NormalizeConcept(*d);
    EXPECT_TRUE(nf.ok()) << nf.status().ToString();
    return *nf;
  }

  Vocabulary vocab_;
  Normalizer norm_;
};

TEST_F(NfStoreTest, StructurallyEqualFormsShareOneObject) {
  [[maybe_unused]] obs::CounterDeltaScope window;
  NormalFormPtr a = NF("(AND (AT-LEAST 2 r) (AT-MOST 5 s))");
  // Same meaning, different surface order: the normalizer canonicalizes,
  // the store dedups.
  NormalFormPtr b = NF("(AND (AT-MOST 5 s) (AT-LEAST 2 r))");
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a->interned_id(), kNoNfId);
#if CLASSIC_OBS
  EXPECT_GE(window.Deltas()[static_cast<size_t>(obs::Counter::kInternHits)],
            1u);
#endif
}

TEST_F(NfStoreTest, DistinctFormsGetDistinctDenseIds) {
  NormalFormPtr a = NF("(AT-LEAST 1 r)");
  NormalFormPtr b = NF("(AT-LEAST 2 r)");
  ASSERT_NE(a->interned_id(), kNoNfId);
  ASSERT_NE(b->interned_id(), kNoNfId);
  EXPECT_NE(a->interned_id(), b->interned_id());
  // Dense: every id below size() resolves to a live form with that id.
  const NormalFormStore& store = norm_.store();
  for (NfId id = 0; id < store.size(); ++id) {
    ASSERT_NE(store.form(id), nullptr);
    EXPECT_EQ(store.form(id)->interned_id(), id);
  }
}

TEST_F(NfStoreTest, InterningIsDeep) {
  NormalFormPtr a = NF("(ALL r (AT-LEAST 3 s))");
  NormalFormPtr b = NF("(AND (ALL r (AT-LEAST 3 s)) (AT-MOST 9 r))");
  ASSERT_EQ(a->roles().size(), 1u);
  const NormalFormPtr& va = a->roles().begin()->second.value_restriction;
  ASSERT_NE(va, nullptr);
  // The nested restriction is itself interned...
  EXPECT_NE(va->interned_id(), kNoNfId);
  // ...and shared with the structurally equal restriction inside b.
  bool found_shared = false;
  for (const auto& [role, rr] : b->roles()) {
    if (rr.value_restriction && rr.value_restriction.get() == va.get()) {
      found_shared = true;
    }
  }
  EXPECT_TRUE(found_shared);
}

TEST_F(NfStoreTest, CopyResetsInternedId) {
  NormalFormPtr a = NF("(AT-LEAST 4 r)");
  ASSERT_NE(a->interned_id(), kNoNfId);
  NormalForm copy(*a);  // copies are mutable working values
  EXPECT_EQ(copy.interned_id(), kNoNfId);
  NormalForm assigned;
  assigned = *a;
  EXPECT_EQ(assigned.interned_id(), kNoNfId);
}

TEST_F(NfStoreTest, ReinternedCopyRejoinsCanonicalForm) {
  NormalFormPtr a = NF("(AND (AT-LEAST 4 r) (AT-MOST 7 s))");
  NormalFormStore store;
  NormalFormPtr canon = store.Intern(NormalForm(*a));
  NormalFormPtr again = store.Intern(NormalForm(*a));
  EXPECT_EQ(canon.get(), again.get());
  EXPECT_EQ(canon->interned_id(), again->interned_id());
}

TEST_F(NfStoreTest, IncoherentFormsAreNotInterned) {
  // AT-LEAST 3 conflicts with AT-MOST 1: normalization yields bottom.
  NormalFormPtr bot1 = NF("(AND (AT-LEAST 3 r) (AT-MOST 1 r))");
  NormalFormPtr bot2 = NF("(AND (AT-LEAST 3 r) (AT-MOST 1 r))");
  ASSERT_TRUE(bot1->incoherent());
  ASSERT_TRUE(bot2->incoherent());
  // Each keeps its own diagnostic identity and no store id.
  EXPECT_EQ(bot1->interned_id(), kNoNfId);
  EXPECT_EQ(bot2->interned_id(), kNoNfId);
}

TEST_F(NfStoreTest, StoreCountsDistinctForms) {
  NormalFormStore store;
  size_t before = store.size();
  NormalForm thing;  // vacuous THING form
  [[maybe_unused]] obs::CounterDeltaScope window;
  NormalFormPtr t1 = store.Intern(NormalForm(thing));
  NormalFormPtr t2 = store.Intern(NormalForm(thing));
  EXPECT_EQ(t1.get(), t2.get());
  EXPECT_EQ(store.size(), before + 1);
#if CLASSIC_OBS
  const obs::CounterArray d = window.Deltas();
  EXPECT_EQ(d[static_cast<size_t>(obs::Counter::kInternHits)], 1u);
  EXPECT_EQ(d[static_cast<size_t>(obs::Counter::kInternMisses)], 1u);
#endif
}

}  // namespace
}  // namespace classic
