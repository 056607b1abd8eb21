// Unit tests for NormalFormStore: structural dedup, deep interning of
// value restrictions, dense id assignment, the copy-resets-id invariant
// that keeps mutated copies from impersonating canonical forms, and the
// owned forms built for individuals, which the store does not retain.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "classic/database.h"
#include "desc/nf_store.h"
#include "desc/normalize.h"
#include "desc/parser.h"
#include "desc/vocabulary.h"
#include "obs/metrics.h"
#include "workload.h"

namespace classic {
namespace {

class NfStoreTest : public ::testing::Test {
 protected:
  NfStoreTest() : norm_(&vocab_) {
    EXPECT_TRUE(vocab_.DefineRole("r").ok());
    EXPECT_TRUE(vocab_.DefineRole("s").ok());
  }

  NormalFormPtr NF(const std::string& text, bool ind_expr = false) {
    auto d = ParseDescriptionString(text, &vocab_.symbols());
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    auto nf = ind_expr ? norm_.NormalizeIndividualExpr(*d)
                       : norm_.NormalizeConcept(*d);
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

TEST_F(NfStoreTest, OwnedFormsInternOnlyTheirValueRestrictions) {
  NormalFormPtr concept_vr = NF("(AT-LEAST 3 s)");
  const size_t before = norm_.store().size();
  NormalFormPtr a = NF("(AND (ALL r (AT-LEAST 3 s)) (CLOSE s))", true);
  NormalFormPtr b = NF("(AND (ALL r (AT-LEAST 3 s)) (CLOSE s))", true);
  // Each individual's form is its own object, with no id...
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->interned_id(), kNoNfId);
  EXPECT_TRUE(a->Equals(*b));
  // ...but its value restriction is the store's canonical object, so the
  // subsumption memo still keys on it.
  EXPECT_EQ(a->role(*vocab_.FindRole(vocab_.symbols().Intern("r")))
                .value_restriction.get(),
            concept_vr.get());
  EXPECT_EQ(norm_.store().size(), before);
}

TEST_F(NfStoreTest, OwnedMeetReturnsItsInputWhenNothingIsAdded) {
  NormalFormPtr state = NF("(AND (AT-LEAST 2 r) (ALL s (AT-MOST 1 r)))", true);
  NormalFormPtr weaker = NF("(AT-LEAST 1 r)");
  EXPECT_EQ(norm_.MeetOwned(state, *weaker).get(), state.get());
  NormalFormPtr stronger = NF("(AND (AT-LEAST 3 r) (ALL s (AT-MOST 0 s)))");
  const size_t before = norm_.store().size();
  NormalFormPtr met = norm_.MeetOwned(state, *stronger);
  EXPECT_NE(met.get(), state.get());
  EXPECT_EQ(met->interned_id(), kNoNfId);
  // The meet of the two s-restrictions is new, and interned.
  const NormalFormPtr& vr =
      met->role(*vocab_.FindRole(vocab_.symbols().Intern("s")))
          .value_restriction;
  ASSERT_NE(vr, nullptr);
  EXPECT_NE(vr->interned_id(), kNoNfId);
  EXPECT_EQ(norm_.store().size(), before + 1);
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct WorkloadRun {
  size_t store_size;
  uint64_t state_digest;
  uint64_t answer_digest;
};

/// Loads the standard workload's 40-concept schema with `n` individuals;
/// reports the store size after the load, then digests the derived state
/// and the answers to every named concept.
WorkloadRun RunStandardWorkload(size_t n) {
  Database db;
  const bench::StandardWorkload w = bench::BuildStandardWorkload(&db, 40, n);
  WorkloadRun run;
  run.store_size = db.kb().normalizer().store().size();
  run.state_digest = Fnv1a(db.kb().CanonicalDerivedState());
  std::string answers;
  for (const auto* names :
       {&w.schema.primitive_names, &w.schema.defined_names}) {
    for (const std::string& name : *names) {
      Result<std::vector<std::string>> r = db.Ask(name);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      answers += name + ':';
      for (const std::string& a : *r) answers += a + ' ';
      answers += '\n';
    }
  }
  run.answer_digest = Fnv1a(answers);
  return run;
}

// The store grows with the schema and the queries asked, not with the
// individuals: assertion forms, CLOSE conjuncts and derived states are
// owned. Interning them all instead cost about 5.8 forms per individual
// here. The digests were recorded when every one of those forms was
// interned, so owning them changed no derived state and no answer.
TEST(NfStoreRetentionTest, StoreSizeDoesNotFollowIndividuals) {
  const WorkloadRun n = RunStandardWorkload(200);
  const WorkloadRun two_n = RunStandardWorkload(400);
  EXPECT_EQ(n.store_size, two_n.store_size);
  EXPECT_EQ(n.state_digest, 0x5dbff9a47ee4af23ULL);
  EXPECT_EQ(n.answer_digest, 0xb29f16a1c7f62d6eULL);
  EXPECT_EQ(two_n.state_digest, 0x250b5c9632b1a8aeULL);
  EXPECT_EQ(two_n.answer_digest, 0xab9ecc7d4b92ca05ULL);
}

}  // namespace
}  // namespace classic
