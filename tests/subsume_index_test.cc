// Tests for the persistent subsumption memo.
//
// Covers the open-addressing table itself (asymmetric keys, growth,
// idempotent insert), cache behavior as new concepts enter a live
// taxonomy, and the central soundness property: the memoized Subsumes
// used in production agrees with the uncached structural walk on
// >= 1000 randomized description pairs.

#include <gtest/gtest.h>

#include <vector>

#include "desc/normalize.h"
#include "desc/parser.h"
#include "desc/vocabulary.h"
#include "obs/metrics.h"
#include "subsume/subsume.h"
#include "subsume/subsume_index.h"
#include "taxonomy/taxonomy.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace classic {
namespace {

// ---------------------------------------------------------------------------
// Table unit tests.

TEST(SubsumptionIndexTest, EmptyLookupMisses) {
  SubsumptionIndex index;
  [[maybe_unused]] obs::CounterDeltaScope window;
  EXPECT_FALSE(index.Lookup(0, 1).has_value());
  EXPECT_EQ(index.size(), 0u);
#if CLASSIC_OBS
  // The table keeps no shared tallies: callers count hits and misses in
  // their thread-local obs counters, so a raw Lookup counts nothing.
  const obs::CounterArray d = window.Deltas();
  EXPECT_EQ(d[static_cast<size_t>(obs::Counter::kSubsumptionMemoHits)], 0u);
  EXPECT_EQ(d[static_cast<size_t>(obs::Counter::kSubsumptionTests)], 0u);
#endif
}

TEST(SubsumptionIndexTest, InsertThenLookup) {
  SubsumptionIndex index;
  index.Insert(3, 7, true);
  index.Insert(7, 3, false);  // keys are ordered pairs, not sets
  auto a = index.Lookup(3, 7);
  auto b = index.Lookup(7, 3);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(*a);
  EXPECT_FALSE(*b);
  EXPECT_EQ(index.size(), 2u);
}

TEST(SubsumptionIndexTest, ReinsertIsNoOp) {
  SubsumptionIndex index;
  index.Insert(1, 2, true);
  index.Insert(1, 2, true);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(*index.Lookup(1, 2), true);
}

TEST(SubsumptionIndexTest, SurvivesGrowth) {
  SubsumptionIndex index;
  // Push well past the initial capacity so Grow() rehashes several times.
  constexpr NfId kN = 200;
  for (NfId g = 0; g < kN; ++g) {
    for (NfId s = 0; s < kN; s += 7) {
      index.Insert(g, s, ((g + s) & 1) != 0);
    }
  }
  for (NfId g = 0; g < kN; ++g) {
    for (NfId s = 0; s < kN; s += 7) {
      auto v = index.Lookup(g, s);
      ASSERT_TRUE(v.has_value()) << g << "," << s;
      EXPECT_EQ(*v, ((g + s) & 1) != 0);
    }
  }
  // Keys never inserted still miss after all that rehashing.
  EXPECT_FALSE(index.Lookup(kN + 1, 0).has_value());
}

// ---------------------------------------------------------------------------
// Cache behavior against a live taxonomy.

class IndexTaxonomyTest : public ::testing::Test {
 protected:
  IndexTaxonomyTest() : norm_(&vocab_), tax_(&vocab_) {
    EXPECT_TRUE(vocab_.DefineRole("r").ok());
  }

  NodeId Insert(const std::string& name, const std::string& text) {
    auto d = ParseDescriptionString(text, &vocab_.symbols());
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    auto nf = norm_.NormalizeConcept(*d);
    EXPECT_TRUE(nf.ok()) << nf.status().ToString();
    auto cid = vocab_.DefineConcept(vocab_.symbols().Intern(name), *d, *nf);
    EXPECT_TRUE(cid.ok()) << cid.status().ToString();
    auto node = tax_.Insert(*cid);
    EXPECT_TRUE(node.ok()) << node.status().ToString();
    return *node;
  }

  Vocabulary vocab_;
  Normalizer norm_;
  Taxonomy tax_;
};

TEST_F(IndexTaxonomyTest, VerdictsPersistAcrossInsertions) {
  Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  Insert("B", "(AND A (AT-LEAST 1 r))");
  NodeId c = Insert("C", "(AND A (AT-LEAST 2 r))");
  const SubsumptionIndex* index = tax_.subsumption_index();
  size_t after_three = index->size();
  // Classification populated the memo.
  EXPECT_GT(after_three, 0u);

  // New concepts only add entries; nothing already recorded is evicted
  // or changed (interned forms are immutable, ids are never reused).
  NodeId d = Insert("D", "(AND A (AT-LEAST 3 r))");
  EXPECT_GE(index->size(), after_three);

  // The taxonomy stays correct as the cache carries over: D sits below C
  // below B below A.
  EXPECT_TRUE(tax_.Parents(d).count(c));
  EXPECT_TRUE(tax_.IsAncestor(c, d));
}

TEST_F(IndexTaxonomyTest, RepeatedClassifyHitsTheMemo) {
  Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  Insert("B", "(AND A (AT-LEAST 1 r))");
  Insert("C", "(AND A (AT-LEAST 2 r))");

  auto d = ParseDescriptionString("(AND A (AT-LEAST 2 r) (AT-MOST 9 r))",
                                  &vocab_.symbols());
  ASSERT_TRUE(d.ok());
  auto nf = norm_.NormalizeConcept(*d);
  ASSERT_TRUE(nf.ok());

  Classification first = tax_.Classify(**nf);
  Classification second = tax_.Classify(**nf);

  // Same placement both times...
  EXPECT_EQ(first.parents, second.parents);
  EXPECT_EQ(first.children, second.children);
  // ...and the second pass computed nothing: every verdict it needed was
  // already in the persistent index (subsumption_tests counts memo
  // misses only).
  EXPECT_EQ(second.subsumption_tests, 0u);
}

// ---------------------------------------------------------------------------
// Property test: memoized == uncached on randomized pairs.

constexpr size_t kRoles = 5;
constexpr size_t kPrims = 7;

class PairEnv {
 public:
  PairEnv() : norm_(&vocab_) {
    for (size_t i = 0; i < kRoles; ++i) {
      (void)vocab_.DefineRole(StrCat("r", i), /*attribute=*/i < 2);
    }
  }

  /// Random description of roughly `budget` constructors (primitives,
  /// bounds, nested ALLs — the constructs the structural walk recurses
  /// through).
  DescPtr Generate(Rng* rng, size_t budget, int depth = 0) {
    std::vector<DescPtr> parts;
    while (budget > 0) {
      switch (rng->Below(depth < 2 ? 4 : 3)) {
        case 0:
          parts.push_back(Description::Primitive(
              Description::ClassicThing(),
              vocab_.symbols().Intern(StrCat("p", rng->Below(kPrims)))));
          budget -= std::min<size_t>(budget, 1);
          break;
        case 1:
          parts.push_back(Description::AtLeast(
              static_cast<uint32_t>(rng->Below(3)), RandomRole(rng)));
          budget -= std::min<size_t>(budget, 1);
          break;
        case 2:
          parts.push_back(Description::AtMost(
              static_cast<uint32_t>(1 + rng->Below(6)), RandomRole(rng)));
          budget -= std::min<size_t>(budget, 1);
          break;
        case 3: {
          if (budget < 3) {
            budget -= 1;
            break;
          }
          size_t inner = budget / 2;
          parts.push_back(
              Description::All(RandomRole(rng), Generate(rng, inner, depth + 1)));
          budget -= std::min(budget, inner + 1);
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

TEST(SubsumptionIndexPropertyTest, MemoizedAgreesWithUncachedOn1000Pairs) {
  PairEnv env;
  SubsumptionIndex index;
  [[maybe_unused]] obs::CounterDeltaScope window;
  Rng rng(0xC1A551C);
  constexpr size_t kPairs = 1200;
  size_t positive = 0;
  for (size_t i = 0; i < kPairs; ++i) {
    DescPtr da = env.Generate(&rng, 2 + rng.Below(10));
    // Bias half the pairs toward subsumption actually holding: make b a
    // strengthening of a, so both verdicts are exercised.
    DescPtr db = rng.Chance(0.5)
                     ? Description::And({da, env.Generate(&rng, 1 + rng.Below(6))})
                     : env.Generate(&rng, 2 + rng.Below(10));
    NormalFormPtr a = env.NF(da);
    NormalFormPtr b = env.NF(db);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);

    bool uncached = Subsumes(*a, *b);
    bool memoized = Subsumes(*a, *b, &index);
    ASSERT_EQ(memoized, uncached)
        << "pair " << i << ": memoized and uncached Subsumes disagree";
    // Ask again: the answer must now come from (or at least agree with)
    // the populated memo.
    ASSERT_EQ(Subsumes(*a, *b, &index), uncached) << "pair " << i;
    // And the reversed direction is its own key, not a reuse of this one.
    ASSERT_EQ(Subsumes(*b, *a, &index), Subsumes(*b, *a)) << "pair " << i;
    if (uncached) ++positive;
  }
  // Sanity: the workload exercised both verdicts and actually used the
  // table (interned, non-trivial pairs get recorded).
  EXPECT_GT(positive, kPairs / 10);
  EXPECT_LT(positive, kPairs);
  EXPECT_GT(index.size(), 0u);
#if CLASSIC_OBS
  EXPECT_GT(window.Deltas()[static_cast<size_t>(
                obs::Counter::kSubsumptionMemoHits)],
            0u);
#endif
}

}  // namespace
}  // namespace classic
