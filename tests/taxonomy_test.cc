// Unit tests for classification and the IS-A DAG.

#include <gtest/gtest.h>

#include "classic/database.h"
#include "desc/normalize.h"
#include "desc/parser.h"
#include "taxonomy/taxonomy.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic {
namespace {

class TaxonomyTest : public ::testing::Test {
 protected:
  TaxonomyTest() : norm_(&vocab_), tax_(&vocab_) {
    EXPECT_TRUE(vocab_.DefineRole("r").ok());
    EXPECT_TRUE(vocab_.DefineRole("s").ok());
  }

  ConceptId Define(const std::string& name, const std::string& text) {
    auto d = ParseDescriptionString(text, &vocab_.symbols());
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    auto nf = norm_.NormalizeConcept(*d);
    EXPECT_TRUE(nf.ok()) << nf.status().ToString();
    auto cid =
        vocab_.DefineConcept(vocab_.symbols().Intern(name), *d, *nf);
    EXPECT_TRUE(cid.ok()) << cid.status().ToString();
    return *cid;
  }

  NodeId Insert(const std::string& name, const std::string& text) {
    ConceptId cid = Define(name, text);
    auto node = tax_.Insert(cid);
    EXPECT_TRUE(node.ok()) << node.status().ToString();
    return *node;
  }

  NormalFormPtr NF(const std::string& text) {
    auto d = ParseDescriptionString(text, &vocab_.symbols());
    EXPECT_TRUE(d.ok());
    auto nf = norm_.NormalizeConcept(*d);
    EXPECT_TRUE(nf.ok());
    return *nf;
  }

  Vocabulary vocab_;
  Normalizer norm_;
  Taxonomy tax_;
};

TEST_F(TaxonomyTest, SingleConceptBecomesRoot) {
  NodeId n = Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  EXPECT_EQ(tax_.num_nodes(), 1u);
  EXPECT_TRUE(tax_.roots().count(n));
  EXPECT_TRUE(tax_.Parents(n).empty());
}

TEST_F(TaxonomyTest, ChildUnderParent) {
  NodeId a = Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  NodeId b = Insert("B", "(PRIMITIVE A b)");
  EXPECT_TRUE(tax_.Parents(b).count(a));
  EXPECT_TRUE(tax_.Children(a).count(b));
  EXPECT_FALSE(tax_.roots().count(b));
}

TEST_F(TaxonomyTest, EquivalentDefinitionsShareNode) {
  Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  NodeId c1 = Insert("C1", "(AND A (AT-LEAST 1 r) (AT-MOST 1 r))");
  NodeId c2 = Insert("C2", "(AND A (EXACTLY-ONE r))");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(tax_.Synonyms(c1).size(), 2u);
}

TEST_F(TaxonomyTest, SpliceInsertsBetween) {
  NodeId a = Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  NodeId c = Insert("C", "(AND A (AT-LEAST 2 r))");
  // C is below A directly.
  ASSERT_TRUE(tax_.Parents(c).count(a));
  // Insert B between them: A < B < C.
  NodeId b = Insert("B", "(AND A (AT-LEAST 1 r))");
  EXPECT_TRUE(tax_.Parents(b).count(a));
  EXPECT_TRUE(tax_.Children(b).count(c));
  // The direct A->C edge must be gone.
  EXPECT_FALSE(tax_.Children(a).count(c));
  EXPECT_FALSE(tax_.Parents(c).count(a));
}

TEST_F(TaxonomyTest, MultipleParents) {
  NodeId a = Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  NodeId b = Insert("B", "(PRIMITIVE CLASSIC-THING b)");
  NodeId ab = Insert("AB", "(AND A B)");
  EXPECT_TRUE(tax_.Parents(ab).count(a));
  EXPECT_TRUE(tax_.Parents(ab).count(b));
}

TEST_F(TaxonomyTest, AncestorsAndDescendants) {
  NodeId a = Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  NodeId b = Insert("B", "(PRIMITIVE A b)");
  NodeId c = Insert("C", "(PRIMITIVE B c)");
  auto anc = tax_.Ancestors(c);
  EXPECT_EQ(anc.size(), 2u);
  auto desc = tax_.Descendants(a);
  EXPECT_EQ(desc.size(), 2u);
  EXPECT_TRUE(tax_.Ancestors(a).empty());
  EXPECT_TRUE(tax_.Descendants(c).empty());
  (void)b;
}

TEST_F(TaxonomyTest, ClassifyWithoutInsert) {
  Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  Insert("B", "(AND A (AT-LEAST 1 r))");
  Classification cls = tax_.Classify(*NF("(AND A (AT-LEAST 2 r))"));
  ASSERT_EQ(cls.parents.size(), 1u);
  EXPECT_EQ(tax_.Synonyms(cls.parents[0])[0], 1u);  // B
  EXPECT_FALSE(cls.equivalent.has_value());
}

TEST_F(TaxonomyTest, ClassifyDetectsEquivalent) {
  Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  Insert("B", "(AND A (AT-LEAST 1 r))");
  Classification cls = tax_.Classify(*NF("(AND A (AT-LEAST 1 r))"));
  ASSERT_TRUE(cls.equivalent.has_value());
}

TEST_F(TaxonomyTest, ClassifyFindsChildren) {
  Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  Insert("C", "(AND A (AT-LEAST 3 r))");
  Classification cls = tax_.Classify(*NF("(AND A (AT-LEAST 1 r))"));
  ASSERT_EQ(cls.children.size(), 1u);  // C is a subsumee
}

TEST_F(TaxonomyTest, DoubleInsertRejected) {
  ConceptId cid = Define("A", "(PRIMITIVE CLASSIC-THING a)");
  ASSERT_TRUE(tax_.Insert(cid).ok());
  EXPECT_TRUE(tax_.Insert(cid).status().IsAlreadyExists());
}

TEST_F(TaxonomyTest, DeepChainClassificationPrunes) {
  // Build a chain A0 > A1 > ... > A9 plus unrelated siblings; classifying
  // something under A9 should not need to test the whole sibling family.
  Insert("A0", "(PRIMITIVE CLASSIC-THING a0)");
  for (int i = 1; i < 10; ++i) {
    Insert("A" + std::to_string(i),
           "(PRIMITIVE A" + std::to_string(i - 1) + " a" + std::to_string(i) +
               ")");
  }
  for (int i = 0; i < 20; ++i) {
    Insert("S" + std::to_string(i),
           "(PRIMITIVE CLASSIC-THING sib" + std::to_string(i) + ")");
  }
  Classification cls = tax_.Classify(*NF("(AND A9 (AT-LEAST 1 r))"));
  ASSERT_EQ(cls.parents.size(), 1u);
  // Full pairwise would be 30 nodes x 2 directions; pruning touches the
  // chain plus the root layer once each.
  EXPECT_LT(cls.subsumption_tests, 45u);
}

TEST_F(TaxonomyTest, AncestorIndexMatchesGraphSearch) {
  // Build a DAG with splicing and multi-parents, then verify the
  // incrementally-maintained ancestor index against a BFS ground truth.
  Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  Insert("B", "(PRIMITIVE CLASSIC-THING b)");
  Insert("AB", "(AND A B)");
  Insert("A2", "(AND A (AT-LEAST 2 r))");
  Insert("A1", "(AND A (AT-LEAST 1 r))");  // splices between A and A2
  Insert("ABX", "(AND A B (AT-LEAST 1 s))");
  for (NodeId n = 0; n < tax_.num_nodes(); ++n) {
    // Ground truth by BFS over parent edges.
    std::set<NodeId> truth;
    std::vector<NodeId> stack(tax_.Parents(n).begin(),
                              tax_.Parents(n).end());
    while (!stack.empty()) {
      NodeId p = stack.back();
      stack.pop_back();
      if (!truth.insert(p).second) continue;
      stack.insert(stack.end(), tax_.Parents(p).begin(),
                   tax_.Parents(p).end());
    }
    std::vector<NodeId> expected(truth.begin(), truth.end());
    EXPECT_EQ(tax_.Ancestors(n), expected) << "node " << n;
    for (NodeId a = 0; a < tax_.num_nodes(); ++a) {
      EXPECT_EQ(tax_.IsAncestor(a, n), truth.count(a) > 0)
          << a << " vs " << n;
    }
  }
}

TEST_F(TaxonomyTest, IncoherentConceptSitsAtBottom) {
  NodeId a = Insert("A", "(PRIMITIVE CLASSIC-THING a)");
  NodeId b = Insert("B", "(PRIMITIVE CLASSIC-THING b)");
  NodeId bot = Insert("BOT", "(AND (AT-LEAST 1 r) (AT-MOST 0 r))");
  // Bottom is subsumed by every leaf.
  EXPECT_TRUE(tax_.Parents(bot).count(a));
  EXPECT_TRUE(tax_.Parents(bot).count(b));
}

// A counter bound on a point ask (the paper's claim that inference cost
// follows concept sizes, not the schema's). A first-time
// (AND PRIM-0 (FILLS role0 Ind-k)) lists a filler no schema concept
// lists, so it subsumes no node: its classification computes only the
// top-down tests below PRIM-0's first layer, and the memo grows by no
// more, at 256 concepts and at 1024 alike. A search of PRIM-0's subtree
// computes about one test per node.
TEST(TaxonomyCounterBoundTest, FirstPointAskComputesFewTests) {
  for (size_t concepts : {size_t{256}, size_t{1024}}) {
    Database db;
    bench::BuildStandardWorkload(&db, concepts, 64);
    const Taxonomy& tax = db.kb().taxonomy();
    for (int k : {0, 17, 63}) {
      const std::string text =
          StrCat("(AND PRIM-0 (FILLS role0 Ind-", k, "))");
      auto d = ParseDescriptionString(text, &db.kb().vocab().symbols());
      ASSERT_TRUE(d.ok()) << text;
      auto nf = db.kb().normalizer().NormalizeConcept(*d);
      ASSERT_TRUE(nf.ok()) << text;
      const size_t memo_before = tax.subsumption_index()->size();
      const Classification cls = tax.Classify(**nf);
      const size_t memo_growth =
          tax.subsumption_index()->size() - memo_before;
      EXPECT_LT(cls.subsumption_tests, 32u) << concepts << " " << text;
      EXPECT_LT(memo_growth, 32u) << concepts << " " << text;
      EXPECT_EQ(cls.parents.size(), 1u) << concepts << " " << text;
    }
  }
}

}  // namespace
}  // namespace classic
