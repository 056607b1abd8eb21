// Differential test for the taxonomy's downward walk, against brute force.
//
// Classify and realization search only the part of the DAG a
// subsumption-pruned walk reaches. This harness recomputes both answers
// on a generated standard-workload KB by deciding every node, with no
// DAG walk (the uncached structural Subsumes for classification,
// Satisfies for realization), and requires exact agreement:
//
//  - Classify: the parents are the most specific of all nodes that
//    subsume the query, the equivalent node is the parent the query
//    subsumes, and the children are the most general of all nodes the
//    query subsumes (the equivalent node aside). Queries are every named
//    concept's own form plus seeded queries of the wire benchmark's
//    shapes: DEF names, (AND PRIM-i (AT-LEAST 1 role)) and
//    (AND <root primitive> (FILLS role Ind)).
//  - Realization: every individual's subsumer_nodes is exactly the set of
//    nodes it Satisfies, and its msc is the most specific of that set.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "classic/database.h"
#include "desc/parser.h"
#include "subsume/subsume.h"
#include "taxonomy/taxonomy.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic {
namespace {

constexpr size_t kConcepts = 256;
constexpr size_t kIndividuals = 512;
constexpr size_t kSeededQueries = 300;

/// Every node-pair verdict, computed once per KB: general[a][b] is
/// "node a's form subsumes node b's form".
std::vector<std::vector<bool>> NodeVerdicts(const Taxonomy& tax) {
  const size_t n = tax.num_nodes();
  std::vector<std::vector<bool>> out(n, std::vector<bool>(n, false));
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      out[a][b] = Subsumes(*tax.NodeForm(a), *tax.NodeForm(b));
    }
  }
  return out;
}

/// The members of `set` that no other member lies below.
std::set<NodeId> MostSpecific(const std::set<NodeId>& set,
                              const std::vector<std::vector<bool>>& general) {
  std::set<NodeId> out;
  for (NodeId a : set) {
    bool most_specific = true;
    for (NodeId b : set) {
      if (a != b && general[a][b]) most_specific = false;
    }
    if (most_specific) out.insert(a);
  }
  return out;
}

/// The members of `set` that no other member lies above.
std::set<NodeId> MostGeneral(const std::set<NodeId>& set,
                             const std::vector<std::vector<bool>>& general) {
  std::set<NodeId> out;
  for (NodeId a : set) {
    bool most_general = true;
    for (NodeId b : set) {
      if (a != b && general[b][a]) most_general = false;
    }
    if (most_general) out.insert(a);
  }
  return out;
}

/// The all-nodes reference classification of `nf`.
Classification ReferenceClassify(
    const Taxonomy& tax, const NormalForm& nf,
    const std::vector<std::vector<bool>>& general) {
  std::set<NodeId> subsumers;
  std::set<NodeId> subsumees;
  for (NodeId node = 0; node < tax.num_nodes(); ++node) {
    if (Subsumes(*tax.NodeForm(node), nf)) subsumers.insert(node);
    if (Subsumes(nf, *tax.NodeForm(node))) subsumees.insert(node);
  }
  Classification out;
  for (NodeId p : MostSpecific(subsumers, general)) {
    out.parents.push_back(p);
    if (subsumees.count(p) > 0) out.equivalent = p;
  }
  if (out.equivalent) subsumees.erase(*out.equivalent);
  for (NodeId c : MostGeneral(subsumees, general)) out.children.push_back(c);
  return out;
}

class ClassifyReferenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    workload_ = bench::BuildStandardWorkload(&db_, kConcepts, kIndividuals,
                                             GetParam());
    general_ = NodeVerdicts(db_.kb().taxonomy());
  }

  NormalFormPtr Normalize(const std::string& text) {
    auto d = ParseDescriptionString(text, &db_.kb().vocab().symbols());
    EXPECT_TRUE(d.ok()) << text << ": " << d.status().ToString();
    if (!d.ok()) return nullptr;
    auto nf = db_.kb().normalizer().NormalizeConcept(*d);
    EXPECT_TRUE(nf.ok()) << text << ": " << nf.status().ToString();
    return nf.ok() ? *nf : nullptr;
  }

  void ExpectMatchesReference(const NormalForm& nf, const std::string& what) {
    const Taxonomy& tax = db_.kb().taxonomy();
    const Classification got = tax.Classify(nf);
    const Classification want = ReferenceClassify(tax, nf, general_);
    EXPECT_EQ(got.parents, want.parents) << what;
    EXPECT_EQ(got.children, want.children) << what;
    EXPECT_EQ(got.equivalent, want.equivalent) << what;
  }

  Database db_;
  bench::StandardWorkload workload_;
  std::vector<std::vector<bool>> general_;
};

TEST_P(ClassifyReferenceTest, NamedConceptsClassifyOntoTheirOwnNode) {
  const KnowledgeBase& kb = db_.kb();
  const Vocabulary& vocab = kb.vocab();
  size_t checked = 0;
  for (ConceptId cid = 0; cid < vocab.num_concepts(); ++cid) {
    Result<NodeId> node = kb.taxonomy().NodeOf(cid);
    if (!node.ok()) continue;
    const NormalForm& nf = *vocab.concept_info(cid).normal_form;
    ExpectMatchesReference(nf, vocab.symbols().Name(
                                   vocab.concept_info(cid).name));
    EXPECT_EQ(kb.taxonomy().Classify(nf).equivalent, *node);
    ++checked;
  }
  EXPECT_GE(checked, kConcepts);
}

TEST_P(ClassifyReferenceTest, BenchmarkQueryShapesMatchBruteForce) {
  const bench::SchemaHandles& schema = workload_.schema;
  Rng rng(GetParam() * 7919 + 1);
  auto pick = [&rng](const std::vector<std::string>& v) -> const std::string& {
    return v[rng.Below(v.size())];
  };
  size_t with_children = 0;
  for (size_t i = 0; i < kSeededQueries; ++i) {
    std::string text;
    switch (i % 3) {
      case 0:
        text = pick(schema.defined_names);
        break;
      case 1:
        text = StrCat("(AND ", pick(schema.primitive_names), " (AT-LEAST 1 ",
                      pick(schema.role_names), "))");
        break;
      case 2:
        text = StrCat("(AND ", schema.primitive_names[0], " (FILLS ",
                      pick(schema.role_names), " ", pick(workload_.individuals),
                      "))");
        break;
    }
    NormalFormPtr nf = Normalize(text);
    ASSERT_NE(nf, nullptr);
    ExpectMatchesReference(*nf, text);
    if (!db_.kb().taxonomy().Classify(*nf).children.empty()) ++with_children;
  }
  // The downward phase found subsumees for some queries, not none.
  EXPECT_GT(with_children, 0u);
}

TEST_P(ClassifyReferenceTest, RealizationIsEverySatisfiedNode) {
  const KnowledgeBase& kb = db_.kb();
  const Taxonomy& tax = kb.taxonomy();
  size_t recognized = 0;
  for (IndId ind : kb.AllClassicIndividuals()) {
    std::set<NodeId> satisfied;
    for (NodeId node = 0; node < tax.num_nodes(); ++node) {
      if (kb.Satisfies(ind, *tax.NodeForm(node))) satisfied.insert(node);
    }
    const IndividualState& st = kb.state(ind);
    const std::string name = kb.vocab().IndividualName(ind);
    EXPECT_EQ(st.subsumer_nodes, satisfied) << name;
    EXPECT_EQ(st.msc, MostSpecific(satisfied, general_)) << name;
    recognized += satisfied.size();
  }
  EXPECT_GT(recognized, kIndividuals);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifyReferenceTest,
                         ::testing::Values(uint64_t{42}, uint64_t{1989}));

}  // namespace
}  // namespace classic
