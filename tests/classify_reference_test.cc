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
//
// A second KB adds named concepts that list fillers, under primitives at
// depths 0 to 3, and one incoherent concept: the only nodes a query that
// lists a filler can subsume, which Classify's bottom-up phase alone
// probes. Its FILLS queries contain, overlap, extend or miss those
// concepts' filler sets.

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

  /// Checks Classify against the reference; returns Classify's answer.
  Classification ExpectMatchesReference(const NormalForm& nf,
                                        const std::string& what) {
    const Taxonomy& tax = db_.kb().taxonomy();
    const Classification got = tax.Classify(nf);
    const Classification want = ReferenceClassify(tax, nf, general_);
    EXPECT_EQ(got.parents, want.parents) << what;
    EXPECT_EQ(got.children, want.children) << what;
    EXPECT_EQ(got.equivalent, want.equivalent) << what;
    return got;
  }

  /// Every named concept classifies as the reference says, onto its node.
  void ExpectNamedConceptsMatchReference(size_t at_least) {
    const KnowledgeBase& kb = db_.kb();
    const Vocabulary& vocab = kb.vocab();
    size_t checked = 0;
    for (ConceptId cid = 0; cid < vocab.num_concepts(); ++cid) {
      Result<NodeId> node = kb.taxonomy().NodeOf(cid);
      if (!node.ok()) continue;
      const NormalForm& nf = *vocab.concept_info(cid).normal_form;
      const Classification got = ExpectMatchesReference(
          nf, vocab.symbols().Name(vocab.concept_info(cid).name));
      EXPECT_EQ(got.equivalent, *node);
      ++checked;
    }
    EXPECT_GE(checked, at_least);
  }

  /// Every individual's realization is every node it Satisfies.
  void ExpectRealizationMatchesReference() {
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
      EXPECT_EQ(std::set<NodeId>(st.subsumer_nodes.begin(),
                                 st.subsumer_nodes.end()),
                satisfied)
          << name;
      EXPECT_EQ(std::set<NodeId>(st.msc.begin(), st.msc.end()),
                MostSpecific(satisfied, general_))
          << name;
      recognized += satisfied.size();
    }
    EXPECT_GT(recognized, kIndividuals);
  }

  Database db_;
  bench::StandardWorkload workload_;
  std::vector<std::vector<bool>> general_;
};

TEST_P(ClassifyReferenceTest, NamedConceptsClassifyOntoTheirOwnNode) {
  ExpectNamedConceptsMatchReference(kConcepts);
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
    if (!ExpectMatchesReference(*nf, text).children.empty()) ++with_children;
  }
  // The downward phase found subsumees for some queries, not none.
  EXPECT_GT(with_children, 0u);
}

TEST_P(ClassifyReferenceTest, RealizationIsEverySatisfiedNode) {
  ExpectRealizationMatchesReference();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifyReferenceTest,
                         ::testing::Values(uint64_t{42}, uint64_t{1989}));

constexpr size_t kFillerConcepts = 32;
constexpr size_t kFillerQueries = 400;
/// Fillers come from the first individuals only, so filler sets overlap.
constexpr size_t kFillerPool = 8;

/// The standard KB plus kFillerConcepts named concepts
/// (AND PRIM-p (FILLS role f...) ...) with PRIM-p at depth 0 to 3 of the
/// primitive tree, and the incoherent INCOHERENT.
class ClassifyFillerReferenceTest : public ClassifyReferenceTest {
 protected:
  struct FillerConcept {
    size_t prim;
    std::string role;
    std::vector<std::string> fillers;
  };

  void SetUp() override {
    workload_ = bench::BuildStandardWorkload(&db_, kConcepts, kIndividuals,
                                             GetParam());
    const bench::SchemaHandles& schema = workload_.schema;
    Rng rng(GetParam() * 104729 + 3);
    // Depth d of the 4-ary primitive tree holds PRIM-(4^d-1)/3 up to
    // PRIM-(4^(d+1)-1)/3 - 1.
    const size_t depth_begin[] = {0, 1, 5, 21, 85};
    ASSERT_GT(schema.primitive_names.size(), depth_begin[4]);
    for (size_t k = 0; k < kFillerConcepts; ++k) {
      const size_t depth = k % 4;
      FillerConcept c;
      c.prim = depth_begin[depth] +
               rng.Below(depth_begin[depth + 1] - depth_begin[depth]);
      c.role = schema.role_names[rng.Below(3)];
      c.fillers = DistinctFillers(&rng, 1 + rng.Below(3));
      std::string body =
          StrCat("(AND ", schema.primitive_names[c.prim], " (FILLS ", c.role,
                 " ", Join(c.fillers, " "), ")");
      if (rng.Chance(0.3)) {
        body += StrCat(" (FILLS ", schema.role_names[3 + rng.Below(2)], " ",
                       workload_.individuals[rng.Below(kFillerPool)], ")");
      }
      if (rng.Chance(0.3)) {
        body += StrCat(" (AT-LEAST ", 1 + c.fillers.size(), " ", c.role, ")");
      }
      body += ")";
      ASSERT_TRUE(db_.DefineConcept(StrCat("FILLER-", k), body).ok()) << body;
      filler_concepts_.push_back(std::move(c));
    }
    ASSERT_TRUE(db_.DefineConcept("INCOHERENT",
                                  "(AND (AT-LEAST 2 role0) (AT-MOST 1 role0))")
                    .ok());
    general_ = NodeVerdicts(db_.kb().taxonomy());
  }

  /// `n` distinct individuals from the pool, in pool order.
  std::vector<std::string> DistinctFillers(Rng* rng, size_t n) {
    std::set<size_t> picked;
    while (picked.size() < n) picked.insert(rng->Below(kFillerPool));
    std::vector<std::string> out;
    for (size_t i : picked) out.push_back(workload_.individuals[i]);
    return out;
  }

  std::vector<FillerConcept> filler_concepts_;
};

TEST_P(ClassifyFillerReferenceTest, NamedConceptsClassifyOntoTheirOwnNode) {
  ExpectNamedConceptsMatchReference(kConcepts + kFillerConcepts + 1);
}

TEST_P(ClassifyFillerReferenceTest, FillerQueriesMatchBruteForce) {
  const bench::SchemaHandles& schema = workload_.schema;
  const NodeId incoherent = *db_.kb().taxonomy().NodeOf(
      *db_.kb().vocab().FindConcept(
          db_.kb().vocab().symbols().Intern("INCOHERENT")));
  Rng rng(GetParam() * 15485863 + 5);
  size_t without_parents = 0;
  size_t with_equivalent = 0;
  size_t with_filler_children = 0;
  for (size_t i = 0; i < kFillerQueries; ++i) {
    const FillerConcept& c =
        filler_concepts_[rng.Below(filler_concepts_.size())];
    // The query's filler set contains, overlaps, extends or misses c's.
    std::vector<std::string> fillers;
    switch (i % 4) {
      case 0:  // a non-empty subset of c's fillers
        for (const std::string& f : c.fillers) {
          if (fillers.empty() || rng.Chance(0.5)) fillers.push_back(f);
        }
        break;
      case 1:  // one of c's fillers and one other individual
        fillers = {c.fillers[rng.Below(c.fillers.size())],
                   workload_.individuals[rng.Below(kFillerPool)]};
        break;
      case 2:  // all of c's fillers and one more
        fillers = c.fillers;
        fillers.push_back(workload_.individuals[rng.Below(kFillerPool)]);
        break;
      case 3:  // individuals no filler concept lists
        fillers = {workload_.individuals[kFillerPool +
                                         rng.Below(kIndividuals - kFillerPool)]};
        break;
    }
    // Under c's primitive, the root primitive, a random primitive, or no
    // primitive at all (no named node subsumes a bare FILLS).
    std::string text = StrCat("(FILLS ", c.role, " ", Join(fillers, " "),
                              ")");
    switch (rng.Below(4)) {
      case 0:
        text = StrCat("(AND ", schema.primitive_names[c.prim], " ", text, ")");
        break;
      case 1:
        text = StrCat("(AND ", schema.primitive_names[0], " ", text, ")");
        break;
      case 2:
        text = StrCat("(AND ",
                      schema.primitive_names[rng.Below(
                          schema.primitive_names.size())],
                      " ", text, ")");
        break;
      case 3:
        break;
    }
    NormalFormPtr nf = Normalize(text);
    ASSERT_NE(nf, nullptr);
    const Classification got = ExpectMatchesReference(*nf, text);
    if (got.parents.empty()) ++without_parents;
    if (got.equivalent) ++with_equivalent;
    for (NodeId child : got.children) {
      if (child != incoherent) {
        ++with_filler_children;
        break;
      }
    }
  }
  // Every branch ran: the walk from the roots, the equivalence test, and
  // a bottom-up phase that found filler concepts below the parents.
  EXPECT_GT(without_parents, 0u);
  EXPECT_GT(with_equivalent, 0u);
  EXPECT_GT(with_filler_children, 0u);
}

TEST_P(ClassifyFillerReferenceTest, RealizationIsEverySatisfiedNode) {
  ExpectRealizationMatchesReference();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifyFillerReferenceTest,
                         ::testing::Values(uint64_t{42}, uint64_t{1989}));

}  // namespace
}  // namespace classic
