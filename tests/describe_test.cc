// Tests for the intensional-answer machinery: CloseConcept fixed points,
// multi-level marked descriptions, and rule interactions; and for the
// renderer answers print with, NormalForm::ToString, against the text of
// the Description that ToDescription builds.

#include <gtest/gtest.h>

#include <filesystem>

#include "classic/database.h"
#include "query/describe.h"
#include "workload.h"

#ifndef CLASSIC_EXAMPLES_DIR
#define CLASSIC_EXAMPLES_DIR "examples"
#endif

namespace classic {
namespace {

class DescribeTest : public ::testing::Test {
 protected:
  void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }
  template <typename T>
  T Must(Result<T> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  NormalFormPtr NF(const std::string& text) {
    auto d = ParseDescriptionString(text, &db_.kb().vocab().symbols());
    EXPECT_TRUE(d.ok());
    auto nf = db_.kb().normalizer().NormalizeConcept(*d);
    EXPECT_TRUE(nf.ok());
    return *nf;
  }

  void SetUp() override {
    Must(db_.DefineRole("r"));
    Must(db_.DefineRole("s"));
    Must(db_.DefineConcept("A", "(PRIMITIVE CLASSIC-THING aa)"));
    Must(db_.DefineConcept("B", "(PRIMITIVE CLASSIC-THING bb)"));
    Must(db_.DefineConcept("C", "(PRIMITIVE CLASSIC-THING cc)"));
  }

  Database db_;
};

TEST_F(DescribeTest, CloseConceptAppliesSubsumingRules) {
  Must(db_.AssertRule("A", "B"));
  auto closed = CloseConcept(db_.kb(), NF("A"));
  ASSERT_TRUE(closed.ok());
  // A's closure includes B's primitive.
  EXPECT_NE((*closed)->ToString(db_.kb().vocab()).find("bb"),
            std::string::npos);
}

TEST_F(DescribeTest, CloseConceptReachesFixedPointThroughCycles) {
  // A -> B and B -> A: the closure must terminate with both primitives.
  Must(db_.AssertRule("A", "B"));
  Must(db_.AssertRule("B", "A"));
  auto closed = CloseConcept(db_.kb(), NF("A"));
  ASSERT_TRUE(closed.ok());
  std::string text = (*closed)->ToString(db_.kb().vocab());
  EXPECT_NE(text.find("aa"), std::string::npos);
  EXPECT_NE(text.find("bb"), std::string::npos);
}

TEST_F(DescribeTest, CloseConceptChainsRules) {
  Must(db_.AssertRule("A", "B"));
  Must(db_.AssertRule("B", "C"));
  auto closed = CloseConcept(db_.kb(), NF("A"));
  ASSERT_TRUE(closed.ok());
  EXPECT_NE((*closed)->ToString(db_.kb().vocab()).find("cc"),
            std::string::npos);
}

TEST_F(DescribeTest, RulesOnAncestorsApply) {
  // Rule on A; query concept is strictly below A.
  Must(db_.AssertRule("A", "(AT-LEAST 1 s)"));
  auto closed = CloseConcept(db_.kb(), NF("(AND A B)"));
  ASSERT_TRUE(closed.ok());
  EXPECT_GE((*closed)->role(*db_.kb().vocab().FindRole(
                db_.kb().vocab().symbols().Lookup("s")))
                .at_least,
            1u);
}

TEST_F(DescribeTest, RulesOnUnrelatedConceptsDoNotApply) {
  Must(db_.AssertRule("B", "C"));
  auto closed = CloseConcept(db_.kb(), NF("A"));
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ((*closed)->ToString(db_.kb().vocab()).find("cc"),
            std::string::npos);
}

TEST_F(DescribeTest, TwoLevelMarkedDescription) {
  // What is necessarily true of the s-fillers of the r-fillers of an A,
  // given nested ALL restrictions?
  Must(db_.DefineConcept(
      "NESTED", "(AND A (ALL r (AND B (ALL s C))))"));
  auto& symbols = db_.kb().vocab().symbols();
  auto q = ParseQueryString("(AND NESTED (ALL r (ALL s ?:THING)))",
                            &symbols);
  ASSERT_TRUE(q.ok());
  auto a = AskDescription(db_.kb(), *q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  std::string d = a->normal_form->ToString(db_.kb().vocab());
  EXPECT_NE(d.find("cc"), std::string::npos) << d;
}

TEST_F(DescribeTest, MarkedDescriptionMergesLevelConstraints) {
  auto& symbols = db_.kb().vocab().symbols();
  // The marked position carries its own constraint, met with the derived
  // restriction.
  Must(db_.DefineConcept("HOLDER", "(AND A (ALL r B))"));
  auto q = ParseQueryString("(AND HOLDER (ALL r ?:C))", &symbols);
  ASSERT_TRUE(q.ok());
  auto a = AskDescription(db_.kb(), *q);
  ASSERT_TRUE(a.ok());
  std::string d = a->normal_form->ToString(db_.kb().vocab());
  EXPECT_NE(d.find("bb"), std::string::npos) << d;
  EXPECT_NE(d.find("cc"), std::string::npos) << d;
}

TEST_F(DescribeTest, UnmarkedDescriptionNamesMsc) {
  auto& symbols = db_.kb().vocab().symbols();
  Must(db_.DefineConcept("AB", "(AND A B)"));
  auto q = ParseQueryString("(AND A B)", &symbols);
  ASSERT_TRUE(q.ok());
  auto a = AskDescription(db_.kb(), *q);
  ASSERT_TRUE(a.ok());
  bool has_ab = false;
  for (const auto& n : a->msc_names) has_ab |= (n == "AB");
  EXPECT_TRUE(has_ab);
}

TEST_F(DescribeTest, SingletonClosureUsesClosedRoleFillers) {
  Must(db_.CreateIndividual("X", "A"));
  Must(db_.CreateIndividual("Y", "B"));
  Must(db_.AssertInd("X", "(FILLS r Y)"));
  Must(db_.AssertInd("X", "(CLOSE r)"));
  auto& symbols = db_.kb().vocab().symbols();
  auto q = ParseQueryString("(AND (ONE-OF X) (ALL r ?:THING))", &symbols);
  ASSERT_TRUE(q.ok());
  auto a = AskDescription(db_.kb(), *q);
  ASSERT_TRUE(a.ok());
  // The sole possible answer is Y, so Y's state (it is a B) is necessary.
  std::string d = a->normal_form->ToString(db_.kb().vocab());
  EXPECT_NE(d.find("bb"), std::string::npos) << d;
}

/// Every derived state and every concept of `kb` renders to the text of
/// its Description.
void ExpectRenderingsMatchDescriptions(const KnowledgeBase& kb,
                                       const std::string& where) {
  const Vocabulary& vocab = kb.vocab();
  size_t compared = 0;
  auto compare = [&](const NormalForm& nf, const std::string& what) {
    EXPECT_EQ(nf.ToString(vocab),
              nf.ToDescription(vocab)->ToString(vocab.symbols()))
        << where << ": " << what;
    ++compared;
  };
  for (IndId i : kb.AllClassicIndividuals()) {
    compare(*kb.state(i).derived, vocab.IndividualName(i));
  }
  for (ConceptId c = 0; c < vocab.num_concepts(); ++c) {
    const ConceptInfo& info = vocab.concept_info(c);
    compare(*info.normal_form, vocab.symbols().Name(info.name));
  }
  EXPECT_GT(compared, 0u) << where;
}

TEST(RenderTest, StandardWorkloadRendersAsItsDescriptions) {
  Database db;
  bench::BuildStandardWorkload(&db, /*num_concepts=*/120,
                               /*num_individuals=*/1000, /*seed=*/7);
  ExpectRenderingsMatchDescriptions(db.kb(), "standard workload");
}

TEST(RenderTest, ExamplesRenderAsTheirDescriptions) {
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CLASSIC_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".classic") continue;
    Database db;
    Status st = db.LoadFile(entry.path().string());
    ASSERT_TRUE(st.ok()) << entry.path() << ": " << st.ToString();
    ExpectRenderingsMatchDescriptions(db.kb(), entry.path().string());
    ++files;
  }
  EXPECT_GE(files, 2u);
}

}  // namespace
}  // namespace classic
