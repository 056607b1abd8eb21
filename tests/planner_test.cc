// Filler-inverted index maintenance and the query planner.
//
// The index contract (kb/fills_index.h): postings track exactly the
// *derived* filler relation across assertion, rollback and retraction,
// and every published epoch sees an immutable copy. The planner contract
// (query/planner.h): one access path, whose plan is a function of the KB
// state and the query alone, and whose residual tests never exceed the
// smallest complete source.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "classic/database.h"
#include "kb/fills_index.h"
#include "kb/kb_engine.h"
#include "query/query.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }
  template <typename T>
  T Must(Result<T> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  void SetUp() override {
    Must(db_.DefineRole("enrolled-at"));
    Must(db_.DefineRole("age"));
    Must(db_.DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING person)"));
    Must(db_.DefineConcept("SCHOOL", "(PRIMITIVE CLASSIC-THING school)"));
    Must(db_.CreateIndividual("MIT", "SCHOOL"));
    Must(db_.CreateIndividual("Oberlin", "SCHOOL"));
    for (int i = 0; i < 8; ++i) {
      Must(db_.CreateIndividual(StrCat("P", i), "PERSON"));
    }
  }

  RoleId Role(const std::string& name) {
    Symbol s = db_.kb().vocab().symbols().Lookup(name);
    return Must(db_.kb().vocab().FindRole(s));
  }

  Database db_;
};

TEST_F(PlannerTest, PostingsTrackDerivedFillers) {
  Must(db_.AssertInd("P0", "(FILLS enrolled-at MIT)"));
  Must(db_.AssertInd("P1", "(FILLS enrolled-at MIT)"));
  Must(db_.AssertInd("P2", "(FILLS enrolled-at Oberlin)"));

  const IndId mit = Must(db_.FindIndividual("MIT"));
  const IndId p0 = Must(db_.FindIndividual("P0"));
  const IndId p1 = Must(db_.FindIndividual("P1"));
  const std::span<const IndId> postings =
      db_.kb().fills_index().Postings(Role("enrolled-at"), mit);
  EXPECT_EQ(std::vector<IndId>(postings.begin(), postings.end()),
            (std::vector<IndId>{p0, p1}));
}

TEST_F(PlannerTest, RejectedUpdateRollsPostingsBack) {
  // Close the role at zero, then try to fill it: the update is rejected
  // and every posting the propagation added must be rolled back.
  Must(db_.AssertInd("P3", "(AT-MOST 0 enrolled-at)"));
  Status st = db_.AssertInd("P3", "(FILLS enrolled-at MIT)");
  EXPECT_FALSE(st.ok());

  const IndId mit = Must(db_.FindIndividual("MIT"));
  const IndId p3 = Must(db_.FindIndividual("P3"));
  const std::span<const IndId> postings =
      db_.kb().fills_index().Postings(Role("enrolled-at"), mit);
  EXPECT_EQ(std::count(postings.begin(), postings.end(), p3), 0);
}

TEST_F(PlannerTest, MultisetRetractionRebuildsIndex) {
  // Told state is a multiset: asserting the same filler twice takes two
  // retractions to disappear. The index is rebuilt by RederiveAll, so it
  // follows the derived state exactly.
  Must(db_.AssertInd("P4", "(FILLS enrolled-at MIT)"));
  Must(db_.AssertInd("P4", "(FILLS enrolled-at MIT)"));
  const IndId mit = Must(db_.FindIndividual("MIT"));
  const IndId p4 = Must(db_.FindIndividual("P4"));
  const RoleId enrolled = Role("enrolled-at");

  Must(db_.RetractInd("P4", "(FILLS enrolled-at MIT)"));
  std::span<const IndId> postings =
      db_.kb().fills_index().Postings(enrolled, mit);
  EXPECT_EQ(std::count(postings.begin(), postings.end(), p4), 1)
      << "one told copy should remain";

  Must(db_.RetractInd("P4", "(FILLS enrolled-at MIT)"));
  postings = db_.kb().fills_index().Postings(enrolled, mit);
  EXPECT_EQ(std::count(postings.begin(), postings.end(), p4), 0);
}

TEST_F(PlannerTest, PublishedEpochsSeeImmutableIndex) {
  Must(db_.AssertInd("P0", "(FILLS enrolled-at MIT)"));
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  SnapshotPtr epoch1 = engine.PublishFrom(db_.kb());

  Must(db_.AssertInd("P1", "(FILLS enrolled-at MIT)"));
  SnapshotPtr epoch2 = engine.PublishFrom(db_.kb());

  const IndId mit = Must(db_.FindIndividual("MIT"));
  const IndId p1 = Must(db_.FindIndividual("P1"));
  const RoleId enrolled = Role("enrolled-at");
  const std::span<const IndId> old_postings =
      epoch1->kb().fills_index().Postings(enrolled, mit);
  EXPECT_EQ(old_postings.size(), 1u);
  EXPECT_EQ(std::count(old_postings.begin(), old_postings.end(), p1), 0)
      << "the epoch published before P1's assertion must not see it";
  const std::span<const IndId> new_postings =
      epoch2->kb().fills_index().Postings(enrolled, mit);
  EXPECT_EQ(new_postings.size(), 2u);
}

TEST_F(PlannerTest, PlanPinnedForEachBaseKind) {
  Must(db_.AssertInd("P0", "(FILLS enrolled-at MIT)"));
  Must(db_.AssertInd("P1", "(FILLS enrolled-at MIT)"));
  Must(db_.AssertInd("P3", "(FILLS enrolled-at MIT)"));
  Must(db_.AssertInd("P2", "(FILLS enrolled-at Oberlin)"));
  struct Case {
    const char* query;
    const char* plan;
    std::vector<std::string> answers;
  };
  // The smallest source is the base (the first in gather order on a
  // tie) and the other sources follow it in gather order: parents,
  // postings, enumeration. With no source the visible bound is scanned.
  const Case cases[] = {
      // A posting base, filtered by the parent.
      {"(AND PERSON (FILLS enrolled-at MIT))",
       "(plan ask (concept est=3 act=3 (satisfies-filter est=1 act=3 "
       "(intersect est=3 act=3 (fills-postings enrolled-at MIT est=3) "
       "(taxonomy-instances PERSON est=8)))))",
       {"P0", "P1", "P3"}},
      // A parent base, filtered by the posting: both schools are rejected
      // before the residual test.
      {"(AND SCHOOL (FILLS enrolled-at MIT))",
       "(plan ask (concept est=3 act=0 (satisfies-filter est=1 act=0 "
       "(intersect est=2 act=0 (taxonomy-instances SCHOOL est=2) "
       "(fills-postings enrolled-at MIT est=3)))))",
       {}},
      // An enumeration base, filtered by the parent: MIT is rejected.
      {"(AND PERSON (ONE-OF P0 P5 MIT))",
       "(plan ask (concept est=0 act=2 (satisfies-filter est=0 act=2 "
       "(intersect est=3 act=2 (enumeration est=3) "
       "(taxonomy-instances PERSON est=8)))))",
       {"P0", "P5"}},
      // No complete source: every visible individual is tested.
      {"(AT-LEAST 1 enrolled-at)",
       "(plan ask (concept est=5 act=4 (satisfies-filter est=5 act=4 "
       "(full-scan est=10 act=10))))",
       {"P0", "P1", "P2", "P3"}},
  };
  for (const Case& c : cases) {
    QueryAnswer a =
        KbEngine::ServeQuery(db_.kb(), QueryRequest::Ask(c.query).Explain());
    ASSERT_TRUE(a.status.ok()) << c.query << ": " << a.status.ToString();
    ASSERT_FALSE(a.values.empty()) << c.query;
    EXPECT_EQ(*a.values.begin(), c.plan) << c.query;
    EXPECT_EQ(std::vector<std::string>(++a.values.begin(), a.values.end()),
              c.answers)
        << c.query;
  }
}

// A plan reads only the KB state and the query: serving other queries in
// between (which moves every process-wide counter, the subsumption memo's
// hit rate included) must not change it.
TEST(PlannerDeterminismTest, PlanDoesNotDependOnServedHistory) {
  Database db;
  ASSERT_TRUE(db.DefineRole("enrolled-at").ok());
  ASSERT_TRUE(
      db.DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING person)").ok());
  ASSERT_TRUE(db.CreateIndividual("MIT").ok());
  ASSERT_TRUE(db.CreateIndividual("P0", "PERSON").ok());
  ASSERT_TRUE(db.CreateIndividual("P1", "PERSON").ok());
  ASSERT_TRUE(db.AssertInd("P0", "(FILLS enrolled-at MIT)").ok());
  const QueryRequest explained =
      QueryRequest::Ask("(AND PERSON (FILLS enrolled-at MIT))").Explain();

  const QueryAnswer before = KbEngine::ServeQuery(db.kb(), explained);
  const QueryRequest other =
      QueryRequest::Ask("(AND PERSON (AT-LEAST 1 enrolled-at))");
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(KbEngine::ServeQuery(db.kb(), other).status.ok());
  }
  const QueryAnswer after = KbEngine::ServeQuery(db.kb(), explained);

  ASSERT_TRUE(before.status.ok()) << before.status.ToString();
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  ASSERT_FALSE(before.values.empty());
  EXPECT_EQ(after.values, before.values);
  EXPECT_EQ(*before.values.begin(),
            "(plan ask (concept est=1 act=1 (satisfies-filter est=0 act=1 "
            "(intersect est=1 act=1 (fills-postings enrolled-at MIT est=1) "
            "(taxonomy-instances PERSON est=2)))))");
}

// The paper's predictability claim for a selective ask, on counters that
// do not depend on CLASSIC_OBS: however many individuals the KB holds,
// (AND PRIM-1 (FILLS role0 Ind-k)) tests no more candidates than the
// posting list of (role0, Ind-k) holds.
TEST(PlannerCounterBoundTest, SelectiveAskTestsAtMostItsPosting) {
  for (size_t individuals : {size_t{1000}, size_t{4000}}) {
    Database db;
    bench::BuildStandardWorkload(&db, /*num_concepts=*/120, individuals);
    const KnowledgeBase& kb = db.kb();
    const RoleId role0 =
        *kb.vocab().FindRole(kb.vocab().symbols().Lookup("role0"));
    const NodeId prim1 = *kb.taxonomy().NodeOf(
        *kb.vocab().FindConcept(kb.vocab().symbols().Lookup("PRIM-1")));
    size_t below_extension = 0;
    for (size_t k : {size_t{0}, size_t{1}, individuals / 2}) {
      const std::string name = StrCat("Ind-", k);
      const std::string text =
          StrCat("(AND PRIM-1 (FILLS role0 ", name, "))");
      auto q = ParseQueryString(text, &kb.vocab().symbols());
      ASSERT_TRUE(q.ok()) << text;
      auto r = Retrieve(kb, *q);
      ASSERT_TRUE(r.ok()) << text;
      const size_t posting_size =
          kb.fills_index().Postings(role0, *db.FindIndividual(name)).size();
      EXPECT_LE(r->stats.candidates_tested, posting_size)
          << individuals << " individuals: " << text;
      if (posting_size > 0 && posting_size < kb.Instances(prim1).Count()) {
        ++below_extension;
      }
    }
    // The bound says something only where the parent's extension is
    // larger than the posting.
    EXPECT_GT(below_extension, 0u) << individuals;
  }
}

TEST_F(PlannerTest, ExplainPrependsPlanWithoutChangingAnswers) {
  Must(db_.AssertInd("P0", "(FILLS enrolled-at MIT)"));
  const QueryRequest plain = QueryRequest::Ask("PERSON");
  const QueryRequest explained = QueryRequest::Ask("PERSON").Explain();

  QueryAnswer base = KbEngine::ServeQuery(db_.kb(), plain);
  QueryAnswer exp = KbEngine::ServeQuery(db_.kb(), explained);
  ASSERT_TRUE(exp.status.ok()) << exp.status.ToString();
  ASSERT_EQ(exp.values.size(), base.values.size() + 1);
  const std::string plan = *exp.values.begin();
  EXPECT_EQ(plan.rfind("(plan ask ", 0), 0u) << plan;
  EXPECT_EQ(std::vector<std::string>(++exp.values.begin(), exp.values.end()),
            base.values.ToVector());
}

TEST_F(PlannerTest, ExplainCoversEveryRequestKind) {
  Must(db_.AssertInd("P0", "(FILLS enrolled-at MIT)"));
  const std::vector<QueryRequest> requests = {
      QueryRequest::Ask("PERSON").Explain(),
      QueryRequest::AskPossible("PERSON").Explain(),
      QueryRequest::AskDescription("PERSON").Explain(),
      QueryRequest::PathQuery(
          "(select (?x) (?x PERSON) (?x enrolled-at MIT))")
          .Explain(),
      QueryRequest::DescribeIndividual("P0").Explain(),
      QueryRequest::MostSpecificConcepts("P0").Explain(),
      QueryRequest::InstancesOf("PERSON").Explain(),
  };
  for (const QueryRequest& r : requests) {
    QueryAnswer a = KbEngine::ServeQuery(db_.kb(), r);
    ASSERT_TRUE(a.status.ok()) << QueryKindName(r.kind) << ": "
                               << a.status.ToString();
    ASSERT_FALSE(a.values.empty()) << QueryKindName(r.kind);
    const std::string plan = *a.values.begin();
    EXPECT_EQ(plan.rfind(StrCat("(plan ", QueryKindName(r.kind)), 0), 0u)
        << plan;
  }
}

TEST_F(PlannerTest, MarkerQueriesWrapPlanInWalkNodes) {
  Must(db_.AssertInd("P0", "(FILLS enrolled-at MIT)"));
  QueryAnswer a = KbEngine::ServeQuery(
      db_.kb(),
      QueryRequest::Ask("(AND PERSON (ALL enrolled-at ?:SCHOOL))").Explain());
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_FALSE(a.values.empty());
  const std::string plan = *a.values.begin();
  EXPECT_NE(plan.find("(marker-walk enrolled-at"), std::string::npos) << plan;
}

}  // namespace
}  // namespace classic
