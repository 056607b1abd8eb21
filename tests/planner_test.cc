// Filler-inverted index maintenance and the query planner.
//
// The index contract (kb/fills_index.h): postings track exactly the
// *derived* filler relation across assertion, rollback and retraction,
// and every published epoch sees an immutable copy. The planner contract
// (query/planner.h): answers are byte-identical under every access-path
// mode; only the plan (and the work counters) may differ.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "classic/database.h"
#include "kb/fills_index.h"
#include "kb/kb_engine.h"
#include "query/planner.h"
#include "util/string_util.h"

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
    planner::SetMode(planner::Mode::kAuto);
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

  void TearDown() override { planner::SetMode(planner::Mode::kAuto); }

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
  const auto* postings = db_.kb().fills_index().Postings(Role("enrolled-at"), mit);
  ASSERT_NE(postings, nullptr);
  EXPECT_EQ(postings->size(), 2u);
  EXPECT_TRUE(postings->count(p0));
  EXPECT_TRUE(postings->count(p1));
}

TEST_F(PlannerTest, RejectedUpdateRollsPostingsBack) {
  // Close the role at zero, then try to fill it: the update is rejected
  // and every posting the propagation added must be rolled back.
  Must(db_.AssertInd("P3", "(AT-MOST 0 enrolled-at)"));
  Status st = db_.AssertInd("P3", "(FILLS enrolled-at MIT)");
  EXPECT_FALSE(st.ok());

  const IndId mit = Must(db_.FindIndividual("MIT"));
  const IndId p3 = Must(db_.FindIndividual("P3"));
  const auto* postings = db_.kb().fills_index().Postings(Role("enrolled-at"), mit);
  if (postings != nullptr) {
    EXPECT_EQ(postings->count(p3), 0u);
  }
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
  const auto* postings = db_.kb().fills_index().Postings(enrolled, mit);
  ASSERT_NE(postings, nullptr);
  EXPECT_EQ(postings->count(p4), 1u) << "one told copy should remain";

  Must(db_.RetractInd("P4", "(FILLS enrolled-at MIT)"));
  postings = db_.kb().fills_index().Postings(enrolled, mit);
  if (postings != nullptr) {
    EXPECT_EQ(postings->count(p4), 0u);
  }
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
  const auto* old_postings = epoch1->kb().fills_index().Postings(enrolled, mit);
  ASSERT_NE(old_postings, nullptr);
  EXPECT_EQ(old_postings->size(), 1u);
  EXPECT_EQ(old_postings->count(p1), 0u)
      << "the epoch published before P1's assertion must not see it";
  const auto* new_postings = epoch2->kb().fills_index().Postings(enrolled, mit);
  ASSERT_NE(new_postings, nullptr);
  EXPECT_EQ(new_postings->size(), 2u);
}

TEST_F(PlannerTest, ForcedModesAgreeAndPlansDiffer) {
  Must(db_.AssertInd("P0", "(FILLS enrolled-at MIT)"));
  Must(db_.AssertInd("P1", "(FILLS enrolled-at MIT)"));
  Must(db_.AssertInd("P2", "(FILLS enrolled-at Oberlin)"));
  const QueryRequest plain =
      QueryRequest::Ask("(AND PERSON (FILLS enrolled-at MIT))");
  const QueryRequest explained =
      QueryRequest::Ask("(AND PERSON (FILLS enrolled-at MIT))").Explain();

  planner::SetMode(planner::Mode::kForceIndex);
  QueryAnswer index_ans = KbEngine::ServeQuery(db_.kb(), plain);
  QueryAnswer index_exp = KbEngine::ServeQuery(db_.kb(), explained);
  planner::SetMode(planner::Mode::kForceScan);
  QueryAnswer scan_ans = KbEngine::ServeQuery(db_.kb(), plain);
  QueryAnswer scan_exp = KbEngine::ServeQuery(db_.kb(), explained);
  planner::SetMode(planner::Mode::kAuto);

  // Identical answers, different access paths.
  EXPECT_EQ(index_ans.Canonical(), scan_ans.Canonical());
  ASSERT_EQ(index_ans.values, std::vector<std::string>({"P0", "P1"}));
  ASSERT_FALSE(index_exp.values.empty());
  ASSERT_FALSE(scan_exp.values.empty());
  EXPECT_NE(index_exp.values[0].find("fills-postings"), std::string::npos)
      << index_exp.values[0];
  EXPECT_EQ(scan_exp.values[0].find("fills-postings"), std::string::npos)
      << scan_exp.values[0];
}

TEST_F(PlannerTest, ExplainPrependsPlanWithoutChangingAnswers) {
  Must(db_.AssertInd("P0", "(FILLS enrolled-at MIT)"));
  const QueryRequest plain = QueryRequest::Ask("PERSON");
  const QueryRequest explained = QueryRequest::Ask("PERSON").Explain();

  QueryAnswer base = KbEngine::ServeQuery(db_.kb(), plain);
  QueryAnswer exp = KbEngine::ServeQuery(db_.kb(), explained);
  ASSERT_TRUE(exp.status.ok()) << exp.status.ToString();
  ASSERT_EQ(exp.values.size(), base.values.size() + 1);
  EXPECT_EQ(exp.values[0].rfind("(plan ask ", 0), 0u) << exp.values[0];
  EXPECT_EQ(std::vector<std::string>(exp.values.begin() + 1,
                                     exp.values.end()),
            base.values);
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
    EXPECT_EQ(a.values[0].rfind(StrCat("(plan ", QueryKindName(r.kind)), 0),
              0u)
        << a.values[0];
  }
}

TEST_F(PlannerTest, MarkerQueriesWrapPlanInWalkNodes) {
  Must(db_.AssertInd("P0", "(FILLS enrolled-at MIT)"));
  QueryAnswer a = KbEngine::ServeQuery(
      db_.kb(),
      QueryRequest::Ask("(AND PERSON (ALL enrolled-at ?:SCHOOL))").Explain());
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_FALSE(a.values.empty());
  EXPECT_NE(a.values[0].find("(marker-walk enrolled-at"), std::string::npos)
      << a.values[0];
}

}  // namespace
}  // namespace classic
