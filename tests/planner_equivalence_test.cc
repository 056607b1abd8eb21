// Differential harness for the planner's core guarantee: answers are
// byte-identical whether retrieval runs through the filler-inverted
// indexes or the taxonomy-pruned scan — across every request kind,
// every batch thread count, and after retraction + republish (including
// as-of queries against earlier epochs).
//
// The argument (query/planner.h): index sources are *complete* candidate
// supersets (derived fillers ⊇ query fillers for FILLS, identity for
// ONE-OF, classification soundness for taxonomy), so index-vs-scan only
// changes which non-answers get filtered before the residual Satisfies
// test. The mode knob is process-wide, so this test serves the same
// requests under each forced mode and compares canonical bytes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "query/planner.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic {
namespace {

std::vector<QueryRequest> MakeRequests(const bench::SchemaHandles& schema,
                                       const std::vector<std::string>& inds,
                                       size_t count, uint64_t seed) {
  Rng rng(seed);
  auto pick = [&rng](const std::vector<std::string>& v) -> const std::string& {
    return v[rng.Below(v.size())];
  };
  std::vector<QueryRequest> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    QueryRequest r;
    switch (rng.Below(8)) {
      case 0:
        r = QueryRequest::Ask(pick(schema.defined_names));
        break;
      case 1:
        // FILLS conjunct: the query shape the index exists for.
        r = QueryRequest::Ask(StrCat("(AND ", pick(schema.primitive_names),
                                     " (FILLS ", pick(schema.role_names), " ",
                                     pick(inds), "))"));
        break;
      case 2:
        // Two FILLS conjuncts intersect two posting lists.
        r = QueryRequest::Ask(StrCat("(AND (FILLS ", pick(schema.role_names),
                                     " ", pick(inds), ") (FILLS ",
                                     pick(schema.role_names), " ", pick(inds),
                                     "))"));
        break;
      case 3:
        // Enumeration source.
        r = QueryRequest::Ask(StrCat("(AND ", pick(schema.primitive_names),
                                     " (ONE-OF ", pick(inds), " ", pick(inds),
                                     "))"));
        break;
      case 4:
        r = QueryRequest::AskPossible(pick(schema.defined_names));
        break;
      case 5:
        r = QueryRequest::PathQuery(
            StrCat("(select (?x ?y) (?x ", pick(schema.defined_names),
                   ") (?x ", pick(schema.role_names), " ?y))"));
        break;
      case 6:
        // Marked query: the walk starts from planner-supplied answers.
        r = QueryRequest::Ask(StrCat("(AND ", pick(schema.defined_names),
                                     " (ALL ", pick(schema.role_names), " ?:",
                                     pick(schema.primitive_names), "))"));
        break;
      case 7:
        r = QueryRequest::InstancesOf(pick(schema.defined_names));
        break;
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<std::string> CanonicalAnswers(
    KbEngine& engine, const std::vector<QueryRequest>& requests,
    planner::Mode mode, size_t threads) {
  planner::SetMode(mode);
  std::vector<QueryAnswer> answers = engine.QueryBatch(requests, threads);
  planner::SetMode(planner::Mode::kAuto);
  std::vector<std::string> out;
  out.reserve(answers.size());
  for (const QueryAnswer& a : answers) out.push_back(a.Canonical());
  return out;
}

class PlannerEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { planner::SetMode(planner::Mode::kAuto); }

  void Build(size_t concepts, size_t individuals, uint64_t seed) {
    workload_ = bench::BuildStandardWorkload(&db_, concepts, individuals,
                                             seed);
    engine_.PublishFrom(db_.kb());
  }

  Database db_;
  KbEngine engine_;
  bench::StandardWorkload workload_;
};

TEST_F(PlannerEquivalenceTest, IndexAndScanAgreeAtEveryThreadCount) {
  Build(/*concepts=*/140, /*individuals=*/200, /*seed=*/42);
  const std::vector<QueryRequest> requests =
      MakeRequests(workload_.schema, workload_.individuals, 180, 0xBEEF);

  const std::vector<std::string> scan =
      CanonicalAnswers(engine_, requests, planner::Mode::kForceScan, 1);
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    const std::vector<std::string> indexed = CanonicalAnswers(
        engine_, requests, planner::Mode::kForceIndex, threads);
    ASSERT_EQ(indexed.size(), scan.size());
    for (size_t i = 0; i < indexed.size(); ++i) {
      EXPECT_EQ(indexed[i], scan[i])
          << "threads=" << threads << " request#" << i << " ["
          << requests[i].text << "]";
    }
  }
}

TEST_F(PlannerEquivalenceTest, AutoModeMatchesForcedModes) {
  Build(/*concepts=*/100, /*individuals=*/150, /*seed=*/7);
  const std::vector<QueryRequest> requests =
      MakeRequests(workload_.schema, workload_.individuals, 120, 0xF00D);

  const std::vector<std::string> scan =
      CanonicalAnswers(engine_, requests, planner::Mode::kForceScan, 4);
  const std::vector<std::string> autod =
      CanonicalAnswers(engine_, requests, planner::Mode::kAuto, 4);
  ASSERT_EQ(autod.size(), scan.size());
  for (size_t i = 0; i < autod.size(); ++i) {
    EXPECT_EQ(autod[i], scan[i]) << "request#" << i;
  }
}

TEST_F(PlannerEquivalenceTest, AgreementSurvivesRetractionAndAsOf) {
  Build(/*concepts=*/80, /*individuals=*/120, /*seed=*/3);

  // Layer a known slice of filler facts on top of the workload, publish,
  // then retract them and republish: the index is rebuilt by
  // RederiveAll, while the first epoch keeps its immutable copy.
  Rng rng(11);
  std::vector<std::pair<std::string, std::string>> told;
  for (size_t attempt = 0; attempt < 60 && told.size() < 12; ++attempt) {
    const std::string& ind =
        workload_.individuals[rng.Below(workload_.individuals.size())];
    const std::string& role =
        workload_.schema
            .role_names[rng.Below(workload_.schema.role_names.size())];
    const std::string& target =
        workload_.individuals[rng.Below(workload_.individuals.size())];
    std::string desc = StrCat("(FILLS ", role, " ", target, ")");
    if (db_.AssertInd(ind, desc).ok()) told.emplace_back(ind, desc);
  }
  ASSERT_GT(told.size(), 0u);
  engine_.PublishFrom(db_.kb());
  const uint64_t epoch1 = engine_.epoch();

  size_t retracted = 0;
  for (const auto& [ind, desc] : told) {
    if (db_.RetractInd(ind, desc).ok()) ++retracted;
  }
  ASSERT_GT(retracted, 0u);
  engine_.PublishFrom(db_.kb());

  std::vector<QueryRequest> requests =
      MakeRequests(workload_.schema, workload_.individuals, 100, 0xCAFE);
  // Half the requests go to the pre-retraction epoch.
  for (size_t i = 0; i < requests.size(); i += 2) {
    requests[i].as_of_epoch = epoch1;
  }

  const std::vector<std::string> scan =
      CanonicalAnswers(engine_, requests, planner::Mode::kForceScan, 1);
  const std::vector<std::string> indexed =
      CanonicalAnswers(engine_, requests, planner::Mode::kForceIndex, 4);
  ASSERT_EQ(indexed.size(), scan.size());
  for (size_t i = 0; i < indexed.size(); ++i) {
    EXPECT_EQ(indexed[i], scan[i])
        << "request#" << i << (i % 2 == 0 ? " (as-of)" : "") << " ["
        << requests[i].text << "]";
  }
}

}  // namespace
}  // namespace classic
