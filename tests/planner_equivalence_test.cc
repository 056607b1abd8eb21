// Differential harness for the planner's core guarantee: every ask
// answers exactly what RetrieveNaive, the full-scan reference, answers on
// the epoch the request reads — at every batch thread count, and after
// retraction + republish (including as-of queries against earlier
// epochs) — and every request kind gives the same bytes at every thread
// count.
//
// The argument (query/planner.h): every candidate source is complete
// (derived fillers ⊇ query fillers for FILLS, identity for ONE-OF,
// classification soundness for taxonomy), so the planner's choice of
// base only changes which non-answers are rejected before the residual
// Satisfies test.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "query/query.h"
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

/// The reference answer values of an ask: RetrieveNaive on `kb`.
std::vector<std::string> NaiveAsk(const KnowledgeBase& kb,
                                  const std::string& text) {
  std::vector<std::string> out;
  auto q = ParseQueryString(text, &kb.vocab().symbols());
  EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  if (!q.ok()) return out;
  auto r = RetrieveNaive(kb, *q);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  if (!r.ok()) return out;
  for (IndId i : r->answers) out.push_back(kb.vocab().IndividualName(i));
  return out;
}

class PlannerEquivalenceTest : public ::testing::Test {
 protected:
  void Build(size_t concepts, size_t individuals, uint64_t seed) {
    workload_ = bench::BuildStandardWorkload(&db_, concepts, individuals,
                                             seed);
    PublishAll();
  }

  /// Publishes db_ on every engine, so their epochs stay in step.
  void PublishAll() {
    for (KbEngine* engine : {&serial_, &four_, &eight_}) {
      engine->PublishFrom(db_.kb());
    }
  }

  /// Serves `requests` at 1, 4 and 8 threads. Every ask must equal
  /// RetrieveNaive on the snapshot the request reads, and every answer
  /// must match the 1-thread answer byte for byte.
  void ExpectAgreement(const std::vector<QueryRequest>& requests) {
    auto where = [&requests](size_t i) {
      return StrCat("request#", i,
                    requests[i].as_of_epoch != 0 ? " (as-of)" : "", " [",
                    requests[i].text, "]");
    };
    const std::vector<QueryAnswer> serial = serial_.QueryBatch(requests, 1);
    ASSERT_EQ(serial.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const QueryRequest& r = requests[i];
      if (r.kind != QueryRequest::Kind::kAsk) continue;
      SnapshotPtr snap = r.as_of_epoch != 0
                             ? serial_.SnapshotAt(r.as_of_epoch)
                             : serial_.snapshot();
      ASSERT_NE(snap, nullptr) << where(i);
      ASSERT_TRUE(serial[i].status.ok())
          << where(i) << ": " << serial[i].status.ToString();
      EXPECT_EQ(serial[i].values.ToVector(), NaiveAsk(snap->kb(), r.text))
          << where(i);
    }
    for (const auto& [threads, engine] :
         {std::pair<size_t, KbEngine*>{4, &four_}, {8, &eight_}}) {
      const std::vector<QueryAnswer> parallel = engine->QueryBatch(requests);
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < parallel.size(); ++i) {
        EXPECT_EQ(parallel[i].ToWire(), serial[i].ToWire())
            << "threads=" << threads << " " << where(i);
      }
    }
  }

  Database db_;
  /// One engine per thread count: a pool is sized once, at construction.
  KbEngine serial_{KbEngine::Options{.num_threads = 1}};
  KbEngine four_{KbEngine::Options{.num_threads = 4}};
  KbEngine eight_{KbEngine::Options{.num_threads = 8}};
  bench::StandardWorkload workload_;
};

TEST_F(PlannerEquivalenceTest, AsksEqualNaiveAtEveryThreadCount) {
  Build(/*concepts=*/140, /*individuals=*/200, /*seed=*/42);
  ExpectAgreement(
      MakeRequests(workload_.schema, workload_.individuals, 180, 0xBEEF));
}

TEST_F(PlannerEquivalenceTest, AsksEqualNaiveOnASecondWorkload) {
  Build(/*concepts=*/100, /*individuals=*/150, /*seed=*/7);
  ExpectAgreement(
      MakeRequests(workload_.schema, workload_.individuals, 120, 0xF00D));
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
  PublishAll();
  const uint64_t epoch1 = serial_.epoch();

  size_t retracted = 0;
  for (const auto& [ind, desc] : told) {
    if (db_.RetractInd(ind, desc).ok()) ++retracted;
  }
  ASSERT_GT(retracted, 0u);
  PublishAll();

  std::vector<QueryRequest> requests =
      MakeRequests(workload_.schema, workload_.individuals, 100, 0xCAFE);
  // Half the requests go to the pre-retraction epoch.
  for (size_t i = 0; i < requests.size(); i += 2) {
    requests[i].as_of_epoch = epoch1;
  }

  ExpectAgreement(requests);
}

}  // namespace
}  // namespace classic
