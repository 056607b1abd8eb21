// Differential harness for snapshot-isolated parallel serving.
//
// The contract under test (kb/kb_engine.h): a batch fanned across the pool
// of an engine built with N threads, against one published epoch, returns
// answers byte-identical to serving the same requests serially against
// that epoch — for every N.
// Workloads are generated deterministically (seeded SplitMix64, no
// wall-clock anywhere), and the request mix covers every read entry
// point: ask / ask-possible / ask-description, marked queries, path
// queries, describe-individual, most-specific-concepts, instances-of,
// plus queries whose normalization interns *fresh host literals* — the
// case the frozen visible-individual bound exists for.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
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
    switch (rng.Below(9)) {
      case 0:
        r = QueryRequest::Ask(pick(schema.defined_names));
        break;
      case 1:
        r = QueryRequest::Ask(StrCat("(AND ", pick(schema.primitive_names),
                                     " (AT-LEAST 1 ", pick(schema.role_names),
                                     "))"));
        break;
      case 2:
        r = QueryRequest::AskPossible(pick(schema.defined_names));
        break;
      case 3:
        r = QueryRequest::PathQuery(
            StrCat("(select (?x ?y) (?x ", pick(schema.defined_names),
                   ") (?x ", pick(schema.role_names), " ?y))"));
        break;
      case 4:
        r = QueryRequest::DescribeIndividual(pick(inds));
        break;
      case 5:
        r = QueryRequest::MostSpecificConcepts(pick(inds));
        break;
      case 6:
        r = QueryRequest::InstancesOf(pick(schema.defined_names));
        break;
      case 7:
        // Marked query: answers are the fillers at the marked position.
        r = QueryRequest::Ask(StrCat("(AND ", pick(schema.defined_names),
                                     " (ALL ", pick(schema.role_names), " ?:",
                                     pick(schema.primitive_names), "))"));
        break;
      case 8:
        // Enumeration of a host literal that is (usually) NOT in the
        // database: normalizing this interns a fresh host individual on
        // the snapshot's logically-const caches. The frozen
        // visible-individual bound keeps the answer set independent of
        // which thread interned it first.
        r = QueryRequest::Ask(StrCat("(ONE-OF ", 100000 + rng.Below(1000),
                                     ")"));
        break;
    }
    out.push_back(std::move(r));
  }
  return out;
}

class ParallelDiffTest : public ::testing::Test {
 protected:
  void Build(size_t concepts, size_t individuals, uint64_t seed) {
    workload_ = bench::BuildStandardWorkload(&db_, concepts, individuals,
                                             seed);
    snapshot_ = engine_.PublishFrom(db_.kb());
  }

  Database db_;
  KbEngine engine_;
  SnapshotPtr snapshot_;
  bench::StandardWorkload workload_;
};

TEST_F(ParallelDiffTest, BatchMatchesSerialAtEveryThreadCount) {
  Build(/*concepts=*/160, /*individuals=*/220, /*seed=*/42);
  const std::vector<QueryRequest> requests =
      MakeRequests(workload_.schema, workload_.individuals, 160, 0xC0FFEE);

  // Serial reference: one request at a time, same snapshot.
  std::vector<std::string> expected;
  expected.reserve(requests.size());
  for (const QueryRequest& r : requests) {
    expected.push_back(KbEngine::ServeQuery(snapshot_->kb(), r).Canonical());
  }

  // One engine per serving concurrency (a pool is sized once, at
  // construction), each fanning the batch over the same snapshot.
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    KbEngine engine(KbEngine::Options{.num_threads = threads});
    std::vector<QueryAnswer> answers =
        engine.QueryBatchOn(*snapshot_, requests);
    ASSERT_EQ(answers.size(), requests.size());
    for (size_t i = 0; i < answers.size(); ++i) {
      EXPECT_EQ(answers[i].Canonical(), expected[i])
          << "threads=" << threads << " request#" << i << " ["
          << requests[i].text << "]";
    }
  }
}

TEST_F(ParallelDiffTest, RepeatedParallelBatchesAreStable) {
  Build(/*concepts=*/100, /*individuals=*/150, /*seed=*/7);
  const std::vector<QueryRequest> requests =
      MakeRequests(workload_.schema, workload_.individuals, 120, 99);

  // Two runs at 8 threads: scheduling differs, caches are warmer the
  // second time — the bytes must not move.
  KbEngine engine(KbEngine::Options{.num_threads = 8});
  std::vector<QueryAnswer> first = engine.QueryBatchOn(*snapshot_, requests);
  std::vector<QueryAnswer> second = engine.QueryBatchOn(*snapshot_, requests);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].Canonical(), second[i].Canonical()) << "request#" << i;
  }
}

TEST_F(ParallelDiffTest, IndependentClonesAnswerIdentically) {
  Build(/*concepts=*/80, /*individuals=*/100, /*seed=*/3);
  const std::vector<QueryRequest> requests =
      MakeRequests(workload_.schema, workload_.individuals, 80, 5);

  // A second engine cloned from the same database must serve the same
  // bytes: epochs are value-faithful copies, ids and all.
  KbEngine other;
  other.PublishFrom(db_.kb());
  std::vector<QueryAnswer> a = engine_.QueryBatch(requests);
  std::vector<QueryAnswer> b = other.QueryBatch(requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Canonical(), b[i].Canonical()) << "request#" << i;
  }
}

TEST_F(ParallelDiffTest, UnpublishedEngineFailsEveryRequest) {
  KbEngine fresh;
  std::vector<QueryRequest> requests(3);
  std::vector<QueryAnswer> answers = fresh.QueryBatch(requests);
  ASSERT_EQ(answers.size(), 3u);
  for (const QueryAnswer& a : answers) {
    EXPECT_TRUE(a.status.IsNotFound()) << a.status.ToString();
  }
}

}  // namespace
}  // namespace classic
