// Counter determinism under concurrent serving.
//
// The counted quantities are deterministic functions of the immutable
// snapshot being queried, so on a *warm* snapshot (caches populated by
// one priming pass) the engine-wide counter totals produced by a batch
// are byte-identical whether the batch runs serially or fanned across 8
// threads — the accounting analogue of parallel_diff_test's answer
// contract. Totals are also monotone: concurrent flushing may interleave,
// but counts are never lost or double-flushed.
//
// scripts/check.sh runs this suite under ThreadSanitizer, which is what
// holds the thread-local-slab counter design to "no data races".

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic {
namespace {

#if CLASSIC_OBS

std::vector<QueryRequest> MakeRequests(const bench::StandardWorkload& w,
                                       size_t count, uint64_t seed) {
  Rng rng(seed);
  auto pick = [&rng](const std::vector<std::string>& v) -> const std::string& {
    return v[rng.Below(v.size())];
  };
  std::vector<QueryRequest> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    switch (rng.Below(6)) {
      case 0:
        out.push_back(QueryRequest::Ask(pick(w.schema.defined_names)));
        break;
      case 1:
        out.push_back(QueryRequest::Ask(
            StrCat("(AND ", pick(w.schema.primitive_names), " (AT-LEAST 1 ",
                   pick(w.schema.role_names), "))")));
        break;
      case 2:
        out.push_back(QueryRequest::AskPossible(pick(w.schema.defined_names)));
        break;
      case 3:
        out.push_back(QueryRequest::PathQuery(
            StrCat("(select (?x ?y) (?x ", pick(w.schema.defined_names),
                   ") (?x ", pick(w.schema.role_names), " ?y))")));
        break;
      case 4:
        out.push_back(QueryRequest::DescribeIndividual(pick(w.individuals)));
        break;
      case 5:
        out.push_back(QueryRequest::InstancesOf(pick(w.schema.defined_names)));
        break;
    }
  }
  return out;
}

TEST(ObsParallelTest, BatchCounterTotalsMatchSerialOnWarmSnapshot) {
  Database db;
  bench::StandardWorkload w =
      bench::BuildStandardWorkload(&db, /*num_concepts=*/60,
                                   /*num_individuals=*/120, /*seed=*/42);
  KbEngine engine;
  engine.PublishFrom(db.kb());
  const std::vector<QueryRequest> requests = MakeRequests(w, 96, 0xC0FFEE);

  // Priming pass: populate the snapshot's logically-const caches (query
  // normal forms, subsumption memo, host literals) so the measured
  // passes do identical work.
  (void)engine.QueryBatch(requests, /*num_threads=*/1);

  obs::CounterArray base = obs::ReadCounters();

  (void)engine.QueryBatch(requests, /*num_threads=*/1);
  obs::CounterArray after_serial = obs::ReadCounters();

  (void)engine.QueryBatch(requests, /*num_threads=*/8);
  obs::CounterArray after_parallel = obs::ReadCounters();

  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    const uint64_t serial_delta = after_serial[i] - base[i];
    const uint64_t parallel_delta = after_parallel[i] - after_serial[i];
    EXPECT_EQ(serial_delta, parallel_delta)
        << obs::CounterName(static_cast<obs::Counter>(i));
  }
  const size_t served = static_cast<size_t>(obs::Counter::kQueriesServed);
  EXPECT_EQ(after_parallel[served] - after_serial[served], requests.size());
}

TEST(ObsParallelTest, TotalsAreMonotoneAcrossConcurrentBatches) {
  Database db;
  bench::StandardWorkload w =
      bench::BuildStandardWorkload(&db, /*num_concepts=*/40,
                                   /*num_individuals=*/80, /*seed=*/7);
  KbEngine engine;
  engine.PublishFrom(db.kb());
  const std::vector<QueryRequest> requests = MakeRequests(w, 64, 0xBEEF);

  obs::CounterArray prev = obs::ReadCounters();
  for (size_t round = 0; round < 4; ++round) {
    std::vector<QueryAnswer> answers =
        engine.QueryBatch(requests, /*num_threads=*/8);
    ASSERT_EQ(answers.size(), requests.size());
    obs::CounterArray now = obs::ReadCounters();
    for (size_t i = 0; i < obs::kNumCounters; ++i) {
      EXPECT_GE(now[i], prev[i])
          << obs::CounterName(static_cast<obs::Counter>(i));
    }
    // Every batch serves every request exactly once.
    const size_t served = static_cast<size_t>(obs::Counter::kQueriesServed);
    EXPECT_EQ(now[served] - prev[served], requests.size());
    prev = now;
  }
}

#endif  // CLASSIC_OBS

}  // namespace
}  // namespace classic
