// Stress harness: concurrent readers against a mutating writer.
//
// A single writer asserts / retracts and publishes epochs through
// KbEngine while N reader threads continuously acquire snapshots and
// serve queries. The harness checks the snapshot-isolation contract
// end-to-end:
//
//  - no torn reads: within one snapshot, the same request always returns
//    the same bytes, and the set of writer-created marker individuals a
//    reader observes is always a *prefix* of the creation order (a torn
//    epoch would surface a gap);
//  - monotone epochs: successive snapshot() calls never go backwards;
//  - stale epochs stay valid: a snapshot captured early is still
//    byte-stable after dozens of later publishes retire it;
//  - bounded memory: retired epochs are reclaimed while readers churn —
//    the live KbSnapshot count stays near the reader count and never
//    approaches the number of published epochs.
//
// Deterministic seeds; no wall-clock dependence (threads rendezvous on
// atomics, not timers). Run under -DCLASSIC_TSAN=ON by scripts/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic {
namespace {

constexpr size_t kReaders = 4;
constexpr size_t kEpochs = 48;

class ParallelStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = bench::BuildStandardWorkload(&db_, /*num_concepts=*/60,
                                             /*num_individuals=*/80,
                                             /*seed=*/11);
    // Marker concept for the prefix-visibility check plus a scratch
    // individual the writer churns with assert/retract pairs.
    ASSERT_TRUE(db_.DefineRole("stress-scratch-role").ok());
    ASSERT_TRUE(
        db_.DefineConcept("STRESS-MARK",
                          "(PRIMITIVE CLASSIC-THING stress-mark)")
            .ok());
    ASSERT_TRUE(db_.CreateIndividual("Scratch").ok());
    ASSERT_TRUE(db_.CreateIndividual("ScratchFiller").ok());
    engine_.PublishFrom(db_.kb());
  }

  Database db_;
  KbEngine engine_;
  bench::StandardWorkload workload_;
};

TEST_F(ParallelStressTest, ReadersStayConsistentWhileWriterPublishes) {
  std::atomic<bool> writer_done{false};
  std::atomic<size_t> max_live{0};
  std::atomic<size_t> reader_iterations{0};
  std::atomic<bool> failed{false};
  std::vector<std::string> errors(kReaders);

  // A stale snapshot captured before any stress mutation, plus its
  // reference bytes; re-checked after the writer retires it many times.
  SnapshotPtr early = engine_.snapshot();
  ASSERT_NE(early, nullptr);
  QueryRequest mark_req = QueryRequest::InstancesOf("STRESS-MARK");
  const std::string early_marks =
      KbEngine::ServeQuery(early->kb(), mark_req).Canonical();

  auto reader = [&](size_t id) {
    Rng rng(1000 + id);
    uint64_t last_epoch = 0;
    size_t last_mark_count = 0;
    auto fail = [&](std::string msg) {
      errors[id] = std::move(msg);
      failed.store(true, std::memory_order_relaxed);
    };
    while (!writer_done.load(std::memory_order_acquire) &&
           !failed.load(std::memory_order_relaxed)) {
      SnapshotPtr snap = engine_.snapshot();
      if (!snap) {
        fail("null snapshot");
        return;
      }
      if (snap->epoch() < last_epoch) {
        fail(StrCat("epoch went backwards: ", snap->epoch(), " after ",
                    last_epoch));
        return;
      }
      last_epoch = snap->epoch();

      // Torn-read probe 1: marker individuals must form a prefix
      // S-0..S-(k-1) of the creation order.
      QueryAnswer marks = KbEngine::ServeQuery(snap->kb(), mark_req);
      if (!marks.status.ok()) {
        fail(StrCat("instances-of failed: ", marks.status.ToString()));
        return;
      }
      for (size_t i = 0; i < marks.values.size(); ++i) {
        if (marks.values[i] != StrCat("S-", i)) {
          fail(StrCat("non-prefix marker set at position ", i, ": ",
                      marks.values[i]));
          return;
        }
      }
      if (marks.values.size() < last_mark_count) {
        // Same reader, newer-or-equal epoch: the set may only grow.
        fail("marker set shrank across epochs");
        return;
      }
      last_mark_count = marks.values.size();

      // Torn-read probe 2: within one snapshot, identical requests give
      // identical bytes even while the writer publishes.
      QueryRequest probe =
          QueryRequest::Ask(workload_.schema.defined_names[rng.Below(
              workload_.schema.defined_names.size())]);
      std::string once = KbEngine::ServeQuery(snap->kb(), probe).Canonical();
      std::string twice = KbEngine::ServeQuery(snap->kb(), probe).Canonical();
      if (once != twice) {
        fail(StrCat("torn read within a snapshot on ", probe.text));
        return;
      }

      // General load: a small mixed batch on this snapshot.
      std::vector<QueryRequest> batch;
      batch.push_back(QueryRequest::DescribeIndividual(
          workload_.individuals[rng.Below(workload_.individuals.size())]));
      batch.push_back(
          QueryRequest::AskPossible(workload_.schema.defined_names[rng.Below(
              workload_.schema.defined_names.size())]));
      for (const QueryAnswer& a :
           engine_.QueryBatchOn(*snap, batch, /*num_threads=*/1)) {
        if (!a.status.ok()) {
          fail(StrCat("batch request failed: ", a.status.ToString()));
          return;
        }
      }

      size_t live = KbSnapshot::live_count();
      size_t prev = max_live.load(std::memory_order_relaxed);
      while (live > prev &&
             !max_live.compare_exchange_weak(prev, live,
                                             std::memory_order_relaxed)) {
      }
      reader_iterations.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);

  // The writer: one epoch per iteration — create a marker individual,
  // recognize it under STRESS-MARK, and churn the scratch individual with
  // an assert/retract pair (retraction triggers full re-derivation, the
  // heaviest write path). It mutates its own database, then publishes it.
  const std::string scratch_fill = "(FILLS stress-scratch-role ScratchFiller)";
  for (size_t k = 0; k < kEpochs; ++k) {
    Status st = db_.CreateIndividual(StrCat("S-", k), "STRESS-MARK");
    ASSERT_TRUE(st.ok()) << st.ToString();
    engine_.PublishFrom(db_.kb());
    if (k % 4 == 1) {
      st = db_.AssertInd("Scratch", scratch_fill);
      if (st.ok()) st = db_.RetractInd("Scratch", scratch_fill);
      ASSERT_TRUE(st.ok()) << st.ToString();
      engine_.PublishFrom(db_.kb());
    }
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(errors[r].empty()) << "reader " << r << ": " << errors[r];
  }
  EXPECT_FALSE(failed.load());
  EXPECT_GT(reader_iterations.load(), 0u);

  // Stale epoch still valid and byte-stable after ~60 publishes.
  EXPECT_EQ(KbEngine::ServeQuery(early->kb(), mark_req).Canonical(),
            early_marks);
  EXPECT_EQ(early->epoch(), 1u);

  // Final state: all markers visible in the current epoch.
  SnapshotPtr last = engine_.snapshot();
  QueryAnswer final_marks = KbEngine::ServeQuery(last->kb(), mark_req);
  ASSERT_TRUE(final_marks.status.ok());
  EXPECT_EQ(final_marks.values.size(), kEpochs);

  // Bounded memory: readers hold at most one snapshot each (plus the
  // engine's current, our two locals, and a publish transient), so the
  // live count must stay near kReaders and far below the ~60 epochs
  // published. Without reclamation this would be > kEpochs.
  EXPECT_LE(max_live.load(), 2 * kReaders + 4);
}

}  // namespace
}  // namespace classic
