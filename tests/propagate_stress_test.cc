// Stress harness for write-side propagation: bulk-load wavefronts
// racing concurrent snapshot readers, plus rollback pins.
//
// Two contracts on top of the determinism harness
// (propagate_determinism_test.cc):
//
//  - isolation: while the writer propagates one bulk mutation, reader
//    threads continuously acquiring snapshots and serving queries never
//    observe a half-propagated state — only published epochs are
//    visible. Run under -DCLASSIC_TSAN=ON by scripts/check.sh; the
//    writer/reader interleavings are exactly what the sanitizer needs
//    to see.
//
//  - atomicity: a contradiction discovered mid-wavefront on ONE island
//    aborts the whole update; every journaled write on every other
//    island (derived states, instance-index inserts, reverse references)
//    rolls back, leaving the database byte-identical to its pre-update
//    canonical state.
//
// Deterministic seeds; threads rendezvous on atomics, not timers.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace classic {
namespace {

constexpr size_t kReaders = 3;
constexpr size_t kRounds = 24;
constexpr size_t kIslandsPerRound = 16;

void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }

// Batch of island-shaped assertions: kIslandsPerRound islands of 3
// fresh individuals each, every island a little FILLS triangle plus a
// membership — many independent role-graph islands in one wavefront.
std::vector<std::pair<std::string, std::string>> IslandBatch(
    const std::vector<std::string>& names, size_t round, Rng* rng) {
  std::vector<std::pair<std::string, std::string>> batch;
  for (size_t i = 0; i < kIslandsPerRound; ++i) {
    const size_t base = i * 3;
    for (size_t k = 0; k < 3; ++k) {
      batch.emplace_back(names[base + k],
                         StrCat("(FILLS r", rng->Below(2), " ",
                                names[base + (k + 1) % 3], ")"));
    }
    batch.emplace_back(names[base + rng->Below(3)],
                       (round + i) % 2 == 0 ? "MARKED" : "D0");
  }
  return batch;
}

TEST(PropagateStress, BulkLoadsRaceSnapshotReaders) {
  KbEngine::Options options;
  options.num_threads = 4;
  KbEngine engine(options);

  // The single writer mutates its own database and publishes it.
  Database db;
  Must(db.DefineRole("r0"));
  Must(db.DefineRole("r1"));
  Must(db.DefineConcept("MARKED", "(PRIMITIVE CLASSIC-THING marked)"));
  Must(db.DefineConcept("D0",
                        "(AND (PRIMITIVE CLASSIC-THING d0) (AT-MOST 8 r0))"));
  if (HasFatalFailure()) return;
  engine.PublishFrom(db.kb());

  std::atomic<bool> writer_done{false};
  std::atomic<bool> failed{false};
  std::atomic<size_t> reader_iterations{0};
  std::vector<std::string> errors(kReaders);

  auto reader = [&](size_t id) {
    Rng rng(7000 + id);
    uint64_t last_epoch = 0;
    size_t last_marked = 0;
    while (!writer_done.load(std::memory_order_acquire) &&
           !failed.load(std::memory_order_relaxed)) {
      SnapshotPtr snap = engine.snapshot();
      if (!snap) continue;
      if (snap->epoch() < last_epoch) {
        errors[id] = "epoch went backwards";
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      last_epoch = snap->epoch();
      QueryAnswer marked = KbEngine::ServeQuery(
          snap->kb(), QueryRequest::InstancesOf("MARKED"));
      if (!marked.status.ok()) {
        errors[id] = StrCat("instances-of: ", marked.status.ToString());
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      // Bulk rounds are atomic: each publishes kIslandsPerRound/2 new
      // MARKED members, so any other count means a torn epoch.
      if (marked.values.size() % (kIslandsPerRound / 2) != 0 ||
          marked.values.size() < last_marked) {
        errors[id] = StrCat("torn MARKED count: ", marked.values.size());
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      last_marked = marked.values.size();
      // A describe keeps the readers exercising derived state while the
      // writer is propagating the next wavefront.
      if (last_marked > 0) {
        QueryAnswer desc = KbEngine::ServeQuery(
            snap->kb(),
            QueryRequest::DescribeIndividual(
                marked.values[rng.Below(marked.values.size())]));
        if (!desc.status.ok()) {
          errors[id] = StrCat("describe: ", desc.status.ToString());
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
      reader_iterations.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);

  Rng rng(99);
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<std::string> names;
    for (size_t i = 0; i < kIslandsPerRound * 3; ++i) {
      names.push_back(StrCat("R", round, "-I", i));
      Must(db.CreateIndividual(names.back()));
    }
    Status st = db.BulkAssert(IslandBatch(names, round, &rng));
    ASSERT_TRUE(st.ok()) << "round " << round << ": " << st.ToString();
    engine.PublishFrom(db.kb());
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(errors[r].empty()) << "reader " << r << ": " << errors[r];
  }
  EXPECT_GT(reader_iterations.load(), 0u);

  SnapshotPtr last = engine.snapshot();
  QueryAnswer final_marked = KbEngine::ServeQuery(
      last->kb(), QueryRequest::InstancesOf("MARKED"));
  ASSERT_TRUE(final_marked.status.ok());
  EXPECT_EQ(final_marked.values.size(), kRounds * kIslandsPerRound / 2);
}

// A contradiction on one island of a bulk wavefront must abort the whole
// batch and restore the exact pre-batch state, including the valid
// memberships already derived on every other island.
TEST(PropagateStress, ContradictionMidWavefrontRollsBackEverything) {
  Database db;
  Must(db.DefineRole("r0"));
  Must(db.DefineConcept("P0", "(PRIMITIVE CLASSIC-THING p0)"));
  if (HasFatalFailure()) return;
  std::vector<std::string> names;
  for (size_t i = 0; i < 64; ++i) {
    names.push_back(StrCat("I", i));
    Must(db.CreateIndividual(names.back()));
  }
  // Quiescent baseline: 16 islands of 4 with a couple of edges each.
  std::vector<std::pair<std::string, std::string>> setup;
  for (size_t i = 0; i < 64; ++i) {
    const size_t lo = (i / 4) * 4;
    setup.emplace_back(names[i],
                       StrCat("(FILLS r0 ", names[lo + (i + 1) % 4], ")"));
  }
  Must(db.BulkAssert(setup));
  if (HasFatalFailure()) return;
  const std::string before = db.kb().CanonicalDerivedState();
  const uint64_t rejected_before = db.kb().stats().rejected_updates;

  // A big batch: valid new memberships on every island, plus one poison
  // pill — a bound every island-member already violates.
  std::vector<std::pair<std::string, std::string>> poison;
  for (size_t i = 0; i < 64; i += 2) poison.emplace_back(names[i], "P0");
  poison.emplace_back(names[37], "(AT-MOST 0 r0)");
  Status st = db.BulkAssert(poison);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(before, db.kb().CanonicalDerivedState());
  EXPECT_GT(db.kb().stats().rejected_updates, rejected_before);

  // The database stays fully usable after the rollback.
  Must(db.AssertInd(names[0], "P0"));
}

}  // namespace
}  // namespace classic
