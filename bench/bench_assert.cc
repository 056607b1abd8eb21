// E4 — Incremental assertion & reclassification cost.
//
// Paper, Section 5: "Individuals are similarly normalized and are
// classified whenever new information about them is asserted ... this
// process is guaranteed to end because it is bounded by the number of
// classes and individuals in the database: every individual can move into
// a class at most once."
//
// We measure the cost of one assert-ind as the database grows, and the
// amortized propagation steps per update. The per-assert cost should
// track schema size (realization walks the taxonomy) and stay insensitive
// to total ABox size when the update's cascade is local.

#include <benchmark/benchmark.h>

#include "classic/database.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic::bench {
namespace {

void BM_AssertFillsIntoGrownDb(benchmark::State& state) {
  const size_t num_inds = static_cast<size_t>(state.range(0));
  Database db;
  StandardWorkload w =
      BuildStandardWorkload(&db, /*num_concepts=*/100, num_inds, 7);
  // Fresh target individuals so each iteration starts clean.
  size_t counter = 0;
  const std::string& role = w.schema.role_names[0];
  for (auto _ : state) {
    state.PauseTiming();
    std::string name = StrCat("bench-ind-", counter++);
    if (!db.CreateIndividual(name).ok()) {
      state.SkipWithError("create failed");
      return;
    }
    state.ResumeTiming();
    Status st = db.AssertInd(
        name, StrCat("(FILLS ", role, " ", w.individuals[0], ")"));
    if (!st.ok()) {
      state.SkipWithError("assert failed");
      return;
    }
  }
  state.counters["individuals"] = static_cast<double>(num_inds);
  state.counters["taxonomy_nodes"] =
      static_cast<double>(db.kb().taxonomy().num_nodes());
}
BENCHMARK(BM_AssertFillsIntoGrownDb)->RangeMultiplier(4)->Range(64, 4096);

void BM_AssertConceptMembership(benchmark::State& state) {
  const size_t num_concepts = static_cast<size_t>(state.range(0));
  Database db;
  StandardWorkload w =
      BuildStandardWorkload(&db, num_concepts, /*num_individuals=*/256, 7);
  size_t counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string name = StrCat("bench-ind-", counter++);
    if (!db.CreateIndividual(name).ok()) {
      state.SkipWithError("create failed");
      return;
    }
    state.ResumeTiming();
    Status st = db.AssertInd(name, w.schema.defined_names[0]);
    if (!st.ok()) {
      state.SkipWithError("assert failed");
      return;
    }
  }
  state.counters["concepts"] = static_cast<double>(num_concepts);
}
BENCHMARK(BM_AssertConceptMembership)->RangeMultiplier(2)->Range(32, 512);

void BM_BulkLoad(benchmark::State& state) {
  const size_t num_inds = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Database db;
    StandardWorkload w =
        BuildStandardWorkload(&db, /*num_concepts=*/100, num_inds, 7);
    benchmark::DoNotOptimize(w);
    const KbStats& stats = db.kb().stats();
    state.counters["propagation_steps"] =
        static_cast<double>(stats.propagation_steps);
    state.counters["steps_per_ind"] =
        static_cast<double>(stats.propagation_steps) /
        static_cast<double>(num_inds);
  }
  state.counters["individuals"] = static_cast<double>(num_inds);
}
BENCHMARK(BM_BulkLoad)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

// Bulk load through Database::BulkAssert: the whole ABox is one batch,
// so the propagation engine settles it as one wavefront. Args:
// {num_individuals, island_size (0 = one giant component, 1 =
// num_individuals singleton islands)}. The shapes bracket the role graph
// from fully connected to fully independent.
void BM_BulkLoadShape(benchmark::State& state) {
  const size_t num_inds = static_cast<size_t>(state.range(0));
  const size_t island = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    SchemaSpec sspec;
    sspec.num_primitives = 50;
    sspec.num_defined = 50;
    sspec.seed = 7;
    SchemaHandles schema = BuildSchema(&db, sspec);
    BulkSpec bspec;
    bspec.num_individuals = num_inds;
    bspec.island = island;
    bspec.seed = 8;
    state.ResumeTiming();
    std::vector<std::string> names =
        BulkPopulateIndividuals(&db, schema, bspec);
    benchmark::DoNotOptimize(names);
    const KbStats& stats = db.kb().stats();
    state.counters["propagation_steps"] =
        static_cast<double>(stats.propagation_steps);
  }
  state.counters["individuals"] = static_cast<double>(num_inds);
  state.counters["islands"] =
      static_cast<double>(island == 0 ? 1 : num_inds / island);
}
BENCHMARK(BM_BulkLoadShape)
    ->Args({1024, 0})    // one giant component
    ->Args({1024, 1})    // 1024 singleton islands
    ->Args({10240, 16})  // 10k individuals in 640 islands
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace classic::bench

BENCHMARK_MAIN();
