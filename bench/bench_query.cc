// E3 — Classification-based query answering vs naive scan (the baseline).
//
// Paper, Section 5: "first, the query concept is itself 'classified' with
// respect to the concepts in the schema; then the instances of the parent
// concepts are tested individually ... all instances of schema concepts
// that are subsumed by the query are known to satisfy the query and are
// therefore not explicitly tested. Assuming that the schema can fit in
// main memory, this approach will reduce disk access traffic in the case
// of large databases."
//
// We measure, for growing ABox sizes, both evaluators on the same query
// and report per-query instance tests; the pruned evaluator's tests stay
// bounded by the parent concept's extension while the naive baseline
// scans everything.

#include <benchmark/benchmark.h>

#include <map>

#include "classic/database.h"
#include "query/planner.h"
#include "query/query.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic::bench {
namespace {

struct QueryFixture {
  Database db;
  Query query;

  explicit QueryFixture(size_t num_inds) {
    StandardWorkload w = BuildStandardWorkload(&db, /*num_concepts=*/120,
                                               num_inds, /*seed=*/7);
    // A selective query below one primitive family.
    std::string text =
        StrCat("(AND ", w.schema.primitive_names[1], " (AT-LEAST 1 ",
               w.schema.role_names[0], "))");
    auto q = ParseQueryString(text, &db.kb().vocab().symbols());
    if (!q.ok()) std::abort();
    query = *q;
  }
};

void BM_QueryClassified(benchmark::State& state) {
  QueryFixture fx(static_cast<size_t>(state.range(0)));
  size_t tested = 0, from_index = 0, answers = 0;
  for (auto _ : state) {
    auto r = Retrieve(fx.db.kb(), fx.query);
    if (!r.ok()) {
      state.SkipWithError("retrieve failed");
      return;
    }
    tested = r->stats.candidates_tested;
    from_index = r->stats.answers_from_index;
    answers = r->answers.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["individuals"] = static_cast<double>(state.range(0));
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["tested"] = static_cast<double>(tested);
  state.counters["from_index"] = static_cast<double>(from_index);
}
BENCHMARK(BM_QueryClassified)->RangeMultiplier(2)->Range(128, 2048);

void BM_QueryNaive(benchmark::State& state) {
  QueryFixture fx(static_cast<size_t>(state.range(0)));
  size_t tested = 0, answers = 0;
  for (auto _ : state) {
    auto r = RetrieveNaive(fx.db.kb(), fx.query);
    if (!r.ok()) {
      state.SkipWithError("retrieve failed");
      return;
    }
    tested = r->stats.candidates_tested;
    answers = r->answers.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["individuals"] = static_cast<double>(state.range(0));
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["tested"] = static_cast<double>(tested);
}
BENCHMARK(BM_QueryNaive)->RangeMultiplier(2)->Range(128, 2048);

// A query equivalent to a schema concept is answered entirely from the
// incrementally-maintained instance index — zero tests.
void BM_QueryIndexOnly(benchmark::State& state) {
  Database db;
  StandardWorkload w = BuildStandardWorkload(
      &db, /*num_concepts=*/120, static_cast<size_t>(state.range(0)),
      /*seed=*/7);
  auto q = ParseQueryString(w.schema.defined_names[0],
                            &db.kb().vocab().symbols());
  if (!q.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  size_t tested = 0;
  for (auto _ : state) {
    auto r = Retrieve(db.kb(), *q);
    if (!r.ok()) {
      state.SkipWithError("retrieve failed");
      return;
    }
    tested = r->stats.candidates_tested;
    benchmark::DoNotOptimize(r);
  }
  state.counters["tested"] = static_cast<double>(tested);
}
BENCHMARK(BM_QueryIndexOnly)->Arg(512)->Arg(2048);

// --- Planner: selective vs non-selective -------------------------------
//
// The selective query names a specific (role, filler) pair, so the
// planner streams that pair's posting list and tests only its members
// that lie in the query's classified parent. The non-selective query
// offers no posting (AT-LEAST never prunes), so the same loop streams
// the parent's whole extension and tests every member: the O(extension)
// work a selective query must never do. scripts/check_cost.py guards the
// selective query at 100k individuals against its BENCH_core.json
// baseline and the ratio non-selective/selective (at least 10x).

struct PlannerFixture {
  Database db;
  StandardWorkload w;
  Query selective;
  Query non_selective;
};

PlannerFixture* GetPlannerFixture(size_t num_inds) {
  // Cached across benchmarks (and leaked): the 100k build dominates
  // wall time, so the planner benchmarks share one fixture.
  static std::map<size_t, PlannerFixture*>* cache =
      new std::map<size_t, PlannerFixture*>;
  auto it = cache->find(num_inds);
  if (it != cache->end()) return it->second;
  auto* fx = new PlannerFixture;
  fx->w = BuildStandardWorkload(&fx->db, /*num_concepts=*/120, num_inds,
                                /*seed=*/7);
  // A mid-population individual: any specific (role, filler) pair holds
  // for only a handful of individuals, which is the selective case.
  const std::string& target = fx->w.individuals[num_inds / 2];
  auto sel = ParseQueryString(
      StrCat("(AND ", fx->w.schema.primitive_names[1], " (FILLS ",
             fx->w.schema.role_names[0], " ", target, "))"),
      &fx->db.kb().vocab().symbols());
  auto non = ParseQueryString(
      StrCat("(AND ", fx->w.schema.primitive_names[1], " (AT-LEAST 1 ",
             fx->w.schema.role_names[0], "))"),
      &fx->db.kb().vocab().symbols());
  if (!sel.ok() || !non.ok()) std::abort();
  fx->selective = *sel;
  fx->non_selective = *non;
  (*cache)[num_inds] = fx;
  return fx;
}

void RunPlannerBench(benchmark::State& state, bool selective) {
  PlannerFixture* fx = GetPlannerFixture(static_cast<size_t>(state.range(0)));
  const Query& query = selective ? fx->selective : fx->non_selective;
  size_t answers = 0;
  for (auto _ : state) {
    auto r = planner::RetrieveQuery(fx->db.kb(), query, nullptr);
    if (!r.ok()) {
      state.SkipWithError("retrieve failed");
      return;
    }
    answers = r->answers.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["individuals"] = static_cast<double>(state.range(0));
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_QuerySelectiveIndexed(benchmark::State& state) {
  RunPlannerBench(state, /*selective=*/true);
}
BENCHMARK(BM_QuerySelectiveIndexed)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_QueryNonSelective(benchmark::State& state) {
  RunPlannerBench(state, /*selective=*/false);
}
BENCHMARK(BM_QueryNonSelective)->Arg(1000)->Arg(10000)->Arg(100000);

// ask-possible on the non-selective query: its definite answers through
// the planner, then one exclusion test per undecided individual on the
// query's exclusion surface (here the record holders of the one role it
// constrains).
void BM_AskPossible(benchmark::State& state) {
  PlannerFixture* fx = GetPlannerFixture(static_cast<size_t>(state.range(0)));
  size_t possible = 0;
  for (auto _ : state) {
    auto r = planner::RetrievePossible(fx->db.kb(), fx->non_selective, nullptr);
    if (!r.ok()) {
      state.SkipWithError("ask-possible failed");
      return;
    }
    possible = r->size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["individuals"] = static_cast<double>(state.range(0));
  state.counters["possible"] = static_cast<double>(possible);
}
BENCHMARK(BM_AskPossible)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace classic::bench

BENCHMARK_MAIN();
