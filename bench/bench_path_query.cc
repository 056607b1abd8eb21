// E9 (extension) — Conjunctive path-query join scaling, plus the cost of
// interleaved schema definition (define-concept on a populated database).
//
// The first half measures the announced query-language extension: a
// two-hop join whose first atom is answered with classified retrieval
// and whose role atoms walk the filler graph (with the reverse-reference
// index for bound objects).
//
// The second half measures the paper's signature usage pattern —
// "this process can be interleaved with updates and queries, so that we
// can define a new concept any time it seems useful" — where defining a
// concept over a populated ABox must only reclassify the candidates
// implied by its parents, not the whole database.

#include <benchmark/benchmark.h>

#include "classic/database.h"
#include "query/path_query.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic::bench {
namespace {

void BM_PathQueryTwoHop(benchmark::State& state) {
  const size_t num_inds = static_cast<size_t>(state.range(0));
  Database db;
  StandardWorkload w =
      BuildStandardWorkload(&db, /*num_concepts=*/80, num_inds, 5);
  std::string text = StrCat(
      "(select (?x ?z) (?x ", w.schema.primitive_names[1], ") (?x ",
      w.schema.role_names[0], " ?y) (?y ", w.schema.role_names[1], " ?z))");
  auto q = ParsePathQueryString(text, db.kb());
  if (!q.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  size_t rows = 0, explored = 0;
  for (auto _ : state) {
    auto r = EvaluatePathQuery(db.kb(), *q);
    if (!r.ok()) {
      state.SkipWithError("eval failed");
      return;
    }
    rows = r->rows.size();
    explored = r->bindings_explored;
    benchmark::DoNotOptimize(r);
  }
  state.counters["individuals"] = static_cast<double>(num_inds);
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["bindings_explored"] = static_cast<double>(explored);
}
BENCHMARK(BM_PathQueryTwoHop)->RangeMultiplier(4)->Range(64, 1024);

void BM_PathQueryReverseStep(benchmark::State& state) {
  const size_t num_inds = static_cast<size_t>(state.range(0));
  Database db;
  StandardWorkload w =
      BuildStandardWorkload(&db, /*num_concepts=*/80, num_inds, 5);
  // Who references Ind-0 through role0? (bound object, free subject).
  std::string text = StrCat("(select (?x) (?x ", w.schema.role_names[0],
                            " ", w.individuals[0], "))");
  auto q = ParsePathQueryString(text, db.kb());
  if (!q.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  for (auto _ : state) {
    auto r = EvaluatePathQuery(db.kb(), *q);
    if (!r.ok()) {
      state.SkipWithError("eval failed");
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["individuals"] = static_cast<double>(num_inds);
}
BENCHMARK(BM_PathQueryReverseStep)->RangeMultiplier(4)->Range(64, 4096);

void BM_DefineConceptOnPopulatedDb(benchmark::State& state) {
  const size_t num_inds = static_cast<size_t>(state.range(0));
  Database db;
  StandardWorkload w =
      BuildStandardWorkload(&db, /*num_concepts=*/80, num_inds, 5);
  size_t counter = 0;
  for (auto _ : state) {
    // Each definition sits under an existing primitive, so only that
    // family's instances are candidates.
    std::string name = StrCat("LATE-", counter++);
    Status st = db.DefineConcept(
        name, StrCat("(AND ", w.schema.primitive_names[2], " (AT-LEAST 1 ",
                     w.schema.role_names[counter % 4], "))"));
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.counters["individuals"] = static_cast<double>(num_inds);
}
BENCHMARK(BM_DefineConceptOnPopulatedDb)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace classic::bench

BENCHMARK_MAIN();
