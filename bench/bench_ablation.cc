// E7 — Ablations of the two implementation choices DESIGN.md calls out:
//
//  (a) classification-based candidate pruning in query answering
//      (vs the naive full scan), measured head-to-head on one fixture;
//  (b) hash-consing ("interning") of normal forms in the Normalizer
//      (vs allocating every form fresh), measured on repeated
//      normalization of overlapping expressions — the schema-heavy
//      pattern the paper's preprocessing relies on.

#include <benchmark/benchmark.h>

#include "classic/database.h"
#include "desc/normalize.h"
#include "obs/metrics.h"
#include "query/query.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic::bench {
namespace {

struct AblationFixture {
  Database db;
  Query selective;
  Query broad;

  AblationFixture() {
    StandardWorkload w =
        BuildStandardWorkload(&db, /*num_concepts=*/120,
                              /*num_individuals=*/1024, /*seed=*/11);
    auto& sym = db.kb().vocab().symbols();
    auto parse = [&](const std::string& s) {
      auto q = ParseQueryString(s, &sym);
      if (!q.ok()) std::abort();
      return *q;
    };
    selective = parse(StrCat("(AND ", w.schema.primitive_names[3],
                             " (AT-LEAST 1 ", w.schema.role_names[0], "))"));
    broad = parse(StrCat("(AT-LEAST 1 ", w.schema.role_names[0], ")"));
  }
};

AblationFixture* Fixture() {
  static auto* fx = new AblationFixture();
  return fx;
}

void BM_Ablation_QueryPruningOn(benchmark::State& state) {
  auto* fx = Fixture();
  const Query& q = state.range(0) == 0 ? fx->selective : fx->broad;
  size_t tested = 0;
  for (auto _ : state) {
    auto r = Retrieve(fx->db.kb(), q);
    if (!r.ok()) {
      state.SkipWithError("retrieve failed");
      return;
    }
    tested = r->stats.candidates_tested;
    benchmark::DoNotOptimize(r);
  }
  state.counters["tested"] = static_cast<double>(tested);
  state.SetLabel(state.range(0) == 0 ? "selective" : "broad");
}
BENCHMARK(BM_Ablation_QueryPruningOn)->Arg(0)->Arg(1);

void BM_Ablation_QueryPruningOff(benchmark::State& state) {
  auto* fx = Fixture();
  const Query& q = state.range(0) == 0 ? fx->selective : fx->broad;
  size_t tested = 0;
  for (auto _ : state) {
    auto r = RetrieveNaive(fx->db.kb(), q);
    if (!r.ok()) {
      state.SkipWithError("retrieve failed");
      return;
    }
    tested = r->stats.candidates_tested;
    benchmark::DoNotOptimize(r);
  }
  state.counters["tested"] = static_cast<double>(tested);
  state.SetLabel(state.range(0) == 0 ? "selective" : "broad");
}
BENCHMARK(BM_Ablation_QueryPruningOff)->Arg(0)->Arg(1);

void RunInterningBench(benchmark::State& state, bool intern) {
  // Many expressions sharing value restrictions: the pattern where
  // hash-consing pays.
  Database db;
  PrepareExpressionVocabulary(&db);
  std::vector<DescPtr> exprs;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    exprs.push_back(MakeConceptOfSize(&db, 128, 77));  // identical seeds
    exprs.push_back(MakeConceptOfSize(&db, 128, 78 + (seed % 2)));
  }
  Normalizer norm(&db.kb().vocab(), Normalizer::Options{intern});
  obs::CounterDeltaScope window;
  size_t n = 0;
  for (auto _ : state) {
    auto nf = norm.NormalizeConcept(exprs[n % exprs.size()]);
    if (!nf.ok()) {
      state.SkipWithError("normalize failed");
      return;
    }
    benchmark::DoNotOptimize(nf);
    ++n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(n));
  if (intern) {
    state.counters["store_hits"] = static_cast<double>(
        window.Deltas()[static_cast<size_t>(obs::Counter::kInternHits)]);
    state.counters["store_size"] = static_cast<double>(norm.store().size());
  }
}

void BM_Ablation_InterningOn(benchmark::State& state) {
  RunInterningBench(state, /*intern=*/true);
}
BENCHMARK(BM_Ablation_InterningOn);

void BM_Ablation_InterningOff(benchmark::State& state) {
  RunInterningBench(state, /*intern=*/false);
}
BENCHMARK(BM_Ablation_InterningOff);

}  // namespace
}  // namespace classic::bench

BENCHMARK_MAIN();
