// E2 — Schema classification cost vs schema size.
//
// Paper, Section 5: concepts entering the schema are "compared to each
// other to establish the subsumption hierarchy", with the two-phase
// most-specific-subsumer / most-general-subsumee search. This bench
// measures (a) the cost of classifying one new concept into schemas of
// growing size and (b) the total subsumption tests per insert, showing
// that the top-down pruning keeps the test count well below the
// all-pairs bound. BM_ClassifyWideQuery times a point ask directly under
// the root primitive: a query that lists a filler, whose bottom-up search
// probes only nodes that list a filler or are incoherent.

#include <benchmark/benchmark.h>

#include <string>

#include "classic/database.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic::bench {
namespace {

/// Classifies `text` (not inserted) against `db`'s taxonomy in the timing
/// loop; reports the taxonomy size and the subsumptions the last call
/// computed.
void ClassifyLoop(benchmark::State& state, Database& db,
                  const std::string& text) {
  auto d = ParseDescriptionString(text, &db.kb().vocab().symbols());
  if (!d.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  auto nf = db.kb().normalizer().NormalizeConcept(*d);
  if (!nf.ok()) {
    state.SkipWithError("normalize failed");
    return;
  }

  size_t tests = 0;
  for (auto _ : state) {
    Classification cls = db.kb().taxonomy().Classify(**nf);
    tests = cls.subsumption_tests;
    benchmark::DoNotOptimize(cls);
  }
  state.counters["schema_nodes"] =
      static_cast<double>(db.kb().taxonomy().num_nodes());
  state.counters["subsumption_tests"] = static_cast<double>(tests);
}

void BM_ClassifyIntoSchema(benchmark::State& state) {
  const size_t schema_size = static_cast<size_t>(state.range(0));
  Database db;
  SchemaSpec spec;
  spec.num_primitives = schema_size / 2;
  spec.num_defined = schema_size - spec.num_primitives;
  spec.seed = 42;
  SchemaHandles schema = BuildSchema(&db, spec);

  // Classify a fresh concept under a leaf primitive.
  ClassifyLoop(state, db,
               StrCat("(AND ", schema.primitive_names.back(), " (AT-LEAST 1 ",
                      schema.role_names[0], "))"));
  state.counters["allpairs_bound"] =
      static_cast<double>(db.kb().taxonomy().num_nodes() * 2);
}
BENCHMARK(BM_ClassifyIntoSchema)->RangeMultiplier(2)->Range(32, 1024);

// The wide query: (AND <root primitive> (FILLS role0 <ind>)) sits directly
// under PRIM-0 — the shape of the wire benchmark's point-read asks. Only
// a node that lists a filler (or is incoherent) can be its subsumee, and
// the standard schema has none, so the bottom-up phase that would search
// the root's whole subtree is skipped: what remains is the top-down
// phase over PRIM-0 and its first layer, flat in the schema size.
void BM_ClassifyWideQuery(benchmark::State& state) {
  const size_t schema_size = static_cast<size_t>(state.range(0));
  Database db;
  StandardWorkload w = BuildStandardWorkload(&db, schema_size, 64);
  ClassifyLoop(state, db,
               StrCat("(AND ", w.schema.primitive_names[0], " (FILLS ",
                      w.schema.role_names[0], " ", w.individuals[0], "))"));
}
BENCHMARK(BM_ClassifyWideQuery)->Arg(256)->Arg(1024);

void BM_BuildWholeSchema(benchmark::State& state) {
  const size_t schema_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Database db;
    SchemaSpec spec;
    spec.num_primitives = schema_size / 2;
    spec.num_defined = schema_size - spec.num_primitives;
    spec.seed = 42;
    SchemaHandles schema = BuildSchema(&db, spec);
    benchmark::DoNotOptimize(schema);
    state.counters["insert_tests_total"] =
        static_cast<double>(db.kb().taxonomy().total_insert_tests());
  }
  state.counters["concepts"] = static_cast<double>(schema_size);
}
BENCHMARK(BM_BuildWholeSchema)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace classic::bench

BENCHMARK_MAIN();
