// E8 — Snapshot-isolated parallel query serving (kb/kb_engine.h).
//
// Measures, on the 1024-concept standard workload:
//
//   - BM_QueryBatch/T: wall-clock time to serve a fixed mixed batch on
//     an engine built with a serving concurrency of T threads, against
//     one published epoch. The 1 -> 8 scaling factor is the headline number
//     (bench/run_parallel_bench.sh derives it into BENCH_parallel.json);
//     on a single-core container it degenerates to ~1x, which the JSON
//     records alongside the detected core count.
//   - BM_Publish/N: cost of copying + freezing + installing a new epoch
//     on an N-individual database (N in {1k, 8k, 64k}), i.e. the
//     writer-side price of snapshot isolation. Publication is
//     copy-on-write — O(mutations since the last publish) — so the
//     steady-state cost is flat across N (each iteration republishes an
//     unmutated database: the delta floor).
//   - BM_PublishDelta/N: one mutation, then publish, on the same
//     databases; only the publish is timed. This is the honest O(delta)
//     number: delta = 1 assertion, N = 1k vs 64k should be within a
//     small constant of each other.
//   - BM_SnapshotAcquire: reader-side cost of grabbing the current epoch
//     (one mutex-guarded shared_ptr copy).
//
// All request generation is deterministic in fixed seeds.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kb/kb_engine.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload.h"

namespace classic::bench {
namespace {

constexpr size_t kConcepts = 1024;
constexpr size_t kIndividuals = 1024;
constexpr size_t kBatchSize = 256;

std::vector<QueryRequest> MakeMixedRequests(const StandardWorkload& w,
                                            size_t count, uint64_t seed) {
  Rng rng(seed);
  auto pick = [&rng](const std::vector<std::string>& v) -> const std::string& {
    return v[rng.Below(v.size())];
  };
  std::vector<QueryRequest> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    QueryRequest r;
    switch (rng.Below(6)) {
      case 0:
        r = QueryRequest::Ask(pick(w.schema.defined_names));
        break;
      case 1:
        r = QueryRequest::Ask(StrCat("(AND ", pick(w.schema.primitive_names),
                                     " (AT-LEAST 1 ", pick(w.schema.role_names),
                                     "))"));
        break;
      case 2:
        r = QueryRequest::AskPossible(pick(w.schema.defined_names));
        break;
      case 3:
        r = QueryRequest::PathQuery(
            StrCat("(select (?x ?y) (?x ", pick(w.schema.defined_names),
                   ") (?x ", pick(w.schema.role_names), " ?y))"));
        break;
      case 4:
        r = QueryRequest::DescribeIndividual(pick(w.individuals));
        break;
      case 5:
        r = QueryRequest::InstancesOf(pick(w.schema.defined_names));
        break;
    }
    out.push_back(std::move(r));
  }
  return out;
}

struct ParallelFixture {
  Database db;
  KbEngine engine;
  SnapshotPtr snapshot;
  std::vector<QueryRequest> requests;

  ParallelFixture() {
    StandardWorkload w =
        BuildStandardWorkload(&db, kConcepts, kIndividuals, /*seed=*/42);
    snapshot = engine.PublishFrom(db.kb());
    requests = MakeMixedRequests(w, kBatchSize, /*seed=*/0xBEEF);
    // Warm the logically-const caches (normal forms, host literals) once
    // so every thread count measures the same steady state.
    engine.QueryBatch(requests, /*num_threads=*/1);
  }
};

ParallelFixture& Fixture() {
  static ParallelFixture* fx = new ParallelFixture();
  return *fx;
}

void BM_QueryBatch(benchmark::State& state) {
  ParallelFixture& fx = Fixture();
  const size_t threads = static_cast<size_t>(state.range(0));
  // An engine's pool is sized once, at construction; this one serves the
  // fixture's warm epoch.
  KbEngine engine(KbEngine::Options{.num_threads = threads});
  size_t answers = 0;
  for (auto _ : state) {
    std::vector<QueryAnswer> out =
        engine.QueryBatchOn(*fx.snapshot, fx.requests);
    answers = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["batch_size"] = static_cast<double>(answers);
  state.counters["requests_per_s"] = benchmark::Counter(
      static_cast<double>(answers * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QueryBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// A database scaled to `num_individuals` for the publish sweep. Light
/// fill density: publish cost depends on store sizes, not fill fan-out,
/// and 64k individuals must stay buildable in bench setup time.
struct PublishFixture {
  Database db;
  KbEngine engine;
  SchemaHandles schema;
  std::vector<std::string> individuals;

  explicit PublishFixture(size_t num_individuals) {
    SchemaSpec sspec;
    sspec.num_primitives = 96;
    sspec.num_defined = 96;
    sspec.num_roles = 12;
    sspec.seed = 42;
    schema = BuildSchema(&db, sspec);
    // A dedicated role no concept restricts: BM_PublishDelta's probe
    // assertions can never trip a bound or value restriction.
    (void)db.DefineRole("delta-probe");
    AboxSpec aspec;
    aspec.num_individuals = num_individuals;
    aspec.fills_per_individual = 1;
    aspec.seed = 7;
    individuals = PopulateIndividuals(&db, schema, aspec);
    engine.PublishFrom(db.kb());
  }
};

PublishFixture& PublishFixtureFor(size_t num_individuals) {
  static auto* cache = new std::map<size_t, std::unique_ptr<PublishFixture>>();
  std::unique_ptr<PublishFixture>& slot = (*cache)[num_individuals];
  if (slot == nullptr) slot = std::make_unique<PublishFixture>(num_individuals);
  return *slot;
}

void BM_Publish(benchmark::State& state) {
  PublishFixture& fx = PublishFixtureFor(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    SnapshotPtr snap = fx.engine.PublishFrom(fx.db.kb());
    benchmark::DoNotOptimize(snap);
  }
  state.counters["individuals"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Publish)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_PublishDelta(benchmark::State& state) {
  PublishFixture& fx = PublishFixtureFor(static_cast<size_t>(state.range(0)));
  size_t next = 0;
  int64_t probe_value = 1000000;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string& ind = fx.individuals[next++ % fx.individuals.size()];
    Status st = fx.db.AssertInd(
        ind, StrCat("(FILLS delta-probe ", probe_value++, ")"));
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    state.ResumeTiming();
    SnapshotPtr snap = fx.engine.PublishFrom(fx.db.kb());
    benchmark::DoNotOptimize(snap);
  }
  state.counters["individuals"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PublishDelta)->Arg(1024)->Arg(65536)->Iterations(256);

void BM_SnapshotAcquire(benchmark::State& state) {
  ParallelFixture& fx = Fixture();
  for (auto _ : state) {
    SnapshotPtr snap = fx.engine.snapshot();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_SnapshotAcquire);

}  // namespace
}  // namespace classic::bench

BENCHMARK_MAIN();
