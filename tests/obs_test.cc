// The observability layer, single-threaded: exact counter accounting,
// per-answer stats, the Kind<->string mapping, histograms and trace
// spans. Everything here is deterministic — the counts asserted are
// exact, not lower bounds, so a change in inference behavior (an extra
// normalization, a lost memo hit) fails loudly.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace classic {
namespace {

using obs::Counter;
using obs::Op;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::ResetMetrics(); }
};

// --- Name mappings --------------------------------------------------------

TEST_F(ObsTest, CounterNamesRoundTrip) {
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    Counter c = static_cast<Counter>(i);
    auto back = obs::CounterFromName(obs::CounterName(c));
    ASSERT_TRUE(back.has_value()) << obs::CounterName(c);
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(obs::CounterFromName("no-such-counter").has_value());
}

TEST_F(ObsTest, OpNamesRoundTrip) {
  for (size_t i = 0; i < obs::kNumOps; ++i) {
    Op op = static_cast<Op>(i);
    auto back = obs::OpFromName(obs::OpName(op));
    ASSERT_TRUE(back.has_value()) << obs::OpName(op);
    EXPECT_EQ(*back, op);
  }
}

TEST_F(ObsTest, QueryKindNamesAreSharedWithOps) {
  EXPECT_STREQ(QueryKindName(QueryRequest::Kind::kAsk), "ask");
  EXPECT_STREQ(QueryKindName(QueryRequest::Kind::kPathQuery), "path-query");
  EXPECT_STREQ(QueryKindName(QueryRequest::Kind::kInstancesOf),
               "instances-of");

  EXPECT_EQ(QueryKindFromName("ask-possible"),
            QueryRequest::Kind::kAskPossible);
  EXPECT_EQ(QueryKindFromName("describe-individual"),
            QueryRequest::Kind::kDescribeIndividual);
  // The writer-side op has a histogram name but is not a request kind.
  EXPECT_FALSE(QueryKindFromName("publish").has_value());
  EXPECT_FALSE(QueryKindFromName("bogus").has_value());
}

TEST_F(ObsTest, NamedConstructorsSetKindAndText) {
  QueryRequest r = QueryRequest::Ask("STUDENT");
  EXPECT_EQ(r.kind, QueryRequest::Kind::kAsk);
  EXPECT_EQ(r.text, "STUDENT");
  EXPECT_EQ(QueryRequest::PathQuery("(select (?x) (?x PERSON))").kind,
            QueryRequest::Kind::kPathQuery);
  EXPECT_EQ(QueryRequest::MostSpecificConcepts("Rocky").text, "Rocky");
}

// --- Exact single-threaded counter accounting -----------------------------

#if CLASSIC_OBS

TEST_F(ObsTest, SubsumptionCheckCountsNormalizations) {
  Database db;
  ASSERT_TRUE(db.DefineRole("r").ok());
  ASSERT_TRUE(db.DefineConcept("A", "(PRIMITIVE CLASSIC-THING a)").ok());
  ASSERT_TRUE(db.DefineConcept("B", "(AND A (AT-LEAST 1 r))").ok());

  obs::CounterDeltaScope window;
  ASSERT_TRUE(db.Subsumes("A", "B").ok());
  obs::CounterArray d = window.Deltas();
  // Exactly the two operand expressions are normalized.
  EXPECT_EQ(d[static_cast<size_t>(Counter::kNormalizations)], 2u);
}

TEST_F(ObsTest, ServeQueryStatsAreExactAndMemoized) {
  Database db;
  ASSERT_TRUE(db.DefineRole("enrolled-at").ok());
  ASSERT_TRUE(db.DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING p)").ok());
  ASSERT_TRUE(
      db.DefineConcept("STUDENT", "(AND PERSON (AT-LEAST 1 enrolled-at))")
          .ok());
  ASSERT_TRUE(db.CreateIndividual("U").ok());
  ASSERT_TRUE(db.CreateIndividual("Rocky", "PERSON").ok());
  ASSERT_TRUE(db.AssertInd("Rocky", "(FILLS enrolled-at U)").ok());

  KbEngine engine(KbEngine::Options{.num_threads = 1});
  engine.PublishFrom(db.kb());
  SnapshotPtr snap = engine.snapshot();
  ASSERT_NE(snap, nullptr);

  const QueryRequest req = QueryRequest::Ask("STUDENT");
  QueryAnswer first = KbEngine::ServeQuery(snap->kb(), req);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.values.ToVector(), std::vector<std::string>{"Rocky"});

  // Every answer accounts for exactly itself as one served query, and
  // serving a query costs at least one query normalization.
  EXPECT_EQ(first.stats.counter(Counter::kQueriesServed), 1u);
  EXPECT_GE(first.stats.counter(Counter::kNormalizations), 1u);

  // A repeat of the same request on the same snapshot answers the
  // subsumption side from the memo: no new structural tests.
  QueryAnswer second = KbEngine::ServeQuery(snap->kb(), req);
  EXPECT_EQ(second.ToWire(), first.ToWire());
  EXPECT_EQ(second.stats.counter(Counter::kSubsumptionTests), 0u);

  // Engine-level registry totals picked the work up (the serve scope
  // flushes on destruction).
  obs::MetricsSnapshot m = engine.MetricsSnapshot();
  EXPECT_EQ(m.counter(Counter::kQueriesServed), 2u);
  EXPECT_EQ(m.counter(Counter::kEpochPublishes), 1u);
  EXPECT_GE(m.counter(Counter::kSnapshotAcquisitions), 1u);
}

// ask-possible runs one exclusion test per undecided individual on the
// query's exclusion surface: the state-site holders (disjoint
// primitives), the record holders of the roles the query constrains and
// the host individuals. A host atom in the query reaches every state.
TEST_F(ObsTest, AskPossibleCountsExclusionTestsOnTheSurface) {
  Database db;
  ASSERT_TRUE(db.DefineRole("r").ok());
  ASSERT_TRUE(db.DefineRole("s").ok());
  ASSERT_TRUE(
      db.DefineConcept("MALE", "(DISJOINT-PRIMITIVE CLASSIC-THING sex m)")
          .ok());
  ASSERT_TRUE(
      db.DefineConcept("FEMALE", "(DISJOINT-PRIMITIVE CLASSIC-THING sex f)")
          .ok());
  ASSERT_TRUE(db.CreateIndividual("A").ok());
  ASSERT_TRUE(db.CreateIndividual("B", "(FILLS r 5)").ok());
  ASSERT_TRUE(db.CreateIndividual("C", "(ALL s MALE)").ok());
  ASSERT_TRUE(db.CreateIndividual("D", "MALE").ok());
  ASSERT_TRUE(db.CreateIndividual("E", "FEMALE").ok());

  // Surface: D and E (grouped atoms), C (a record on s) and the host 5;
  // B's record is on r, which the query does not constrain. D and 5 are
  // excluded.
  QueryAnswer a = KbEngine::ServeQuery(
      db.kb(),
      QueryRequest::AskPossible("(AND FEMALE (AT-LEAST 1 s))").Explain());
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  EXPECT_EQ(a.stats.counter(Counter::kExclusionTests), 4u);
  const std::vector<std::string> values = a.values.ToVector();
  ASSERT_EQ(values.size(), 5u);
  EXPECT_NE(values[0].find("(exclusion-test est=6 act=2)"), std::string::npos)
      << values[0];
  EXPECT_EQ(std::vector<std::string>(values.begin() + 1, values.end()),
            (std::vector<std::string>{"A", "B", "C", "E"}));

  // The host 5 is the one definite INTEGER; all five others are tested.
  QueryAnswer host = KbEngine::ServeQuery(db.kb(),
                                          QueryRequest::AskPossible("INTEGER"));
  ASSERT_TRUE(host.status.ok()) << host.status.ToString();
  EXPECT_EQ(host.stats.counter(Counter::kExclusionTests), 5u);
  EXPECT_TRUE(host.values.empty());
}

TEST_F(ObsTest, MutationCountsPropagationWork) {
  Database db;
  ASSERT_TRUE(db.DefineRole("eat").ok());
  ASSERT_TRUE(db.DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING p)").ok());
  ASSERT_TRUE(db.DefineConcept("FOOD", "(PRIMITIVE CLASSIC-THING f)").ok());
  ASSERT_TRUE(db.AssertRule("PERSON", "(ALL eat FOOD)").ok());

  obs::CounterDeltaScope window;
  ASSERT_TRUE(db.CreateIndividual("Rocky", "PERSON").ok());
  obs::CounterArray d = window.Deltas();
  EXPECT_GE(d[static_cast<size_t>(Counter::kPropagationSteps)], 1u);
  EXPECT_EQ(d[static_cast<size_t>(Counter::kRuleFirings)], 1u);
  EXPECT_GE(d[static_cast<size_t>(Counter::kRealizations)], 1u);

  // Registry totals match the KB's own long-standing stats block.
  obs::CounterArray totals = obs::ReadCounters();
  EXPECT_EQ(totals[static_cast<size_t>(Counter::kRuleFirings)],
            db.kb().stats().rule_firings);
  EXPECT_EQ(totals[static_cast<size_t>(Counter::kPropagationSteps)],
            db.kb().stats().propagation_steps);
  EXPECT_EQ(totals[static_cast<size_t>(Counter::kRealizations)],
            db.kb().stats().realizations);
}

#endif  // CLASSIC_OBS

// --- Histograms -----------------------------------------------------------

TEST_F(ObsTest, HistogramBucketsAndPercentiles) {
  obs::RecordLatency(Op::kAsk, 1000);   // bucket (512, 1024]
  obs::RecordLatency(Op::kAsk, 1500);   // bucket (1024, 2048]
  obs::RecordLatency(Op::kAsk, 40000);  // bucket (32768, 65536]

  obs::HistogramView v = obs::OpHistogram(Op::kAsk).View(Op::kAsk);
  EXPECT_EQ(v.count, 3u);
  EXPECT_EQ(v.sum_ns, 42500u);
  EXPECT_EQ(v.min_ns, 1000u);
  EXPECT_EQ(v.max_ns, 40000u);
  // p50 falls in the second bucket, p99 in the last; the estimate is
  // within the sample's own octave.
  EXPECT_GE(v.p50_ns, 1024u);
  EXPECT_LE(v.p50_ns, 2048u);
  EXPECT_GE(v.p99_ns, 32768u);
  EXPECT_LE(v.p99_ns, 65536u);

  // Other ops are untouched.
  EXPECT_EQ(obs::OpHistogram(Op::kPublish).View(Op::kPublish).count, 0u);
}

TEST_F(ObsTest, RegistryJsonHasStableCounterCatalog) {
  std::string json = obs::SnapshotMetrics().ToJson();
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_NE(json.find(obs::CounterName(static_cast<Counter>(i))),
              std::string::npos)
        << obs::CounterName(static_cast<Counter>(i));
  }
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// --- Trace spans ----------------------------------------------------------

#if CLASSIC_OBS

TEST_F(ObsTest, TraceSpansNestWithParentIds) {
  obs::ClearTrace();
  obs::StartTracing();
  {
    obs::TraceSpan outer("outer");
    { obs::TraceSpan inner("inner"); }
  }
  obs::StopTracing();

  // Children finish (and record) before their parents.
  EXPECT_EQ(obs::TraceSpanCount(), 2u);
  std::string json = obs::TraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  ASSERT_NE(json.find("\"inner\""), std::string::npos);
  ASSERT_NE(json.find("\"outer\""), std::string::npos);

  // The inner span's parent is the outer span's id; the outer span is a
  // root (parent 0). Span ids are process-global, so extract them from
  // the events rather than assuming absolute values.
  auto field_after = [&json](const char* name, const char* field) -> uint64_t {
    size_t ev = json.find(name);
    size_t pos = json.find(field, ev);
    return std::strtoull(json.c_str() + pos + std::strlen(field), nullptr, 10);
  };
  const uint64_t outer_id = field_after("\"outer\"", "\"id\": ");
  EXPECT_EQ(field_after("\"inner\"", "\"parent\": "), outer_id);
  EXPECT_EQ(field_after("\"outer\"", "\"parent\": "), 0u);

  obs::ClearTrace();
  EXPECT_EQ(obs::TraceSpanCount(), 0u);
}

TEST_F(ObsTest, SpansOutsideTracingAreNotRecorded) {
  obs::ClearTrace();
  { obs::TraceSpan span("ignored"); }
  EXPECT_EQ(obs::TraceSpanCount(), 0u);
}

#endif  // CLASSIC_OBS

}  // namespace
}  // namespace classic
