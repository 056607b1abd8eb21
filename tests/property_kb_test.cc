// Property-based tests at the knowledge-base level, over randomized
// update sequences (parameterized by seed):
//
//   - monotonicity: accepted updates never shrink any concept extension
//     ("every individual can move into a class at most once");
//   - atomicity: a rejected update leaves every individual's derived
//     description untouched;
//   - agreement: classified retrieval equals the naive scan on random
//     queries;
//   - consistency: the answer set and the possible set never overlap;
//   - possible set: engine ask-possible equals a reference scan, on the
//     master and on a published snapshot, over a generator with disjoint
//     primitives, SAME-AS, ALL-only assertions and host literals;
//   - persistence: snapshot + reload reproduces every extension;
//   - retraction: retract + reassert returns to the same state.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "classic/database.h"
#include "desc/parser.h"
#include "index_check.h"
#include "kb/kb_engine.h"
#include "query/query.h"
#include "storage/snapshot.h"
#include "subsume/subsume.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace classic {
namespace {

constexpr size_t kConcepts = 8;
constexpr size_t kRoles = 4;
constexpr size_t kInds = 14;
/// Members of the one disjoint-primitive group (G0 .. G2).
constexpr size_t kGroupMembers = 3;

/// Builds a random-but-consistent database; records which updates were
/// accepted.
class RandomDb {
 public:
  explicit RandomDb(uint64_t seed) : rng_(seed) {
    Must(db_.DefineRole("q0"));
    Must(db_.DefineRole("q1"));
    Must(db_.DefineAttribute("q2"));
    Must(db_.DefineAttribute("q3"));
    for (size_t i = 0; i < kConcepts / 2; ++i) {
      Must(db_.DefineConcept(StrCat("P", i),
                             StrCat("(PRIMITIVE CLASSIC-THING pp", i, ")")));
    }
    for (size_t i = 0; i < kConcepts / 2; ++i) {
      Must(db_.DefineConcept(
          StrCat("D", i),
          StrCat("(AND P", i % (kConcepts / 2), " (AT-LEAST 1 q",
                 i % kRoles, "))")));
    }
    for (size_t i = 0; i < kGroupMembers; ++i) {
      Must(db_.DefineConcept(
          StrCat("G", i),
          StrCat("(DISJOINT-PRIMITIVE CLASSIC-THING grp g", i, ")")));
    }
    for (size_t i = 0; i < kInds; ++i) {
      Must(db_.CreateIndividual(StrCat("X", i)));
    }
  }

  /// One random update; returns true if it was accepted.
  bool Step() {
    std::string ind = StrCat("X", rng_.Below(kInds));
    std::string expr;
    switch (rng_.Below(6)) {
      case 0:
        expr = StrCat("P", rng_.Below(kConcepts / 2));
        break;
      case 1:
        expr = StrCat("D", rng_.Below(kConcepts / 2));
        break;
      case 2:
        expr = StrCat("(FILLS q", rng_.Below(kRoles), " X",
                      rng_.Below(kInds), ")");
        break;
      case 3:
        expr = StrCat("(AT-LEAST ", 1 + rng_.Below(2), " q",
                      rng_.Below(kRoles), ")");
        break;
      case 4:
        expr = StrCat("(AT-MOST ", 1 + rng_.Below(3), " q",
                      rng_.Below(kRoles), ")");
        break;
      case 5:
        expr = StrCat("(ALL q", rng_.Below(kRoles), " P",
                      rng_.Below(kConcepts / 2), ")");
        break;
    }
    Status st = db_.AssertInd(ind, expr);
    EXPECT_TRUE(CheckIndexes(db_.kb())) << ind << " " << expr;
    if (st.ok()) accepted_.emplace_back(ind, expr);
    return st.ok();
  }

  /// Step, or one of the updates ask-possible's exclusion test reasons
  /// about: host fillers, closed roles, host-typed and enumerated value
  /// restrictions, disjoint primitives (asserted, or only under ALL),
  /// SAME-AS over the attributes and host literals not seen before.
  bool RichStep() {
    std::string ind = StrCat("X", rng_.Below(kInds));
    std::string expr;
    switch (rng_.Below(12)) {
      case 0:
        expr = StrCat("(FILLS q", rng_.Below(kRoles), " ", rng_.Below(3), ")");
        break;
      case 1:
        expr = StrCat("(FILLS q", rng_.Below(kRoles), " \"s", rng_.Below(2),
                      "\")");
        break;
      case 2:
        expr = StrCat("(CLOSE q", rng_.Below(kRoles), ")");
        break;
      case 3:
        expr = StrCat("(ALL q", rng_.Below(kRoles), " NUMBER)");
        break;
      case 4:
        expr = StrCat("(ALL q", rng_.Below(kRoles), " (ONE-OF X",
                      rng_.Below(kInds), " X", rng_.Below(kInds), "))");
        break;
      case 5:
        expr = StrCat("G", rng_.Below(kGroupMembers));
        break;
      case 6:
        expr = StrCat("(ALL q", rng_.Below(kRoles), " G",
                      rng_.Below(kGroupMembers), ")");
        break;
      case 7:
        expr = "(SAME-AS (q2) (q3))";
        break;
      case 8:
        expr = StrCat("(FILLS q", rng_.Below(kRoles), " ", 10 + rng_.Below(90),
                      ")");
        break;
      default:
        return Step();
    }
    Status st = db_.AssertInd(ind, expr);
    EXPECT_TRUE(CheckIndexes(db_.kb())) << ind << " " << expr;
    if (st.ok()) accepted_.emplace_back(ind, expr);
    return st.ok();
  }

  std::map<std::string, std::vector<std::string>> Extensions() {
    std::map<std::string, std::vector<std::string>> out;
    for (size_t i = 0; i < kConcepts / 2; ++i) {
      out[StrCat("P", i)] = Get(StrCat("P", i));
      out[StrCat("D", i)] = Get(StrCat("D", i));
    }
    return out;
  }

  std::vector<std::string> Get(const std::string& name) {
    auto r = db_.InstancesOf(name);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : std::vector<std::string>{};
  }

  Database& db() { return db_; }
  Rng& rng() { return rng_; }
  const std::vector<std::pair<std::string, std::string>>& accepted() const {
    return accepted_;
  }

 private:
  void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }

  Database db_;
  Rng rng_;
  std::vector<std::pair<std::string, std::string>> accepted_;
};

class KbPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KbPropertyTest, ExtensionsGrowMonotonically) {
  RandomDb rdb(GetParam());
  auto before = rdb.Extensions();
  for (int step = 0; step < 40; ++step) {
    rdb.Step();
    auto after = rdb.Extensions();
    for (const auto& [name, ext] : before) {
      for (const auto& member : ext) {
        EXPECT_NE(std::find(after[name].begin(), after[name].end(), member),
                  after[name].end())
            << member << " vanished from " << name << " at step " << step;
      }
    }
    before = std::move(after);
  }
}

TEST_P(KbPropertyTest, RejectedUpdatesLeaveNoTrace) {
  RandomDb rdb(GetParam() * 7 + 1);
  for (int i = 0; i < 30; ++i) rdb.Step();
  // Snapshot all derived descriptions.
  auto snapshot = [&]() {
    std::vector<std::string> out;
    for (size_t i = 0; i < kInds; ++i) {
      auto d = rdb.db().DescribeIndividual(StrCat("X", i));
      EXPECT_TRUE(d.ok());
      out.push_back(d.ok() ? *d : "");
    }
    return out;
  };
  int rejected = 0;
  for (int i = 0; i < 60 && rejected < 5; ++i) {
    auto before = snapshot();
    bool ok = rdb.Step();
    if (!ok) {
      ++rejected;
      EXPECT_EQ(before, snapshot()) << "rejected update mutated state";
    }
  }
}

TEST_P(KbPropertyTest, ClassifiedRetrievalEqualsNaive) {
  RandomDb rdb(GetParam() * 13 + 5);
  for (int i = 0; i < 50; ++i) rdb.Step();
  auto& symbols = rdb.db().kb().vocab().symbols();
  Rng& rng = rdb.rng();
  for (int q = 0; q < 12; ++q) {
    std::string text;
    switch (rng.Below(4)) {
      case 0:
        text = StrCat("P", rng.Below(kConcepts / 2));
        break;
      case 1:
        text = StrCat("(AND P", rng.Below(kConcepts / 2), " (AT-LEAST 1 q",
                      rng.Below(kRoles), "))");
        break;
      case 2:
        text = StrCat("(AT-MOST ", rng.Below(3), " q", rng.Below(kRoles),
                      ")");
        break;
      case 3:
        text = StrCat("(FILLS q", rng.Below(kRoles), " X",
                      rng.Below(kInds), ")");
        break;
    }
    auto query = ParseQueryString(text, &symbols);
    ASSERT_TRUE(query.ok()) << text;
    auto pruned = Retrieve(rdb.db().kb(), *query);
    auto naive = RetrieveNaive(rdb.db().kb(), *query);
    ASSERT_TRUE(pruned.ok() && naive.ok());
    EXPECT_EQ(pruned->answers, naive->answers) << text;
  }
}

TEST_P(KbPropertyTest, DefiniteAndPossibleAreDisjoint) {
  RandomDb rdb(GetParam() * 19 + 3);
  for (int i = 0; i < 40; ++i) rdb.Step();
  for (size_t c = 0; c < kConcepts / 2; ++c) {
    std::string name = StrCat("D", c);
    auto definite = rdb.db().Ask(name);
    auto possible = rdb.db().AskPossible(name);
    ASSERT_TRUE(definite.ok() && possible.ok());
    for (const auto& d : *definite) {
      EXPECT_EQ(std::find(possible->begin(), possible->end(), d),
                possible->end())
          << d << " is both definite and merely-possible for " << name;
    }
  }
}

/// Reference ask-possible: every visible individual that does not satisfy
/// the query, is not a non-member of its ONE-OF, and whose state's meet
/// with the query is coherent.
std::vector<std::string> NaivePossible(const KnowledgeBase& kb,
                                       const std::string& text) {
  auto q = ParseQueryString(text, &kb.vocab().symbols());
  EXPECT_TRUE(q.ok()) << text;
  auto nf = kb.normalizer().NormalizeConcept(q->full);
  EXPECT_TRUE(nf.ok()) << text;
  const NormalForm& query = **nf;
  std::vector<std::string> out;
  for (IndId i = 0; i < kb.num_visible_individuals(); ++i) {
    if (kb.Satisfies(i, query)) continue;
    if (query.enumeration() && query.enumeration()->count(i) == 0) continue;
    if (MeetNormalForms(*kb.state(i).derived, query, kb.vocab())
            ->incoherent()) {
      continue;
    }
    out.push_back(kb.vocab().IndividualName(i));
  }
  return out;
}

/// Engine ask-possible against NaivePossible on `kb`, for every query.
void ExpectPossibleEqualsNaive(const KnowledgeBase& kb,
                               const std::vector<std::string>& queries,
                               const std::string& where) {
  for (const std::string& text : queries) {
    QueryAnswer a = KbEngine::ServeQuery(kb, QueryRequest::AskPossible(text));
    ASSERT_TRUE(a.status.ok()) << text << ": " << a.status.ToString();
    EXPECT_EQ(a.values.ToVector(), NaivePossible(kb, text))
        << text << " on the " << where;
  }
}

TEST_P(KbPropertyTest, PossibleEqualsNaive) {
  RandomDb rdb(GetParam() * 43 + 17);
  for (int i = 0; i < 80; ++i) rdb.RichStep();
  Rng& rng = rdb.rng();
  std::vector<std::string> queries = {
      "THING", "INTEGER", "(ONE-OF X1 X2 X3)", "(AND P0 (ONE-OF X0 X5))",
      "(AT-MOST 0 q0)", "(AT-MOST 0 q2)", "(AND D1 (AT-MOST 0 q1))",
      "(ALL q0 INTEGER)", "(ALL q1 STRING)", "(ALL q0 (ONE-OF X1 X2))",
      "(FILLS q0 1)", "(FILLS q1 \"s0\")", "(AT-LEAST 3 q1)",
      "(AND (AT-MOST 1 q0) (FILLS q0 X1))",
      "(ALL q2 (AND (ALL q0 P1) (AT-LEAST 1 q1)))",
      "(AND (ONE-OF X0 X1 X2 X3 X4 X5 X6) (AT-MOST 0 q0))",
      "(AND (ONE-OF X7 X8 X9 X10 X11 X12 X13) (ALL q1 STRING))",
      "G0", "(AND G1 P2)", "(AND (AT-LEAST 1 q0) (ALL q0 G2))",
      "(SAME-AS (q2) (q3))", "(AND G2 (SAME-AS (q3) (q2)))",
      "(ALL q3 (AND G0 (AT-MOST 0 q1)))", "CLASSIC-THING", "NUMBER",
      "(ONE-OF 1 X3 \"s1\")", "(AND (FILLS q1 42) (ALL q1 G1))"};
  for (int n = 0; n < 16; ++n) {
    const uint64_t r = rng.Below(kRoles);
    switch (rng.Below(6)) {
      case 0:
        queries.push_back(StrCat("(AND D", rng.Below(kConcepts / 2),
                                 " (AT-MOST 0 q", r, "))"));
        break;
      case 1:
        queries.push_back(StrCat("(ALL q", r, " (ONE-OF X", rng.Below(kInds),
                                 " ", rng.Below(3), "))"));
        break;
      case 2:
        queries.push_back(StrCat("(AND P", rng.Below(kConcepts / 2),
                                 " (AT-MOST ", rng.Below(2), " q", r,
                                 ") (ALL q", r, " P",
                                 rng.Below(kConcepts / 2), "))"));
        break;
      case 3:
        queries.push_back(StrCat("(AND (FILLS q", r, " X", rng.Below(kInds),
                                 ") (ALL q", r, " NUMBER))"));
        break;
      case 4:
        queries.push_back(StrCat("(AND G", rng.Below(kGroupMembers),
                                 " (AT-LEAST 1 q", r, ") (ALL q", r, " G",
                                 rng.Below(kGroupMembers), "))"));
        break;
      case 5:
        queries.push_back(StrCat("(AND (FILLS q", r, " ", 10 + rng.Below(90),
                                 ") (AT-MOST 1 q", r, "))"));
        break;
    }
  }
  ExpectPossibleEqualsNaive(rdb.db().kb(), queries, "master");
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  SnapshotPtr snap = engine.PublishFrom(rdb.db().kb());
  EXPECT_TRUE(CheckIndexes(snap->kb()));
  ExpectPossibleEqualsNaive(snap->kb(), queries, "snapshot");
}

// The role site holds every record, not just fillers, AT-MOST or CLOSE:
// a state that holds only (ALL r C) clashes with a query that needs an
// r-filler restricted to a primitive disjoint from C.
TEST(PossibleSurfaceTest, ValueRestrictionOnlyStateIsExcluded) {
  Database db;
  ASSERT_TRUE(db.DefineRole("r").ok());
  ASSERT_TRUE(
      db.DefineConcept("C", "(DISJOINT-PRIMITIVE CLASSIC-THING grp c)").ok());
  ASSERT_TRUE(
      db.DefineConcept("D", "(DISJOINT-PRIMITIVE CLASSIC-THING grp d)").ok());
  ASSERT_TRUE(db.CreateIndividual("Open").ok());
  ASSERT_TRUE(db.CreateIndividual("OnlyAll", "(ALL r C)").ok());
  EXPECT_TRUE(CheckIndexes(db.kb()));
  const std::string query = "(AND (AT-LEAST 1 r) (ALL r D))";
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  SnapshotPtr snap = engine.PublishFrom(db.kb());
  const KnowledgeBase& master = db.kb();
  for (const KnowledgeBase* kb : {&master, &snap->kb()}) {
    QueryAnswer a = KbEngine::ServeQuery(*kb, QueryRequest::AskPossible(query));
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    EXPECT_EQ(a.values.ToVector(), std::vector<std::string>{"Open"});
    EXPECT_EQ(a.values.ToVector(), NaivePossible(*kb, query));
  }
}

// Host individuals come from the vocabulary: a literal a snapshot reader
// interns never reaches propagation, yet it is visible, and excluded by
// its host type, in the next epoch.
TEST(PossibleSurfaceTest, HostLiteralInternedByReaderIsExcluded) {
  Database db;
  ASSERT_TRUE(db.DefineRole("r").ok());
  ASSERT_TRUE(db.CreateIndividual("A").ok());
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  SnapshotPtr first = engine.PublishFrom(db.kb());
  const IndId before = first->kb().num_visible_individuals();
  ASSERT_TRUE(
      KbEngine::ServeQuery(first->kb(), QueryRequest::Ask("(FILLS r 4242)"))
          .status.ok());
  SnapshotPtr second = engine.PublishFrom(db.kb());
  ASSERT_GT(second->kb().num_visible_individuals(), before);
  EXPECT_TRUE(CheckIndexes(second->kb()));
  for (const std::string query :
       {"(AND CLASSIC-THING (AT-MOST 0 r))", "CLASSIC-THING"}) {
    QueryAnswer a =
        KbEngine::ServeQuery(second->kb(), QueryRequest::AskPossible(query));
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    EXPECT_EQ(a.values.ToVector(), NaivePossible(second->kb(), query)) << query;
    EXPECT_EQ(std::find(a.values.begin(), a.values.end(), "4242"),
              a.values.end())
        << query;
  }
}

TEST_P(KbPropertyTest, SnapshotReloadPreservesExtensions) {
  RandomDb rdb(GetParam() * 29 + 11);
  for (int i = 0; i < 40; ++i) rdb.Step();
  std::string path =
      StrCat(::testing::TempDir(), "/classic_prop_", GetParam(), ".snap");
  ASSERT_TRUE(rdb.db().SaveSnapshot(path).ok());
  Database restored;
  ASSERT_TRUE(restored.LoadFile(path).ok());
  for (size_t c = 0; c < kConcepts / 2; ++c) {
    for (const char* prefix : {"P", "D"}) {
      std::string name = StrCat(prefix, c);
      auto a = rdb.db().InstancesOf(name);
      auto b = restored.InstancesOf(name);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b) << name;
    }
  }
  std::remove(path.c_str());
}

TEST_P(KbPropertyTest, RetractReassertRoundTrips) {
  RandomDb rdb(GetParam() * 37 + 23);
  for (int i = 0; i < 30; ++i) rdb.Step();
  if (rdb.accepted().empty()) return;
  // Pick an accepted assertion, snapshot, retract it, reassert, compare.
  const auto& [ind, expr] =
      rdb.accepted()[rdb.rng().Below(rdb.accepted().size())];
  std::string before = storage::DumpDatabase(rdb.db().kb());
  ASSERT_TRUE(rdb.db().RetractInd(ind, expr).ok()) << ind << " " << expr;
  EXPECT_TRUE(CheckIndexes(rdb.db().kb()))
      << "retracted " << ind << " " << expr;
  Status st = rdb.db().AssertInd(ind, expr);
  EXPECT_TRUE(CheckIndexes(rdb.db().kb()))
      << "reasserted " << ind << " " << expr;
  ASSERT_TRUE(st.ok()) << st.ToString();
  // The base (and hence all derivations) is restored up to assertion
  // order within the individual; extensions must match exactly.
  RandomDb fresh(GetParam() * 37 + 23);
  for (int i = 0; i < 30; ++i) fresh.Step();
  for (size_t c = 0; c < kConcepts / 2; ++c) {
    EXPECT_EQ(rdb.Get(StrCat("D", c)), fresh.Get(StrCat("D", c)));
  }
  (void)before;
}

TEST_P(KbPropertyTest, SubsumptionImpliesExtensionContainment) {
  // Soundness link between the terminological and assertional levels: if
  // A subsumes B by definition, then every recognized instance of B is a
  // recognized instance of A, whatever the data.
  RandomDb rdb(GetParam() * 41 + 9);
  for (int i = 0; i < 50; ++i) rdb.Step();
  auto& kbm = rdb.db().kb();
  auto& symbols = kbm.vocab().symbols();
  std::vector<std::string> exprs;
  for (size_t c = 0; c < kConcepts / 2; ++c) {
    exprs.push_back(StrCat("P", c));
    exprs.push_back(StrCat("D", c));
  }
  for (size_t r = 0; r < kRoles; ++r) {
    exprs.push_back(StrCat("(AT-LEAST 1 q", r, ")"));
    exprs.push_back(StrCat("(AND P0 (AT-LEAST 1 q", r, "))"));
  }
  auto norm = [&](const std::string& s) {
    auto d = ParseDescriptionString(s, &symbols);
    EXPECT_TRUE(d.ok());
    auto nf = kbm.normalizer().NormalizeConcept(*d);
    EXPECT_TRUE(nf.ok());
    return *nf;
  };
  auto answers = [&](const std::string& s) {
    auto q = ParseQueryString(s, &symbols);
    EXPECT_TRUE(q.ok());
    auto r = Retrieve(kbm, *q);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->answers : std::vector<IndId>{};
  };
  for (const auto& a : exprs) {
    for (const auto& b : exprs) {
      if (!Subsumes(*norm(a), *norm(b))) continue;
      auto ea = answers(a);
      auto eb = answers(b);
      for (IndId i : eb) {
        EXPECT_NE(std::find(ea.begin(), ea.end(), i), ea.end())
            << "instance of " << b << " missing from subsumer " << a;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KbPropertyTest,
                         ::testing::Range<uint64_t>(1, 17));

}  // namespace
}  // namespace classic
