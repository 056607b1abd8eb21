// Propagation determinism harness: atomic rollback and order confluence.
//
// The contract under test (kb/propagate.h): deduction in CLASSIC is
// monotone over a bounded lattice (paper Section 5: "every individual
// can move into a class at most once"), so the fixed point is confluent —
// any admissible processing order lands on the same derived state — and a
// rejected update leaves no trace.
//
// The harness generates 200 seeded random knowledge bases across
// role-graph shapes — chains, stars, cliques, disconnected islands,
// uniform random graphs — spiked with forward rules (including an
// individual-mentioning consequent), SAME-AS merges through single-valued
// attributes, deliberately contradictory bounds, and closed edges whose
// holder's recognition depends on its filler (so a filler's change must
// cascade back to the holder). Each program is asserted one operation at
// a time, and two properties must hold:
//
//  (a) rollback: after every rejected AssertInd — including those
//      rejected mid-wavefront, after recognition and rule firing — the
//      canonical derived state (derived normal forms, closed roles, MSC
//      sets, fired rules, instance indexes) is byte-identical to its
//      value before the call, and after every operation the KB's indexes
//      match its states (CheckIndexes);
//  (b) confluence: the accepted operations, replayed into a fresh
//      database in two other seeded orders and as one BulkAssert batch,
//      are all accepted again and derive byte-identical canonical state.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "classic/database.h"
#include "index_check.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace classic {
namespace {

void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }

enum class Shape { kChain, kStar, kClique, kIslands, kRandom };

const Shape kShapes[] = {Shape::kChain, Shape::kStar, Shape::kClique,
                         Shape::kIslands, Shape::kRandom};

using Program = std::vector<std::pair<std::string, std::string>>;

struct TrialSpec {
  uint64_t seed = 0;
  Shape shape = Shape::kChain;
  bool with_rules = false;     // concept-consequent rules
  bool with_ind_rule = false;  // FILLS-consequent rule (mentions I0)
};

// One generated knowledge base: how many individuals it creates, and the
// assertion program run against them.
struct Trial {
  size_t num_inds = 0;
  Program program;
};

std::string IndName(size_t i) { return StrCat("I", i); }

void Shuffle(Program* program, Rng* rng) {
  for (size_t i = program->size(); i > 1; --i) {
    std::swap((*program)[i - 1], (*program)[rng->Below(i)]);
  }
}

// Role edges (from, to) over n individuals for one graph shape.
std::vector<std::pair<size_t, size_t>> MakeEdges(Shape shape, size_t n,
                                                 Rng* rng) {
  std::vector<std::pair<size_t, size_t>> edges;
  switch (shape) {
    case Shape::kChain:
      for (size_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
      break;
    case Shape::kStar:
      // Half the spokes point at the hub, half away: cascades must
      // travel both ways, forward along fillers and back to the holders
      // of a changed filler.
      for (size_t i = 1; i < n; ++i) {
        if (i % 2 == 0) {
          edges.emplace_back(0, i);
        } else {
          edges.emplace_back(i, 0);
        }
      }
      break;
    case Shape::kClique:
      // Blocks of 5, all ordered pairs inside a block.
      for (size_t lo = 0; lo < n; lo += 5) {
        const size_t hi = std::min(lo + 5, n);
        for (size_t i = lo; i < hi; ++i) {
          for (size_t j = lo; j < hi; ++j) {
            if (i != j) edges.emplace_back(i, j);
          }
        }
      }
      break;
    case Shape::kIslands:
      // Blocks of 4, a random in-block target per individual — many
      // small independent components.
      for (size_t i = 0; i < n; ++i) {
        const size_t lo = (i / 4) * 4;
        const size_t hi = std::min(lo + 4, n);
        edges.emplace_back(i, lo + rng->Below(hi - lo));
      }
      break;
    case Shape::kRandom:
      for (size_t i = 0; i < 2 * n; ++i) {
        edges.emplace_back(rng->Below(n), rng->Below(n));
      }
      break;
  }
  return edges;
}

Trial MakeTrial(const TrialSpec& spec) {
  Trial trial;
  Rng rng(spec.seed);
  const size_t n = 16 + rng.Below(33);  // 16..48 individuals
  trial.num_inds = n;

  // Assertion program: shape edges plus sprinkled memberships, value
  // restrictions, bounds (sometimes contradictory, sometimes only one
  // role step away) and attribute fills (two distinct a0 fillers on one
  // owner force a SAME-AS merge).
  //
  // Some edges are closed: at most one per holder, asserted as one
  // (FILLS r2 to) + (CLOSE r2) operation, and nothing else fills r2, so
  // the closure is the same {to} in every order and in a bulk batch.
  // Whether the holder is a D3 — (ALL r2 P1) — then depends on its
  // filler's types, and must be re-decided whenever the filler changes.
  // An (AT-MOST 0 r2) holder is a D3 vacuously.
  Program& program = trial.program;
  std::vector<bool> closed(n, false);
  for (const auto& [from, to] : MakeEdges(spec.shape, n, &rng)) {
    if (!closed[from] && rng.Chance(0.2)) {
      closed[from] = true;
      program.emplace_back(IndName(from), StrCat("(AND (FILLS r2 ", IndName(to),
                                                 ") (CLOSE r2))"));
      continue;
    }
    program.emplace_back(
        IndName(from), StrCat("(FILLS r", rng.Below(2), " ", IndName(to), ")"));
  }
  for (size_t i = 0; i < n; ++i) {
    const std::string name = IndName(i);
    if (rng.Chance(0.6)) program.emplace_back(name, StrCat("P", rng.Below(4)));
    if (rng.Chance(0.2)) program.emplace_back(name, "D0");
    if (rng.Chance(0.15)) program.emplace_back(name, "(ALL r0 P1)");
    if (rng.Chance(0.08)) {
      // Tight bound: contradicts when the individual already carries
      // more fillers.
      program.emplace_back(name, StrCat("(AT-MOST ", rng.Below(2), " r0)"));
    }
    if (rng.Chance(0.1)) program.emplace_back(name, "D2");
    if (rng.Chance(0.05)) program.emplace_back(name, "(AT-MOST 0 r2)");
  }
  for (int k = 0; k < 3; ++k) {
    if (rng.Chance(0.5)) {
      const std::string owner = IndName(rng.Below(n));
      program.emplace_back(owner,
                           StrCat("(FILLS a0 ", IndName(rng.Below(n)), ")"));
      program.emplace_back(owner,
                           StrCat("(FILLS a0 ", IndName(rng.Below(n)), ")"));
    }
  }
  // Seed-driven order: the properties may not depend on assertion order
  // being favorable.
  Shuffle(&program, &rng);
  return trial;
}

// Schema, rules and individuals, identical for every run of one trial so
// canonical dumps are comparable across databases. Small schema with
// enough structure for ALL-propagation, bounds, realization and
// attribute-driven merges. D2 contradicts one role step away (an r0
// filler with r0 fillers of its own), so some updates are rejected
// mid-wavefront, after other individuals have already changed; through
// the P2 rule the contradiction lands a wave after recognition and rule
// firing, so rollback must also undo instance-index inserts and
// fired-rule marks. D3 is recognized through closed r2 edges (see
// MakeTrial); the D3 rule turns a cascade's recognition into new facts,
// and through P2 into contradictions found waves later.
void SetUpTrial(const TrialSpec& spec, size_t num_inds, Database* db) {
  for (int i = 0; i < 3; ++i) Must(db->DefineRole(StrCat("r", i)));
  Must(db->DefineAttribute("a0"));
  for (int i = 0; i < 4; ++i) {
    Must(db->DefineConcept(StrCat("P", i),
                           StrCat("(PRIMITIVE CLASSIC-THING p", i, ")")));
  }
  Must(db->DefineConcept("D0", "(AND P0 (ALL r0 P1))"));
  Must(db->DefineConcept("D1", "(AND P1 (AT-LEAST 1 r1))"));
  Must(db->DefineConcept("D2", "(AND P2 (ALL r0 (AT-MOST 0 r0)))"));
  Must(db->DefineConcept("D3", "(ALL r2 P1)"));
  if (spec.with_rules) {
    Must(db->AssertRule("P1", "(ALL r1 P2)"));
    Must(db->AssertRule("P2", "D2"));
    Must(db->AssertRule("P3", "D0"));
    Must(db->AssertRule("D3", "P2"));
  }
  for (size_t i = 0; i < num_inds; ++i) Must(db->CreateIndividual(IndName(i)));
  if (spec.with_ind_rule) {
    // Firing this rule adds role edges no assertion states directly.
    Must(db->AssertRule("P0", StrCat("(FILLS r1 ", IndName(0), ")")));
  }
}

// Replays `ops` into a fresh database of the same trial — one AssertInd
// at a time, or as one BulkAssert batch — and returns its canonical
// derived state. Every operation must be accepted.
std::string Replay(const TrialSpec& spec, size_t num_inds, const Program& ops,
                   bool bulk, const std::string& where) {
  Database db;
  SetUpTrial(spec, num_inds, &db);
  if (bulk) {
    Status st = db.BulkAssert(ops);
    EXPECT_TRUE(st.ok()) << where << ": " << st.ToString();
  } else {
    for (const auto& [name, expr] : ops) {
      Status st = db.AssertInd(name, expr);
      EXPECT_TRUE(st.ok()) << where << ": " << name << " " << expr << ": "
                           << st.ToString();
    }
  }
  return db.kb().CanonicalDerivedState();
}

TEST(PropagateDeterminism, RollbackAndOrderConfluenceAcross200RandomKbs) {
  size_t trials = 0;
  size_t rejected_ops = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (Shape shape : kShapes) {
      TrialSpec spec;
      spec.seed = seed * 1000003;
      spec.shape = shape;
      spec.with_rules = (seed % 2) == 0;
      spec.with_ind_rule = (seed % 8) == 0;
      const std::string where =
          StrCat("seed=", spec.seed, " shape=", static_cast<int>(shape));
      const Trial trial = MakeTrial(spec);

      // (a) Every rejected operation leaves the derived state untouched.
      Database db;
      SetUpTrial(spec, trial.num_inds, &db);
      if (HasFatalFailure()) return;
      Program accepted;
      for (const auto& op : trial.program) {
        const std::string before = db.kb().CanonicalDerivedState();
        const bool ok = db.AssertInd(op.first, op.second).ok();
        ASSERT_TRUE(CheckIndexes(db.kb()))
            << where << ": after " << (ok ? "accepted " : "rejected ")
            << op.first << " " << op.second;
        if (ok) {
          accepted.push_back(op);
          continue;
        }
        ++rejected_ops;
        ASSERT_EQ(before, db.kb().CanonicalDerivedState())
            << where << ": rejected " << op.first << " " << op.second;
      }
      const std::string expected = db.kb().CanonicalDerivedState();

      // (b) The accepted subset is order- and batching-independent.
      for (uint64_t k = 1; k <= 2; ++k) {
        Program reordered = accepted;
        Rng order_rng(spec.seed + k);
        Shuffle(&reordered, &order_rng);
        ASSERT_EQ(expected, Replay(spec, trial.num_inds, reordered,
                                   /*bulk=*/false, StrCat(where, " order=", k)))
            << where << " order=" << k;
      }
      ASSERT_EQ(expected, Replay(spec, trial.num_inds, accepted,
                                 /*bulk=*/true, StrCat(where, " bulk")))
          << where << " bulk";
      ++trials;
    }
  }
  EXPECT_EQ(trials, 200u);
  // The program generator must actually exercise the rollback path.
  EXPECT_GT(rejected_ops, 500u);
}

// Duplicate seeds in one wavefront used to cost a full re-derivation
// each; the worklist engine dedupes them. Propagating {i, i, i} must do
// exactly the work of propagating {i}.
TEST(PropagateDeterminism, DuplicateSeedsAreDeduped) {
  Database db;
  Must(db.DefineRole("r0"));
  Must(db.DefineConcept("P0", "(PRIMITIVE CLASSIC-THING p0)"));
  Must(db.CreateIndividual("A"));
  Must(db.CreateIndividual("B"));
  Must(db.AssertInd("A", "(FILLS r0 B)"));
  Must(db.AssertInd("A", "P0"));

  auto ind = db.FindIndividual("A");
  ASSERT_TRUE(ind.ok()) << ind.status().ToString();

  KnowledgeBase& kb = db.kb();
  const uint64_t before_single = kb.stats().propagation_steps;
  Must(kb.Propagate({*ind}));
  const uint64_t single = kb.stats().propagation_steps - before_single;
  ASSERT_GT(single, 0u);

  const uint64_t before_triple = kb.stats().propagation_steps;
  Must(kb.Propagate({*ind, *ind, *ind}));
  const uint64_t triple = kb.stats().propagation_steps - before_triple;
  EXPECT_EQ(triple, single);
}

// Repropagate() from quiescence is a no-op on derived state: the fixed
// point is already reached.
TEST(PropagateDeterminism, RepropagationIsIdempotent) {
  Database db;
  Must(db.DefineRole("r0"));
  Must(db.DefineConcept("P0", "(PRIMITIVE CLASSIC-THING p0)"));
  Must(db.DefineConcept("D0", "(AND P0 (ALL r0 P0))"));
  for (int i = 0; i < 12; ++i) {
    Must(db.CreateIndividual(StrCat("I", i)));
  }
  for (int i = 0; i < 12; ++i) {
    Must(db.AssertInd(StrCat("I", i),
                      StrCat("(FILLS r0 I", (i + 1) % 12, ")")));
  }
  Must(db.AssertInd("I0", "D0"));
  const std::string before = db.kb().CanonicalDerivedState();
  Must(db.kb().Repropagate());
  EXPECT_EQ(before, db.kb().CanonicalDerivedState());
}

}  // namespace
}  // namespace classic
