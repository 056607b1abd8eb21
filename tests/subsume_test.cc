// Unit tests for structural subsumption (the core inference).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "desc/normalize.h"
#include "desc/parser.h"
#include "subsume/subsume.h"
#include "util/rng.h"

namespace classic {
namespace {

class SubsumeTest : public ::testing::Test {
 protected:
  SubsumeTest() : norm_(&vocab_) {
    EXPECT_TRUE(vocab_.DefineRole("r").ok());
    EXPECT_TRUE(vocab_.DefineRole("s").ok());
    EXPECT_TRUE(vocab_.DefineRole("a", true).ok());
    EXPECT_TRUE(vocab_.DefineRole("b", true).ok());
    EXPECT_TRUE(vocab_.DefineRole("c", true).ok());
    EXPECT_TRUE(vocab_.CreateIndividual("X").ok());
    EXPECT_TRUE(vocab_.CreateIndividual("Y").ok());
    EXPECT_TRUE(vocab_.CreateIndividual("Z").ok());
    EXPECT_TRUE(
        vocab_.RegisterTest("t1", [](const TestArg&) { return true; }).ok());
    EXPECT_TRUE(
        vocab_.RegisterTest("t2", [](const TestArg&) { return true; }).ok());
  }

  NormalFormPtr NF(const std::string& text) {
    auto d = ParseDescriptionString(text, &vocab_.symbols());
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    auto nf = norm_.NormalizeConcept(*d);
    EXPECT_TRUE(nf.ok()) << nf.status().ToString();
    return *nf;
  }

  bool Sub(const std::string& general, const std::string& specific) {
    return Subsumes(*NF(general), *NF(specific));
  }
  bool Eq(const std::string& x, const std::string& y) {
    return Equivalent(*NF(x), *NF(y));
  }

  Vocabulary vocab_;
  Normalizer norm_;
};

TEST_F(SubsumeTest, ThingSubsumesEverything) {
  EXPECT_TRUE(Sub("THING", "THING"));
  EXPECT_TRUE(Sub("THING", "(PRIMITIVE CLASSIC-THING car)"));
  EXPECT_TRUE(Sub("THING", "(AND (AT-LEAST 1 r) (AT-MOST 1 r))"));
  EXPECT_FALSE(Sub("(AT-LEAST 1 r)", "THING"));
}

TEST_F(SubsumeTest, BottomIsSubsumedByEverything) {
  const char* bottom = "(AND (AT-LEAST 1 r) (AT-MOST 0 r))";
  EXPECT_TRUE(Sub("(PRIMITIVE CLASSIC-THING p)", bottom));
  EXPECT_FALSE(Sub(bottom, "THING"));
  EXPECT_TRUE(Sub(bottom, bottom));
}

TEST_F(SubsumeTest, PrimitiveRequiresAtom) {
  EXPECT_TRUE(Sub("(PRIMITIVE CLASSIC-THING car)",
                  "(AND (PRIMITIVE CLASSIC-THING car) (AT-LEAST 3 r))"));
  EXPECT_FALSE(Sub("(PRIMITIVE CLASSIC-THING car)",
                   "(PRIMITIVE CLASSIC-THING truck)"));
}

TEST_F(SubsumeTest, PrimitiveParentIsNecessary) {
  // SPORTS-CAR-ish (primitive under car-prim) is subsumed by car-prim.
  EXPECT_TRUE(Sub("(PRIMITIVE CLASSIC-THING car)",
                  "(PRIMITIVE (PRIMITIVE CLASSIC-THING car) sports-car)"));
  EXPECT_FALSE(Sub("(PRIMITIVE (PRIMITIVE CLASSIC-THING car) sports-car)",
                   "(PRIMITIVE CLASSIC-THING car)"));
}

TEST_F(SubsumeTest, CardinalityDirections) {
  EXPECT_TRUE(Sub("(AT-LEAST 1 r)", "(AT-LEAST 2 r)"));
  EXPECT_FALSE(Sub("(AT-LEAST 2 r)", "(AT-LEAST 1 r)"));
  EXPECT_TRUE(Sub("(AT-MOST 5 r)", "(AT-MOST 3 r)"));
  EXPECT_FALSE(Sub("(AT-MOST 3 r)", "(AT-MOST 5 r)"));
}

TEST_F(SubsumeTest, AllIsCovariant) {
  EXPECT_TRUE(Sub("(ALL r (PRIMITIVE CLASSIC-THING car))",
                  "(ALL r (PRIMITIVE (PRIMITIVE CLASSIC-THING car) sc))"));
  EXPECT_FALSE(Sub("(ALL r (PRIMITIVE (PRIMITIVE CLASSIC-THING car) sc))",
                   "(ALL r (PRIMITIVE CLASSIC-THING car))"));
}

TEST_F(SubsumeTest, AllVacuousWhenNoFillersPossible) {
  // (AT-MOST 0 r) entails (ALL r C) for any C.
  EXPECT_TRUE(
      Sub("(ALL r (PRIMITIVE CLASSIC-THING car))", "(AT-MOST 0 r)"));
}

TEST_F(SubsumeTest, FillsIsMonotone) {
  EXPECT_TRUE(Sub("(FILLS r X)", "(FILLS r X Y)"));
  EXPECT_FALSE(Sub("(FILLS r X Y)", "(FILLS r X)"));
}

TEST_F(SubsumeTest, FillsEntailsAtLeast) {
  EXPECT_TRUE(Sub("(AT-LEAST 2 r)", "(FILLS r X Y)"));
  EXPECT_FALSE(Sub("(AT-LEAST 3 r)", "(FILLS r X Y)"));
}

TEST_F(SubsumeTest, EnumerationSubsetting) {
  EXPECT_TRUE(Sub("(ONE-OF X Y Z)", "(ONE-OF X Y)"));
  EXPECT_FALSE(Sub("(ONE-OF X Y)", "(ONE-OF X Y Z)"));
  EXPECT_FALSE(Sub("(ONE-OF X Y)", "(PRIMITIVE CLASSIC-THING car)"));
}

TEST_F(SubsumeTest, TestsCompareByName) {
  EXPECT_TRUE(Sub("(TEST t1)", "(AND (TEST t1) (TEST t2))"));
  EXPECT_FALSE(Sub("(TEST t1)", "(TEST t2)"));
  EXPECT_TRUE(Eq("(TEST t1)", "(AND (TEST t1) (TEST t1))"));
}

TEST_F(SubsumeTest, BuiltinHierarchy) {
  EXPECT_TRUE(Sub("NUMBER", "INTEGER"));
  EXPECT_TRUE(Sub("HOST-THING", "STRING"));
  EXPECT_FALSE(Sub("INTEGER", "NUMBER"));
  EXPECT_TRUE(Sub("HOST-THING", "(ONE-OF 1 2)"));
  EXPECT_TRUE(Sub("INTEGER", "(ONE-OF 1 2)"));
  EXPECT_FALSE(Sub("INTEGER", "(ONE-OF 1 \"x\")"));
}

TEST_F(SubsumeTest, PaperEquivalenceAllOverAnd) {
  EXPECT_TRUE(Eq("(AND (ALL r (PRIMITIVE CLASSIC-THING car)) "
                 "(ALL r (PRIMITIVE CLASSIC-THING expensive)))",
                 "(ALL r (AND (PRIMITIVE CLASSIC-THING car) "
                 "(PRIMITIVE CLASSIC-THING expensive)))"));
}

TEST_F(SubsumeTest, PaperEquivalenceEnumerations) {
  EXPECT_TRUE(Eq("(ALL r (AND (ONE-OF X Y) (ONE-OF Y Z)))",
                 "(AND (ALL r (ONE-OF Y)) (AT-MOST 1 r))"));
}

TEST_F(SubsumeTest, ExactlyOneMacroEquivalence) {
  EXPECT_TRUE(Eq("(EXACTLY-ONE r)", "(AND (AT-LEAST 1 r) (AT-MOST 1 r))"));
}

TEST_F(SubsumeTest, SameAsEntailment) {
  // Equating (a)(b) and (b)(c) entails (a)(c).
  EXPECT_TRUE(Sub("(SAME-AS (a) (c))",
                  "(AND (SAME-AS (a) (b)) (SAME-AS (b) (c)))"));
  EXPECT_FALSE(Sub("(AND (SAME-AS (a) (b)) (SAME-AS (b) (c)))",
                   "(SAME-AS (a) (c))"));
}

TEST_F(SubsumeTest, SameAsCongruence) {
  // a == b entails a.c == b.c.
  EXPECT_TRUE(Sub("(SAME-AS (a c) (b c))", "(SAME-AS (a) (b))"));
  EXPECT_FALSE(Sub("(SAME-AS (a) (b))", "(SAME-AS (a c) (b c))"));
}

TEST_F(SubsumeTest, SameAsReflexivityIsTrivial) {
  EXPECT_TRUE(Sub("(SAME-AS (a) (a))", "THING"));
}

TEST_F(SubsumeTest, SubsumptionIsReflexiveAndTransitive) {
  const char* exprs[] = {
      "THING",
      "(PRIMITIVE CLASSIC-THING p)",
      "(AND (PRIMITIVE CLASSIC-THING p) (AT-LEAST 1 r))",
      "(AND (PRIMITIVE CLASSIC-THING p) (AT-LEAST 2 r) "
      "(ALL r (PRIMITIVE CLASSIC-THING q)))",
  };
  for (const char* e : exprs) EXPECT_TRUE(Sub(e, e)) << e;
  // chain: exprs[i] subsumes exprs[i+1]
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(Sub(exprs[i], exprs[i + 1]));
  }
  EXPECT_TRUE(Sub(exprs[0], exprs[3]));
  EXPECT_TRUE(Sub(exprs[1], exprs[3]));
}

TEST_F(SubsumeTest, DisjointnessDetection) {
  EXPECT_TRUE(Disjoint(
      *NF("(DISJOINT-PRIMITIVE CLASSIC-THING g m)"),
      *NF("(DISJOINT-PRIMITIVE CLASSIC-THING g f)"), vocab_));
  EXPECT_TRUE(Disjoint(*NF("(ONE-OF X)"), *NF("(ONE-OF Y)"), vocab_));
  EXPECT_TRUE(Disjoint(*NF("(AT-LEAST 2 r)"), *NF("(AT-MOST 1 r)"), vocab_));
  EXPECT_FALSE(
      Disjoint(*NF("(AT-LEAST 1 r)"), *NF("(AT-MOST 1 r)"), vocab_));
  EXPECT_TRUE(Disjoint(*NF("INTEGER"), *NF("CLASSIC-THING"), vocab_));
}

/// Random tightened normal forms, built through NormalForm's builder
/// interface so that every constraint Tighten reasons about can appear —
/// CLOSE included, which no concept expression states. Small pools of
/// roles, atoms and individuals make the two sides of a pair collide.
class RandomForms {
 public:
  RandomForms(const Vocabulary& vocab, uint64_t seed)
      : vocab_(vocab), rng_(seed) {
    for (const char* r : {"r", "a", "s", "b"}) {
      roles_.push_back(*vocab.FindRole(vocab.symbols().Intern(r)));
    }
    for (const char* a : {"a", "b"}) {
      attributes_.push_back(*vocab.FindRole(vocab.symbols().Intern(a)));
    }
    SymbolTable& sym = vocab.symbols();
    atoms_ = {vocab.classic_thing_atom(),
              vocab.host_thing_atom(),
              vocab.builtin_atom(BuiltinConcept::kInteger),
              vocab.builtin_atom(BuiltinConcept::kReal),
              vocab.builtin_atom(BuiltinConcept::kNumber),
              vocab.builtin_atom(BuiltinConcept::kString),
              vocab.builtin_atom(BuiltinConcept::kBoolean),
              vocab.PrimitiveAtom(sym.Intern("p")),
              vocab.PrimitiveAtom(sym.Intern("q")),
              *vocab.DisjointPrimitiveAtom(sym.Intern("g"), sym.Intern("m")),
              *vocab.DisjointPrimitiveAtom(sym.Intern("g"), sym.Intern("f")),
              *vocab.DisjointPrimitiveAtom(sym.Intern("h"), sym.Intern("u")),
              *vocab.DisjointPrimitiveAtom(sym.Intern("h"), sym.Intern("v"))};
    for (const char* i : {"X", "Y", "Z"}) {
      inds_.push_back(*vocab.FindIndividual(sym.Intern(i)));
    }
    for (const HostValue& v :
         {HostValue::Integer(1), HostValue::Integer(2), HostValue::Real(2.5),
          HostValue::String("s"), HostValue::Boolean(true)}) {
      inds_.push_back(vocab.InternHostValue(v));
    }
    tests_ = {sym.Intern("t1"), sym.Intern("t2")};
  }

  /// A tightened form whose value restrictions nest `depth` more levels.
  NormalFormPtr Make(int depth) {
    // Mostly coherent forms (a pair with an incoherent side is decided
    // before any real work), but incoherent ones too, at every depth.
    for (;;) {
      NormalFormPtr nf = Attempt(depth);
      if (!nf->incoherent() || rng_.Chance(0.1)) return nf;
    }
  }

 private:
  NormalFormPtr Attempt(int depth) {
    NormalForm nf;
    for (uint64_t n = rng_.Below(3); n > 0; --n) nf.AddAtom(Atom(), vocab_);
    if (rng_.Chance(0.12)) {
      IdSet<IndId> members;
      for (uint64_t n = 1 + rng_.Below(3); n > 0; --n) members.insert(Ind());
      nf.IntersectEnumeration(members);
    }
    if (rng_.Chance(0.2)) nf.AddTest(tests_[rng_.Below(tests_.size())]);
    for (uint64_t n = rng_.Below(4); n > 0; --n) {
      // Two of the four roles take most constraints, so pairs collide.
      RoleRestriction* rr = nf.MutableRole(
          roles_[rng_.Chance(0.75) ? rng_.Below(2) : 2 + rng_.Below(2)],
          vocab_);
      if (rng_.Chance(0.5)) {
        rr->at_least = std::max<uint32_t>(rr->at_least, rng_.Below(3));
      }
      if (rng_.Chance(0.35)) {
        rr->at_most = std::min<uint32_t>(rr->at_most, rng_.Below(4));
      }
      if (rng_.Chance(0.45)) {
        for (uint64_t k = 1 + rng_.Below(2); k > 0; --k) {
          rr->fillers.insert(Ind());
        }
      }
      if (rng_.Chance(0.15)) rr->closed = true;
      if (depth > 0 && rng_.Chance(0.6)) {
        NormalFormPtr vr = Make(depth - 1);
        rr->value_restriction =
            rr->value_restriction
                ? MeetNormalForms(*rr->value_restriction, *vr, vocab_)
                : vr;
      }
    }
    if (rng_.Chance(0.1)) {
      RolePath p = Path();
      RolePath q = Path();
      if (p != q) nf.mutable_coref()->Equate(p, q);
    }
    nf.Tighten(vocab_);
    return std::make_shared<const NormalForm>(std::move(nf));
  }

  /// CLASSIC-THING and user primitives more often than host builtins,
  /// which clash with most of the rest.
  AtomId Atom() {
    const uint64_t roll = rng_.Below(10);
    if (roll < 3) return atoms_[0];                      // CLASSIC-THING
    if (roll < 8) return atoms_[7 + rng_.Below(6)];      // user primitives
    return atoms_[1 + rng_.Below(6)];                    // host builtins
  }

  /// Classic individuals about twice as often as host values.
  IndId Ind() {
    return rng_.Chance(0.65) ? inds_[rng_.Below(3)]
                             : inds_[3 + rng_.Below(inds_.size() - 3)];
  }

  /// A SAME-AS chain of one or two attributes.
  RolePath Path() {
    RolePath p = {attributes_[rng_.Below(attributes_.size())]};
    if (rng_.Chance(0.3)) {
      p.push_back(attributes_[rng_.Below(attributes_.size())]);
    }
    return p;
  }

  const Vocabulary& vocab_;
  Rng rng_;
  std::vector<RoleId> roles_;
  std::vector<RoleId> attributes_;
  std::vector<AtomId> atoms_;
  std::vector<IndId> inds_;
  std::vector<Symbol> tests_;
};

TEST_F(SubsumeTest, DisjointMatchesMeetIncoherence) {
  // Differential: Disjoint must give MeetNormalForms' verdict on every
  // pair of tightened forms, nested value restrictions to depth 3
  // (incoherent ones included), SAME-AS chains, ONE-OF, TEST, CLOSE, host
  // builtins and host fillers.
  RandomForms gen(vocab_, 20261017);
  std::vector<NormalFormPtr> pool;
  for (int i = 0; i < 600; ++i) pool.push_back(gen.Make(3));
  Rng pick(7);
  size_t coherent_pairs = 0;
  size_t disjoint_coherent_pairs = 0;
  size_t divergences = 0;
  for (int n = 0; n < 20000; ++n) {
    const NormalForm& a = *pool[pick.Below(pool.size())];
    const NormalForm& b = *pool[pick.Below(pool.size())];
    const bool meet = MeetNormalForms(a, b, vocab_)->incoherent();
    const bool disjoint = Disjoint(a, b, vocab_);
    if (DisjointProbe(b, vocab_).DisjointFrom(a) != disjoint) {
      ADD_FAILURE() << "DisjointProbe disagrees with Disjoint";
    }
    if (!a.incoherent() && !b.incoherent()) {
      ++coherent_pairs;
      if (meet) ++disjoint_coherent_pairs;
    }
    if (disjoint != meet && ++divergences <= 5) {
      ADD_FAILURE() << "Disjoint=" << disjoint << " but Meet incoherent="
                    << meet << "\n  a: " << a.ToString(vocab_)
                    << "\n  b: " << b.ToString(vocab_);
    }
  }
  EXPECT_EQ(divergences, 0u);
  // Both verdicts are well represented among coherent inputs.
  EXPECT_GT(coherent_pairs, 3000u);
  EXPECT_GT(disjoint_coherent_pairs, coherent_pairs / 10);
  EXPECT_LT(disjoint_coherent_pairs, coherent_pairs * 9 / 10);
}

TEST_F(SubsumeTest, ClosedDerivedStateSubsumption) {
  // general: closed role with exactly X; specific: FILLS X + AT-MOST 1.
  EXPECT_TRUE(Sub("(AND (FILLS r X) (AT-MOST 1 r))",
                  "(AND (FILLS r X) (AT-MOST 1 r))"));
  EXPECT_TRUE(Sub("(AT-MOST 1 r)", "(AND (FILLS r X) (AT-MOST 1 r))"));
}

}  // namespace
}  // namespace classic
