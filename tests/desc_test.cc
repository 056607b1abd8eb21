// Unit tests for the description layer: AST construction/printing, the
// parser, host values, and the vocabulary.

#include <gtest/gtest.h>

#include <algorithm>

#include "desc/description.h"
#include "desc/host_value.h"
#include "desc/parser.h"
#include "desc/vocabulary.h"

namespace classic {
namespace {

class DescTest : public ::testing::Test {
 protected:
  SymbolTable symbols_;

  DescPtr P(const std::string& text) {
    auto r = ParseDescriptionString(text, &symbols_);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
    return r.ok() ? *r : nullptr;
  }
};

TEST_F(DescTest, ParsesPaperRichKid) {
  DescPtr d = P("(AND STUDENT (ALL thing-driven SPORTS-CAR) "
                "(AT-LEAST 2 thing-driven))");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->kind(), DescKind::kAnd);
  ASSERT_EQ(d->conjuncts().size(), 3u);
  EXPECT_EQ(d->conjuncts()[0]->kind(), DescKind::kConceptName);
  EXPECT_EQ(d->conjuncts()[1]->kind(), DescKind::kAll);
  EXPECT_EQ(d->conjuncts()[2]->kind(), DescKind::kAtLeast);
  EXPECT_EQ(d->conjuncts()[2]->bound(), 2u);
}

TEST_F(DescTest, ParsesBuiltins) {
  EXPECT_EQ(P("THING")->kind(), DescKind::kThing);
  EXPECT_EQ(P("CLASSIC-THING")->kind(), DescKind::kClassicThing);
  EXPECT_EQ(P("HOST-THING")->kind(), DescKind::kHostThing);
  EXPECT_EQ(P("INTEGER")->kind(), DescKind::kBuiltin);
  EXPECT_EQ(P("INTEGER")->builtin(), BuiltinConcept::kInteger);
  EXPECT_EQ(P("STRING")->builtin(), BuiltinConcept::kString);
}

TEST_F(DescTest, ParsesPrimitive) {
  DescPtr d = P("(PRIMITIVE THING car)");
  ASSERT_EQ(d->kind(), DescKind::kPrimitive);
  EXPECT_EQ(symbols_.Name(d->name()), "car");
  EXPECT_EQ(d->child()->kind(), DescKind::kThing);
}

TEST_F(DescTest, ParsesDisjointPrimitive) {
  DescPtr d = P("(DISJOINT-PRIMITIVE PERSON gender male)");
  ASSERT_EQ(d->kind(), DescKind::kDisjointPrimitive);
  EXPECT_EQ(symbols_.Name(d->group()), "gender");
  EXPECT_EQ(symbols_.Name(d->name()), "male");
}

TEST_F(DescTest, ParsesOneOfWithHostValues) {
  DescPtr d = P("(ONE-OF GM Ford 42 \"x\" #t)");
  ASSERT_EQ(d->kind(), DescKind::kOneOf);
  ASSERT_EQ(d->members().size(), 5u);
  EXPECT_TRUE(d->members()[0].is_named());
  EXPECT_TRUE(d->members()[2].host().IsInteger());
  EXPECT_TRUE(d->members()[3].host().IsString());
  EXPECT_TRUE(d->members()[4].host().IsBoolean());
}

TEST_F(DescTest, ParsesSameAs) {
  DescPtr d = P("(SAME-AS (driver) (insurance payer))");
  ASSERT_EQ(d->kind(), DescKind::kSameAs);
  ASSERT_EQ(d->path1().size(), 1u);
  ASSERT_EQ(d->path2().size(), 2u);
  EXPECT_EQ(symbols_.Name(d->path2()[1]), "payer");
}

TEST_F(DescTest, ParsesFillsAndClose) {
  DescPtr f = P("(FILLS thing-driven Volvo-17)");
  ASSERT_EQ(f->kind(), DescKind::kFills);
  DescPtr c = P("(CLOSE thing-driven)");
  ASSERT_EQ(c->kind(), DescKind::kClose);
}

TEST_F(DescTest, ExactlyMacroExpands) {
  DescPtr d = P("(EXACTLY 3 wheel)");
  ASSERT_EQ(d->kind(), DescKind::kAnd);
  ASSERT_EQ(d->conjuncts().size(), 2u);
  EXPECT_EQ(d->conjuncts()[0]->kind(), DescKind::kAtLeast);
  EXPECT_EQ(d->conjuncts()[0]->bound(), 3u);
  EXPECT_EQ(d->conjuncts()[1]->kind(), DescKind::kAtMost);
}

TEST_F(DescTest, ExactlyOneMacroExpands) {
  DescPtr d = P("(EXACTLY-ONE site)");
  ASSERT_EQ(d->kind(), DescKind::kAnd);
  EXPECT_EQ(d->conjuncts()[0]->bound(), 1u);
  EXPECT_EQ(d->conjuncts()[1]->bound(), 1u);
}

TEST_F(DescTest, SingletonAndCollapses) {
  DescPtr d = P("(AND STUDENT)");
  EXPECT_EQ(d->kind(), DescKind::kConceptName);
}

TEST_F(DescTest, RejectsBadArity) {
  EXPECT_FALSE(ParseDescriptionString("(ALL r)", &symbols_).ok());
  EXPECT_FALSE(ParseDescriptionString("(AT-LEAST r 2)", &symbols_).ok());
  EXPECT_FALSE(ParseDescriptionString("(PRIMITIVE)", &symbols_).ok());
  EXPECT_FALSE(ParseDescriptionString("(FILLS r)", &symbols_).ok());
}

TEST_F(DescTest, RejectsNegativeBound) {
  EXPECT_FALSE(ParseDescriptionString("(AT-MOST -1 r)", &symbols_).ok());
}

TEST_F(DescTest, RejectsUnknownConstructor) {
  EXPECT_FALSE(ParseDescriptionString("(OR A B)", &symbols_).ok());
  EXPECT_FALSE(ParseDescriptionString("(NOT A)", &symbols_).ok());
}

TEST_F(DescTest, RejectsEmptySameAsPath) {
  EXPECT_FALSE(ParseDescriptionString("(SAME-AS () (a))", &symbols_).ok());
}

TEST_F(DescTest, PrintingRoundTrips) {
  const std::string src =
      "(AND (PRIMITIVE THING crime) (AT-LEAST 1 perpetrator) "
      "(ALL perpetrator PERSON) (AT-MOST 1 site) "
      "(SAME-AS (site) (perpetrator domicile)))";
  DescPtr d = P(src);
  EXPECT_EQ(d->ToString(symbols_), src);
}

TEST_F(DescTest, TreeSizeCountsConstructors) {
  EXPECT_EQ(P("THING")->TreeSize(), 1u);
  EXPECT_GT(P("(AND A (ALL r (AND B C)))")->TreeSize(), 4u);
}

TEST(HostValueTest, TypesAndAccessors) {
  EXPECT_TRUE(HostValue::Integer(3).IsInteger());
  EXPECT_TRUE(HostValue::Integer(3).IsNumber());
  EXPECT_TRUE(HostValue::Real(2.5).IsNumber());
  EXPECT_FALSE(HostValue::String("x").IsNumber());
  EXPECT_EQ(HostValue::Integer(3).AsDouble(), 3.0);
  EXPECT_EQ(HostValue::Boolean(true).ToString(), "#t");
  EXPECT_EQ(HostValue::String("a\"b").ToString(), "\"a\\\"b\"");
}

TEST(HostValueTest, EqualityDistinguishesTypes) {
  EXPECT_NE(HostValue::Integer(1), HostValue::Real(1.0));
  EXPECT_EQ(HostValue::Integer(1), HostValue::Integer(1));
}

TEST(VocabularyTest, RolesAndAttributes) {
  Vocabulary v;
  auto r1 = v.DefineRole("thing-driven", false);
  ASSERT_TRUE(r1.ok());
  auto r2 = v.DefineRole("thing-driven", false);  // idempotent
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
  auto r3 = v.DefineRole("thing-driven", true);  // kind clash
  EXPECT_TRUE(r3.status().IsAlreadyExists());
}

TEST(VocabularyTest, DisjointAtoms) {
  Vocabulary v;
  Symbol gender = v.symbols().Intern("gender");
  Symbol male = v.symbols().Intern("male");
  Symbol female = v.symbols().Intern("female");
  auto a = v.DisjointPrimitiveAtom(gender, male);
  auto b = v.DisjointPrimitiveAtom(gender, female);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(v.AtomsDisjoint(*a, *b));
  EXPECT_FALSE(v.AtomsDisjoint(*a, *a));
  // Same index under a different group is rejected.
  Symbol age = v.symbols().Intern("age");
  EXPECT_FALSE(v.DisjointPrimitiveAtom(age, male).ok());
}

TEST(VocabularyTest, BuiltinAtomStructure) {
  Vocabulary v;
  EXPECT_TRUE(v.AtomsDisjoint(v.classic_thing_atom(), v.host_thing_atom()));
  EXPECT_TRUE(v.AtomsDisjoint(v.builtin_atom(BuiltinConcept::kInteger),
                              v.builtin_atom(BuiltinConcept::kString)));
  EXPECT_FALSE(v.AtomsDisjoint(v.builtin_atom(BuiltinConcept::kInteger),
                               v.builtin_atom(BuiltinConcept::kNumber)));
}

TEST(VocabularyTest, HostValueInterning) {
  Vocabulary v;
  IndId a = v.InternHostValue(HostValue::Integer(42));
  IndId b = v.InternHostValue(HostValue::Integer(42));
  IndId c = v.InternHostValue(HostValue::Integer(43));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(v.individual(a).kind, IndKind::kHost);
  EXPECT_EQ(v.IndividualName(a), "42");
}

TEST(VocabularyTest, IntrinsicAtoms) {
  Vocabulary v;
  IndId i = v.InternHostValue(HostValue::Integer(1));
  auto atoms = v.IntrinsicAtoms(i);
  EXPECT_EQ(atoms.size(), 3u);  // INTEGER, NUMBER, HOST-THING
  auto r = v.CreateIndividual("Rocky");
  ASSERT_TRUE(r.ok());
  auto ratoms = v.IntrinsicAtoms(*r);
  ASSERT_EQ(ratoms.size(), 1u);
  EXPECT_EQ(ratoms[0], v.classic_thing_atom());
}

TEST(VocabularyTest, DuplicateIndividualRejected) {
  Vocabulary v;
  ASSERT_TRUE(v.CreateIndividual("Rocky").ok());
  EXPECT_TRUE(v.CreateIndividual("Rocky").status().IsAlreadyExists());
}

TEST(VocabularyTest, AtomCompatibility) {
  Vocabulary v;
  IndId host = v.InternHostValue(HostValue::String("s"));
  IndId rocky = *v.CreateIndividual("Rocky");
  AtomId car = v.PrimitiveAtom(v.symbols().Intern("car"));
  // User primitives never apply to host individuals.
  EXPECT_FALSE(v.AtomCompatibleWithInd(car, host));
  EXPECT_TRUE(v.AtomCompatibleWithInd(car, rocky));
  // Built-ins apply intrinsically.
  EXPECT_TRUE(v.AtomCompatibleWithInd(
      v.builtin_atom(BuiltinConcept::kString), host));
  EXPECT_FALSE(v.AtomCompatibleWithInd(
      v.builtin_atom(BuiltinConcept::kInteger), host));
  EXPECT_FALSE(v.AtomCompatibleWithInd(v.host_thing_atom(), rocky));
}

TEST(VocabularyTest, BuiltinCompatibilityMatchesIntrinsicAtoms) {
  // AtomCompatibleWithInd reads the intrinsic-atom table without building
  // it; for every built-in atom it must agree with IntrinsicAtoms.
  Vocabulary v;
  const std::vector<IndId> inds = {
      *v.CreateIndividual("Rocky"),
      v.InternHostValue(HostValue::Integer(7)),
      v.InternHostValue(HostValue::Real(2.5)),
      v.InternHostValue(HostValue::String("s")),
      v.InternHostValue(HostValue::Boolean(true)),
  };
  std::vector<AtomId> builtins = {v.classic_thing_atom(), v.host_thing_atom()};
  for (BuiltinConcept b :
       {BuiltinConcept::kInteger, BuiltinConcept::kReal,
        BuiltinConcept::kNumber, BuiltinConcept::kString,
        BuiltinConcept::kBoolean}) {
    builtins.push_back(v.builtin_atom(b));
  }
  for (IndId i : inds) {
    const std::vector<AtomId> intrinsic = v.IntrinsicAtoms(i);
    for (AtomId a : builtins) {
      const bool listed =
          std::find(intrinsic.begin(), intrinsic.end(), a) != intrinsic.end();
      EXPECT_EQ(v.AtomCompatibleWithInd(a, i), listed)
          << v.symbols().Name(v.atom(a).name) << " vs "
          << v.IndividualName(i);
    }
  }
}

TEST(ParserLocationTest, ErrorsCarrySourcePositions) {
  SymbolTable symbols;
  auto bad_arity = ParseDescriptionString("(AND A\n  (ALL r))", &symbols);
  ASSERT_FALSE(bad_arity.ok());
  EXPECT_NE(bad_arity.status().message().find("line 2, column 3"),
            std::string::npos)
      << bad_arity.status().message();

  auto bad_bound = ParseDescriptionString("(AND A\n (AT-LEAST x r))",
                                          &symbols);
  ASSERT_FALSE(bad_bound.ok());
  EXPECT_NE(bad_bound.status().message().find("line 2"), std::string::npos)
      << bad_bound.status().message();

  auto unknown = ParseDescriptionString("(ALL r\n  (FROB x))", &symbols);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("line 2"), std::string::npos)
      << unknown.status().message();
}

}  // namespace
}  // namespace classic
