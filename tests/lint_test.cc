// classic-lint end-to-end tests: golden files per rule id over the
// seeded-defect schemas in examples/lint/, cleanliness of the shipped
// example programs, deterministic ordering, JSON rendering, and
// snapshot analysis.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/profile.h"
#include "analyze/program.h"
#include "classic/database.h"
#include "kb/kb_engine.h"

#ifndef CLASSIC_EXAMPLES_DIR
#define CLASSIC_EXAMPLES_DIR "examples"
#endif

namespace classic::analyze {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Loads a shipped example under its repo-relative label, so diagnostics
/// (and hence goldens) never contain machine-specific paths.
std::vector<Diagnostic> LintExample(const std::string& rel) {
  auto program = LoadProgram("examples/" + rel,
                             Slurp(std::string(CLASSIC_EXAMPLES_DIR) + "/" +
                                   rel));
  EXPECT_TRUE(program.ok()) << program.status().message();
  return AnalyzeProgram(program.ValueOrDie());
}

std::set<std::string> RuleIds(const std::vector<Diagnostic>& diags) {
  std::set<std::string> ids;
  for (const Diagnostic& d : diags) ids.insert(GetRuleInfo(d.rule).id);
  return ids;
}

// --- Golden files: every seeded defect, with rule id and position -------

struct GoldenCase {
  const char* file;
  std::set<std::string> expected_rules;
};

const GoldenCase kGoldenCases[] = {
    {"incoherent", {"C001"}},
    {"redundant", {"C002", "C003"}},
    {"dead_rules", {"C004", "C005", "C006"}},
    {"undefined",
     {"C002", "C003", "C007", "C008", "C009", "C010", "C011"}},
    // analyze v2: whole-program findings (dependency graph + closures).
    {"cycle3", {"C012"}},
    {"interaction",
     {"C008", "C013", "C014", "C015", "C016", "C017", "C018"}},
    {"depth", {"C019"}},
    {"unreadable", {"C000"}},
};

TEST(LintGoldenTest, SeededDefectsMatchGoldenOutput) {
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(c.file);
    std::vector<Diagnostic> diags =
        LintExample(std::string("lint/") + c.file + ".classic");
    EXPECT_EQ(RuleIds(diags), c.expected_rules);
    std::string golden = Slurp(std::string(CLASSIC_EXAMPLES_DIR) +
                               "/lint/golden/" + c.file + ".txt");
    EXPECT_EQ(RenderText(diags), golden);
    // Every finding points at a real source position — except C000,
    // which reports the file as a whole (there is no reliable position
    // inside an unparseable program).
    for (const Diagnostic& d : diags) {
      if (d.rule == Rule::kParseError) continue;
      EXPECT_GT(d.loc.line, 0u) << RenderText(d);
      EXPECT_GT(d.loc.column, 0u) << RenderText(d);
    }
  }
}

// Catalog coverage: every diagnostic the analyzer can emit is triggered
// by at least one seeded fixture, exactly where its golden says. A new
// rule id without a fixture fails here.
TEST(LintGoldenTest, EveryCatalogRuleHasAFixture) {
  std::set<std::string> covered;
  for (const GoldenCase& c : kGoldenCases) {
    covered.insert(c.expected_rules.begin(), c.expected_rules.end());
  }
  std::set<std::string> catalog;
  for (Rule rule : AllRules()) catalog.insert(GetRuleInfo(rule).id);
  EXPECT_EQ(covered, catalog);
  // And the expected sets themselves are honest: recompute from the
  // fixtures rather than trusting the table.
  std::set<std::string> recomputed;
  for (const GoldenCase& c : kGoldenCases) {
    std::set<std::string> ids =
        RuleIds(LintExample(std::string("lint/") + c.file + ".classic"));
    recomputed.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(recomputed, catalog);
}

// --- Clean schemas produce nothing --------------------------------------

TEST(LintCleanTest, ShippedSchemasAreClean) {
  for (const char* rel :
       {"university.classic", "crime.classic", "tutorial.clq"}) {
    SCOPED_TRACE(rel);
    std::vector<Diagnostic> diags = LintExample(rel);
    EXPECT_TRUE(diags.empty()) << RenderText(diags);
  }
}

// Property: every shipped top-level example program (the lint/ corpus is
// seeded with defects on purpose and excluded) lints without incoherence
// errors.
TEST(LintCleanTest, NoShippedExampleDefinesAnIncoherentConcept) {
  size_t checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CLASSIC_EXAMPLES_DIR)) {
    std::string ext = entry.path().extension().string();
    if (ext != ".classic" && ext != ".clq") continue;
    SCOPED_TRACE(entry.path().string());
    std::vector<Diagnostic> diags =
        LintExample(entry.path().filename().string());
    EXPECT_EQ(RuleIds(diags).count("C001"), 0u) << RenderText(diags);
    ++checked;
  }
  EXPECT_GE(checked, 3u);
}

// --- Determinism ---------------------------------------------------------

TEST(LintDeterminismTest, RepeatedAnalysisIsByteIdentical) {
  std::string first = RenderText(LintExample("lint/undefined.classic"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(RenderText(LintExample("lint/undefined.classic")), first);
  }
}

TEST(LintDeterminismTest, DiagnosticsAreSortedAndDeduplicated) {
  std::vector<Diagnostic> diags = LintExample("lint/undefined.classic");
  std::vector<Diagnostic> copy = diags;
  SortDiagnostics(&copy);
  EXPECT_EQ(RenderText(copy), RenderText(diags));
  for (size_t i = 1; i < diags.size(); ++i) {
    EXPECT_NE(RenderText(diags[i - 1]), RenderText(diags[i]));
  }
}

// Two findings at the same position sort by rule id, then message — so
// goldens stay stable no matter which pass runs first.
TEST(LintDeterminismTest, SamePositionTieBreaksByRuleIdThenMessage) {
  SourceLocation loc{"f.classic", 7, 3};
  std::vector<Diagnostic> diags = {
      {Rule::kEmptyFillerDomain, loc, "X", "zzz"},
      {Rule::kUnusedDefinition, loc, "X", "bbb"},
      {Rule::kUnusedDefinition, loc, "X", "aaa"},
  };
  SortDiagnostics(&diags);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(GetRuleInfo(diags[0].rule).id, std::string("C008"));
  EXPECT_EQ(diags[0].message, "aaa");
  EXPECT_EQ(diags[1].message, "bbb");
  EXPECT_EQ(GetRuleInfo(diags[2].rule).id, std::string("C016"));
}

// --- Schema profile ------------------------------------------------------

std::string ProfileFor(const std::string& rel) {
  auto program = LoadProgram("examples/" + rel,
                             Slurp(std::string(CLASSIC_EXAMPLES_DIR) + "/" +
                                   rel));
  EXPECT_TRUE(program.ok()) << program.status().message();
  const KnowledgeBase& kb = program.ValueOrDie().db->kb();
  SubsumptionIndex index;
  SchemaGraph graph = BuildSchemaGraph(kb, &index);
  AbstractSchema abs = ComputeAbstractSchema(kb, &index);
  return RenderProfileJson(kb, graph, abs, "examples/" + rel);
}

TEST(LintProfileTest, ProfileIsByteIdenticalAcrossRuns) {
  std::string first = ProfileFor("university.classic");
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(ProfileFor("university.classic"), first);
  EXPECT_EQ(ProfileFor("university.classic"), first);
}

TEST(LintProfileTest, ProfileCarriesStructuralFacts) {
  std::string json = ProfileFor("lint/interaction.classic");
  // Doomed concepts surface with zero selectivity.
  EXPECT_NE(json.find("\"name\": \"BADGELESS\""), std::string::npos);
  EXPECT_NE(json.find("\"doomed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"selectivity\": 0,"), std::string::npos);
  // Role bounds folded through the rule closure.
  EXPECT_NE(json.find("\"filler_domain_empty\": true"), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);

  std::string deps = [&] {
    auto program =
        LoadProgram("examples/lint/cycle3.classic",
                    Slurp(std::string(CLASSIC_EXAMPLES_DIR) +
                          "/lint/cycle3.classic"));
    EXPECT_TRUE(program.ok());
    const KnowledgeBase& kb = program.ValueOrDie().db->kb();
    SubsumptionIndex index;
    SchemaGraph graph = BuildSchemaGraph(kb, &index);
    return RenderDepsText(kb, graph);
  }();
  EXPECT_NE(deps.find("1 cycle(s)"), std::string::npos) << deps;
  EXPECT_NE(deps.find("cycle: rule #1 on PERSON"), std::string::npos) << deps;
}

// --- JSON rendering ------------------------------------------------------

TEST(LintJsonTest, JsonCarriesRuleFileAndPosition) {
  std::string json = RenderJson(LintExample("lint/incoherent.classic"));
  EXPECT_NE(json.find("\"rule\": \"C001\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"incoherent-concept\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"examples/lint/incoherent.classic\""),
            std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(RenderJson({}), "[]\n");
}

TEST(LintJsonTest, JsonEscapesQuotes) {
  Diagnostic d{Rule::kParseError, {"f", 1, 1}, "s", "a \"quoted\" thing"};
  std::string json = RenderJson({d});
  EXPECT_NE(json.find("a \\\"quoted\\\" thing"), std::string::npos);
}

// --- Analyzing a live database and a published snapshot ------------------

TEST(LintKbTest, AnalyzeKbAndSnapshotAgree) {
  Database db;
  ASSERT_TRUE(db.DefineRole("r").ok());
  ASSERT_TRUE(
      db.DefineConcept("BAD", "(AND (AT-LEAST 2 r) (AT-MOST 1 r))").ok());
  ASSERT_TRUE(db.DefineConcept("A", "(AT-LEAST 1 r)").ok());
  ASSERT_TRUE(db.DefineConcept("B", "(AT-LEAST 1 r)").ok());
  ASSERT_TRUE(db.AssertRule("BAD", "THING").ok());

  std::vector<Diagnostic> direct = AnalyzeKb(db.kb());
  std::set<std::string> ids = RuleIds(direct);
  EXPECT_EQ(ids.count("C001"), 1u) << RenderText(direct);  // BAD
  EXPECT_EQ(ids.count("C003"), 1u) << RenderText(direct);  // B duplicates A
  EXPECT_EQ(ids.count("C004"), 1u) << RenderText(direct);  // rule never fires

  KbEngine engine;
  SnapshotPtr snap = engine.PublishFrom(db.kb());
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(RenderText(AnalyzeSnapshot(*snap)), RenderText(direct));
}

// The precise-cause machinery: two concepts collapsing to bottom for
// different reasons each report their own cause, even though interning
// aliases their stored normal forms.
TEST(LintKbTest, DistinctIncoherenceCausesAreReportedPerConcept) {
  Database db;
  ASSERT_TRUE(db.DefineRole("r").ok());
  ASSERT_TRUE(
      db.DefineConcept("CARD", "(AND (AT-LEAST 2 r) (AT-MOST 1 r))").ok());
  ASSERT_TRUE(db.DefineConcept("HOST", "(AND INTEGER STRING)").ok());

  std::vector<Diagnostic> diags = AnalyzeKb(db.kb());
  ASSERT_EQ(diags.size(), 2u) << RenderText(diags);
  std::set<std::string> messages;
  for (const Diagnostic& d : diags) messages.insert(d.message);
  bool saw_cardinality = false, saw_disjoint = false;
  for (const std::string& m : messages) {
    if (m.find("(cardinality)") != std::string::npos) saw_cardinality = true;
    if (m.find("(disjoint-atoms)") != std::string::npos) saw_disjoint = true;
  }
  EXPECT_TRUE(saw_cardinality) << RenderText(diags);
  EXPECT_TRUE(saw_disjoint) << RenderText(diags);
}

TEST(LintProgramTest, LoaderSurvivesUnreadableSyntax) {
  auto program = LoadProgram("bad.classic", "(define-concept X");
  ASSERT_TRUE(program.ok());
  std::vector<Diagnostic> diags = AnalyzeProgram(program.ValueOrDie());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(GetRuleInfo(diags[0].rule).id, std::string("C000"));
  EXPECT_NE(diags[0].message.find("line 1"), std::string::npos)
      << diags[0].message;
}

TEST(LintProgramTest, OneRunSurfacesEveryProblem) {
  auto program = LoadProgram("multi.classic",
                             "(define-concept A MISSING-1)\n"
                             "(define-concept B MISSING-2)\n"
                             "(frobnicate)\n");
  ASSERT_TRUE(program.ok());
  std::vector<Diagnostic> diags = AnalyzeProgram(program.ValueOrDie());
  // Both undefined references AND the unknown operation, not just the
  // first failure.
  EXPECT_EQ(RuleIds(diags), (std::set<std::string>{"C007", "C011"}));
  EXPECT_EQ(diags.size(), 3u) << RenderText(diags);
}

}  // namespace
}  // namespace classic::analyze
