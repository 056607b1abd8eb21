// Conjunctive path queries over the role graph.
//
// The paper stops at single-concept queries and notes: "We have not spent
// much effort in devising an elaborate query language for this space of
// facts ... We plan to develop a more powerful and integrated query
// language" (Section 3.5.2, referencing the functional-database view
// where every role is a binary relation). This module implements that
// announced extension: conjunctive queries with variables, mixing concept
// constraints (answered with the classified retrieval machinery) and role
// triples (joined over the known filler graph):
//
//   (select (?x ?y)
//     (?x STUDENT)                      ; concept atom
//     (?x thing-driven ?y)              ; role atom, var-var
//     (?y maker Ferrari))               ; role atom, var-constant
//
// Because roles are interpreted over *known* fillers, a SELECT is exactly
// a conjunctive query against the relational projection of Section
// 3.5.2 — closed-world on the known facts, which is what that section's
// "ordinary database" view prescribes.

#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "kb/knowledge_base.h"
#include "sexpr/sexpr.h"

namespace classic {

/// \brief A term in a path-query atom: a variable (by index into the
/// query's variable table) or a constant individual.
struct PathTerm {
  std::variant<size_t, IndId> term;

  static PathTerm Var(size_t v) { return PathTerm{v}; }
  static PathTerm Const(IndId i) { return PathTerm{i}; }
  bool is_var() const { return std::holds_alternative<size_t>(term); }
  size_t var() const { return std::get<size_t>(term); }
  IndId constant() const { return std::get<IndId>(term); }
};

/// \brief One conjunct.
struct PathAtom {
  enum class Kind { kConcept, kRole } kind = Kind::kConcept;
  /// kConcept: the constrained term and the concept's normal form.
  PathTerm subject = PathTerm::Var(0);
  NormalFormPtr concept_nf;
  /// kRole: subject -role-> object.
  RoleId role = 0;
  PathTerm object = PathTerm::Var(0);
};

/// \brief A parsed conjunctive query.
struct PathQuery {
  /// Variable names in declaration order ("?x" etc.).
  std::vector<std::string> variables;
  /// Indices (into variables) of the projected output columns.
  std::vector<size_t> select;
  std::vector<PathAtom> atoms;
};

/// \brief Parses `(select (?v...) atom...)`. Atoms are
/// `(?v <concept-expr>)` or `(<subj> <role> <obj>)` where subj/obj are
/// variables or individual constants. Parsing only touches the KB's
/// logically-const interning caches, so it is safe on shared snapshots.
Result<PathQuery> ParsePathQuery(const sexpr::Value& v,
                                 const KnowledgeBase& kb);

/// \brief Convenience: parse from text.
Result<PathQuery> ParsePathQueryString(const std::string& text,
                                       const KnowledgeBase& kb);

/// \brief Result rows (deduplicated, sorted) plus evaluation statistics.
struct PathQueryResult {
  std::vector<std::vector<IndId>> rows;
  /// Partial bindings explored (join effort).
  size_t bindings_explored = 0;
  /// Instance tests performed by concept atoms.
  size_t concept_tests = 0;
};

/// \brief Evaluates by backtracking join, seeding variable domains with
/// classified retrieval for concept atoms and walking the filler graph
/// (forward and via the reverse-reference index) for role atoms.
Result<PathQueryResult> EvaluatePathQuery(const KnowledgeBase& kb,
                                          const PathQuery& query);

/// \brief Renders rows as display names.
std::vector<std::vector<std::string>> PathQueryRowNames(
    const KnowledgeBase& kb, const PathQueryResult& result);

}  // namespace classic
