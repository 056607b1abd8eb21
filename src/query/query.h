// Concepts as queries (paper Section 3.5.3).
//
// An arbitrary concept expression is a query for all individuals that
// satisfy it. A `?:` marker may single out one subexpression (reached
// through a chain of ALL restrictions); the answers are then the
// individuals at the marked position: "(AND STUDENT (ALL thing-driven
// ?:(ALL maker (ONE-OF Ferrari))))" asks for the objects driven by
// students that have maker Ferrari.
//
// Retrieval follows the paper's Section 5 technique: "first, the query
// concept is itself 'classified' with respect to the concepts in the
// schema; then the instances of the parent concepts are tested
// individually... all instances of schema concepts that are subsumed by
// the query are known to satisfy the query and are therefore not
// explicitly tested." A naive full-scan evaluator is provided as the
// baseline for bench E3.
//
// Because of the open-world assumption three answer sets exist (paper
// Section 6): individuals *known* to satisfy the query, individuals that
// *might* satisfy it (not provably excluded; planner::RetrievePossible),
// and the intensional description of all possible answers
// (query/describe.h).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kb/knowledge_base.h"
#include "sexpr/sexpr.h"

namespace classic {

/// \brief A parsed query: a concept plus an optional marked position.
struct Query {
  /// The whole query as a plain concept (marker stripped).
  DescPtr full;
  bool has_marker = false;
  /// Roles along the ALL-chain from the query root to the marked
  /// subexpression (empty = the root itself is marked).
  std::vector<Symbol> marker_roles;
  /// Constraint at each level: [0] applies to root matches, [i] to
  /// individuals reached after marker_roles[i-1]; the last one includes
  /// the marked subexpression. Size = marker_roles.size() + 1.
  std::vector<DescPtr> level_constraints;
};

/// \brief Parses a query expression, handling `?:` markers.
///
/// Markers may appear at the top level (`?:PERSON`) or as the restriction
/// of an ALL, possibly nested under ANDs. At most one marker is allowed.
Result<Query> ParseQuery(const sexpr::Value& v, SymbolTable* symbols);

/// \brief Convenience: parse from source text.
Result<Query> ParseQueryString(const std::string& text, SymbolTable* symbols);

/// \brief Turns a plain concept into an unmarked query.
Query QueryFromConcept(DescPtr concept_desc);

/// \brief Execution statistics (bench E3's measurement).
struct RetrievalStats {
  /// Individuals accepted from the instance index without testing.
  size_t answers_from_index = 0;
  /// Individuals explicitly tested with the instance test.
  size_t candidates_tested = 0;
  /// Subsumption tests spent classifying the query.
  size_t classification_tests = 0;
};

/// \brief Result of an extensional query.
struct RetrievalResult {
  /// Individuals known to satisfy the query (sorted).
  std::vector<IndId> answers;
  RetrievalStats stats;
};

/// \brief ask-necessary-set: individuals known to satisfy the query,
/// using classification-based pruning.
Result<RetrievalResult> Retrieve(const KnowledgeBase& kb, const Query& query);

/// \brief Baseline evaluator: tests every individual, no pruning (the
/// reference the planner is tested against).
Result<RetrievalResult> RetrieveNaive(const KnowledgeBase& kb,
                                      const Query& query);

}  // namespace classic
