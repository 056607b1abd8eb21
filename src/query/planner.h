// The classification-aware query planner (DESIGN.md section 14).
//
// Concept retrieval is the paper's Section 5 technique — classify the
// query, answer from subsumed concepts' extensions, test the rest —
// over every complete candidate source the query offers:
//
//   - taxonomy:     the instance sets of the query's classified parents
//                   (classification soundness makes them complete),
//   - fills:        the filler-inverted posting list of each top-level
//                   FILLS conjunct (Satisfies requires derived fillers to
//                   be a superset of the query's, so each list is a
//                   complete superset of the answers),
//   - host-range:   the posting list of a FILLS conjunct whose filler
//                   is a host literal (the same fills index, rendered as
//                   the point range [v..v]),
//   - enumeration:  the members of a ONE-OF conjunct (identity is
//                   definite under the unique-name assumption).
//
// There is one access path: the smallest source (the first in that
// order on a tie; the visible bound when there is none) is the base,
// each base member is kept only if every other source contains it, and
// the survivors get the per-candidate Satisfies test. ALL / AT-LEAST /
// TEST / SAME-AS conjuncts are *not* complete sources (an individual
// can satisfy them without any known filler), so they never prune. The
// choice of base changes which non-answers are rejected before the
// test, never the answers, and it reads only the KB state and the
// query, so a plan is a deterministic function of both.
//
// Every plan is explainable: PlanNode renders to a canonical sexpr with
// estimated and actual per-node cardinalities, surfaced through
// QueryRequest::explain (wire + repl `(explain <query>)`). The static
// selectivity profile (query/selectivity.h) is the residual-cardinality
// prior of those estimates only; it plays no part in the access-path
// choice, and is computed only when a plan is rendered.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"

namespace classic::planner {

/// Sentinel for "this node was planned but never executed".
inline constexpr uint64_t kNotExecuted = ~uint64_t{0};

/// \brief One node of a query plan: an operator label, optional detail
/// tokens (role / concept / filler names), the estimated output
/// cardinality, the actual output cardinality once executed, and child
/// nodes. Plain data — entry points that need only a descriptive plan
/// (describe, instances-of, ...) assemble nodes directly.
struct PlanNode {
  std::string op;
  std::vector<std::string> detail;
  uint64_t est = 0;
  uint64_t act = kNotExecuted;
  std::vector<PlanNode> children;

  /// Canonical rendering: `(op detail... est=N [act=M] children...)`.
  /// Deterministic for a given KB state and plan (golden-testable).
  std::string ToSexpr() const;
};

/// \brief Convenience constructor.
PlanNode Node(std::string op, std::vector<std::string> detail = {},
              uint64_t est = 0);

/// \brief Renders a full plan as `(plan <kind> <root>)` — the form
/// prepended to QueryAnswer::values when QueryRequest::explain is set.
std::string RenderPlan(const char* kind_name, const PlanNode& root);

/// \brief The planner's concept-level executor: plans one normalized
/// concept, executes the access path, and returns the answers (sorted).
/// When `plan` is non-null the plan tree with actual per-node
/// cardinalities is stored there.
/// Path-query concept atoms retrieve through it too, so they take the
/// same access paths.
Result<RetrievalResult> RetrieveConcept(const KnowledgeBase& kb,
                                        const NormalForm& nf, PlanNode* plan);

/// \brief The extensional `?:` marker walk, the only one: from `root`,
/// the answers of the query's root level, follows each marker role to
/// the known fillers that satisfy the next level's constraint. Unmarked
/// and root-marked queries return `root` unchanged. When `plan` is
/// non-null it holds the root level's plan on entry, and each step wraps
/// it in a `marker-walk` node. RetrieveQuery and the naive test
/// reference (query.cc's RetrieveNaive) differ only in how they find
/// `root`.
Result<RetrievalResult> WalkMarker(const KnowledgeBase& kb, const Query& query,
                                   RetrievalResult root, PlanNode* plan);

/// \brief Full query retrieval: RetrieveConcept on the root level, then
/// WalkMarker. The engine's kAsk path.
Result<RetrievalResult> RetrieveQuery(const KnowledgeBase& kb,
                                      const Query& query, PlanNode* plan);

/// \brief ask-possible: the visible individuals that neither satisfy the
/// query nor are provably excluded by it, computed on word bitsets as
/// visible \ definite \ excluded. The definite answers come from
/// RetrieveConcept's access paths; every other visible individual is
/// excluded when it is not a member of the query's ONE-OF (unique names)
/// or its derived state is Disjoint from the query. Disjoint runs only
/// on the query's exclusion surface (the case list in planner.cc): the
/// individuals with a state-side site, a record on a role the query
/// constrains, or a host value. The plan, when requested, is
/// `(possible <definite plan> (exclusion-test))` where the exclusion
/// test's est is the visible count and its act the number excluded.
/// Marked queries are NotImplemented.
Result<std::vector<IndId>> RetrievePossible(const KnowledgeBase& kb,
                                            const Query& query,
                                            PlanNode* plan);

/// \brief Plan-only variant (no execution; actual cardinalities stay
/// kNotExecuted below the root): the access path RetrieveConcept would
/// take on this KB state. Used to explain entry points that execute through
/// other evaluators (description queries, path-query concept atoms).
PlanNode PlanConcept(const KnowledgeBase& kb, const NormalForm& nf);

}  // namespace classic::planner
