// ask-description: intensional (descriptive) answers.
//
// "it becomes reasonable to ask for information that necessarily holds of
// all possible individuals that satisfy the query — not just those
// currently known" (paper Section 3.5.3). Given a query with a `?:`
// marker, ask-description returns the most specific description derivable
// for the objects at the marked position, taking into account:
//
//   - the query's own restrictions along the marker path,
//   - the definitions of schema concepts subsuming the query,
//   - forward-chaining rules (a rule whose antecedent subsumes the query
//     necessarily applies to every possible answer),
//   - the derived state of concrete individuals the query pins down
//     (e.g. (ONE-OF crime15) makes crime15's entire derived state
//     available — the paper's crime15 example).
//
// The closure is computed symbolically on normal forms; no hypothetical
// individual is added to the database.

#pragma once

#include "kb/knowledge_base.h"
#include "query/query.h"

namespace classic {

/// \brief An intensional answer.
struct DescriptionAnswer {
  /// Necessary description of every possible answer object; callers print
  /// it with NormalForm::ToString.
  NormalFormPtr normal_form;
  /// Names of the most specific schema concepts subsuming the answer
  /// objects (human-readable classification of the answer).
  std::vector<std::string> msc_names;
};

/// \brief Computes the necessary description of all objects that could
/// fill the marked position of `query` (or satisfy the query itself when
/// unmarked).
Result<DescriptionAnswer> AskDescription(const KnowledgeBase& kb,
                                         const Query& query);

/// \brief Rule-and-identity closure of a concept: conjoins the
/// consequents of every rule whose antecedent subsumes `nf`, and the
/// derived state of the unique individual when `nf` enumerates exactly
/// one. Iterates to a fixed point. Exposed for tests.
Result<NormalFormPtr> CloseConcept(const KnowledgeBase& kb,
                                   NormalFormPtr nf);

/// \brief Characterizes a query's *current* extension by description: the
/// join (least common subsumer within this representation) of the derived
/// states of all present answers. This is the second flavor of
/// non-enumerative answer the paper surveys ("Using the current
/// extensions of certain database predicates to characterize the answer
/// set ... useful if the answer is too long") — descriptive of what the
/// known answers share, not necessary for future ones (contrast
/// AskDescription). An empty extension summarizes to NOTHING.
Result<DescriptionAnswer> SummarizeExtension(const KnowledgeBase& kb,
                                             const Query& query);

}  // namespace classic
