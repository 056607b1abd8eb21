// Introspection operators: concept-aspect, ind-aspect, concept-subsumes
// and taxonomy navigation (paper Sections 3.5.1 / 3.5.2).
//
// "In lieu of a data dictionary, CLASSIC offers operators that allow
// concepts to be inspected" — the schema is data. All operators work on
// the *normalized* definition, so derived facets (e.g. an AT-MOST implied
// by an enumerated ALL) are visible.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kb/knowledge_base.h"

namespace classic {

/// The facet selectors accepted by concept-aspect / ind-aspect.
enum class Aspect {
  kOneOf,
  kAll,
  kAtLeast,
  kAtMost,
  kFills,
  kClose,
  kTest,
  kSameAs,
};

/// \brief Parses an aspect name ("ONE-OF", "ALL", ...).
Result<Aspect> ParseAspect(const std::string& name);

/// \brief concept-aspect[c, ONE-OF]: the enumeration in c's definition,
/// if any.
Result<std::optional<std::vector<IndId>>> ConceptEnumeration(
    const KnowledgeBase& kb, const std::string& concept_name);

/// \brief concept-aspect[c, ALL, role]: the value restriction imposed on
/// `role` by c's definition (THING when unrestricted).
Result<DescPtr> ConceptValueRestriction(const KnowledgeBase& kb,
                                        const std::string& concept_name,
                                        const std::string& role_name);

/// \brief concept-aspect[c, AT-LEAST / AT-MOST, role]: the bound imposed
/// on `role` (0 / unbounded when unrestricted; kUnbounded encodes "no
/// upper bound").
Result<uint32_t> ConceptBound(const KnowledgeBase& kb,
                              const std::string& concept_name,
                              Aspect which, const std::string& role_name);

/// \brief concept-aspect[c, <aspect>] with the role argument dropped: the
/// roles restricted by that constructor in c's definition.
Result<std::vector<std::string>> ConceptRestrictedRoles(
    const KnowledgeBase& kb, const std::string& concept_name, Aspect which);

/// \brief concept-aspect[c, TEST]: names of the TEST functions in c's
/// definition.
Result<std::vector<std::string>> ConceptTests(const KnowledgeBase& kb,
                                              const std::string& concept_name);

/// \brief concept-aspect[c, SAME-AS]: the co-reference constraints of
/// c's definition, rendered ("(SAME-AS (site) (perpetrator domicile))").
Result<std::vector<std::string>> ConceptCorefs(
    const KnowledgeBase& kb, const std::string& concept_name);

/// \brief ind-aspect[i, FILLS, role]: known fillers.
Result<std::vector<IndId>> IndFillers(const KnowledgeBase& kb, IndId ind,
                                      const std::string& role_name);

/// \brief ind-aspect[i, CLOSE, role]: is the role closed?
Result<bool> IndRoleClosed(const KnowledgeBase& kb, IndId ind,
                           const std::string& role_name);

/// \brief ind-aspect[i, ALL, role]: derived value restriction on a role
/// of an individual.
Result<DescPtr> IndValueRestriction(const KnowledgeBase& kb, IndId ind,
                                    const std::string& role_name);

/// \brief concept-subsumes[C1, C2]: true iff every possible instance of
/// C2 is an instance of C1, by definition. Both arguments are arbitrary
/// concept expressions.
Result<bool> ConceptSubsumes(const KnowledgeBase& kb, const DescPtr& c1,
                             const DescPtr& c2);

/// \brief Two concepts are equivalent iff they subsume each other.
Result<bool> ConceptEquivalent(const KnowledgeBase& kb, const DescPtr& c1,
                               const DescPtr& c2);

/// \brief Is the concept satisfiable at all?
Result<bool> ConceptCoherent(const KnowledgeBase& kb, const DescPtr& c);

/// \brief Immediate parents of a named concept in the IS-A hierarchy
/// (most specific named subsumers), as names.
Result<std::vector<std::string>> ConceptParents(
    const KnowledgeBase& kb, const std::string& concept_name);

/// \brief Immediate children (most general named subsumees), as names.
Result<std::vector<std::string>> ConceptChildren(
    const KnowledgeBase& kb, const std::string& concept_name);

/// \brief All named ancestors / descendants.
Result<std::vector<std::string>> ConceptAncestors(
    const KnowledgeBase& kb, const std::string& concept_name);
Result<std::vector<std::string>> ConceptDescendants(
    const KnowledgeBase& kb, const std::string& concept_name);

/// \brief Most specific named concepts an individual is recognized under.
Result<std::vector<std::string>> IndMostSpecificConcepts(
    const KnowledgeBase& kb, IndId ind);

/// \brief Schema objects as answers (paper Section 6: "schema objects
/// (concepts) can be created, queried and obtained as answers at any
/// time"): every named concept whose definition is subsumed by the given
/// expression. The expression acts as a meta-query over the schema.
Result<std::vector<std::string>> NamedConceptsSubsumedBy(
    const KnowledgeBase& kb, const DescPtr& expr);

/// \brief Dual: every named concept whose definition subsumes the
/// expression.
Result<std::vector<std::string>> NamedConceptsSubsuming(
    const KnowledgeBase& kb, const DescPtr& expr);

/// \brief The individual's *told* information: the conjunction of its
/// base assertions, as asserted and in base-log order — contrast
/// DescribeIndividual, which shows everything derived.
Result<DescPtr> IndTold(const KnowledgeBase& kb, IndId ind);

}  // namespace classic
