#include "query/describe.h"

#include <set>

#include "subsume/subsume.h"
#include "util/string_util.h"

namespace classic {

Result<NormalFormPtr> CloseConcept(const KnowledgeBase& kb,
                                   NormalFormPtr nf) {
  std::set<size_t> applied_rules;
  std::set<IndId> expanded_inds;

  bool changed = true;
  while (changed && !nf->incoherent()) {
    changed = false;

    // Rules: any rule whose antecedent node subsumes nf necessarily
    // applies to every instance of nf.
    Classification cls = kb.taxonomy().Classify(*nf);
    std::set<NodeId> subsumers;
    if (cls.equivalent) {
      subsumers.insert(*cls.equivalent);
      for (NodeId a : kb.taxonomy().Ancestors(*cls.equivalent)) {
        subsumers.insert(a);
      }
    }
    for (NodeId p : cls.parents) {
      subsumers.insert(p);
      for (NodeId a : kb.taxonomy().Ancestors(p)) subsumers.insert(a);
    }
    for (NodeId node : subsumers) {
      for (size_t idx : kb.RulesOnNode(node)) {
        if (!applied_rules.insert(idx).second) continue;
        NormalFormPtr next =
            kb.normalizer().Meet(*nf, *kb.rules()[idx].consequent);
        if (!next->Equals(*nf)) {
          nf = next;
          changed = true;
        }
      }
    }

    // Identity: a singleton enumeration pins the answer to one known
    // individual, whose entire derived state is therefore necessary.
    if (nf->enumeration() && nf->enumeration()->size() == 1) {
      IndId the_one = *nf->enumeration()->begin();
      if (expanded_inds.insert(the_one).second) {
        NormalFormPtr next =
            kb.normalizer().Meet(*nf, *kb.state(the_one).derived);
        if (!next->Equals(*nf)) {
          nf = next;
          changed = true;
        }
      }
    }
  }
  return nf;
}

Result<DescriptionAnswer> SummarizeExtension(const KnowledgeBase& kb,
                                             const Query& query) {
  CLASSIC_ASSIGN_OR_RETURN(RetrievalResult r, Retrieve(kb, query));
  NormalFormPtr acc;
  for (IndId ind : r.answers) {
    const NormalFormPtr& derived = kb.state(ind).derived;
    acc = acc ? JoinNormalForms(*acc, *derived, kb.vocab()) : derived;
  }
  if (!acc) {
    // Join over the empty set is bottom: nothing is in the extension.
    auto bottom = std::make_shared<NormalForm>();
    bottom->MarkIncoherent("the query has no known answers");
    acc = std::move(bottom);
  }
  DescriptionAnswer out;
  out.normal_form = acc;
  Classification cls = kb.taxonomy().Classify(*acc);
  std::vector<NodeId> nodes =
      cls.equivalent ? std::vector<NodeId>{*cls.equivalent} : cls.parents;
  for (NodeId node : nodes) {
    for (ConceptId cid : kb.taxonomy().Synonyms(node)) {
      out.msc_names.push_back(
          kb.vocab().symbols().Name(kb.vocab().concept_info(cid).name));
    }
  }
  return out;
}

Result<DescriptionAnswer> AskDescription(const KnowledgeBase& kb,
                                         const Query& query) {

  CLASSIC_ASSIGN_OR_RETURN(
      NormalFormPtr cur,
      kb.normalizer().NormalizeConcept(query.level_constraints[0]));
  CLASSIC_ASSIGN_OR_RETURN(cur, CloseConcept(kb, cur));

  if (query.has_marker) {
    for (size_t step = 0; step < query.marker_roles.size(); ++step) {
      CLASSIC_ASSIGN_OR_RETURN(
          RoleId role, kb.vocab().FindRole(query.marker_roles[step]));
      // What is necessarily true of the fillers at this step?
      const RoleRestriction& rr = cur->role(role);
      NormalFormPtr next = rr.value_restriction ? rr.value_restriction
                                                : ThingNormalFormPtr();
      // If exactly one filler is known AND the role is closed, the answer
      // is that individual: carry its derived state.
      if (rr.closed && rr.fillers.size() == 1) {
        next = kb.normalizer().Meet(
            *next, *kb.state(*rr.fillers.begin()).derived);
      }
      CLASSIC_ASSIGN_OR_RETURN(
          NormalFormPtr constraint,
          kb.normalizer().NormalizeConcept(
              query.level_constraints[step + 1]));
      next = kb.normalizer().Meet(*next, *constraint);
      CLASSIC_ASSIGN_OR_RETURN(cur, CloseConcept(kb, next));
    }
  }

  DescriptionAnswer out;
  out.normal_form = cur;
  Classification cls = kb.taxonomy().Classify(*cur);
  std::vector<NodeId> nodes =
      cls.equivalent ? std::vector<NodeId>{*cls.equivalent} : cls.parents;
  for (NodeId node : nodes) {
    for (ConceptId cid : kb.taxonomy().Synonyms(node)) {
      out.msc_names.push_back(
          kb.vocab().symbols().Name(kb.vocab().concept_info(cid).name));
    }
  }
  return out;
}

}  // namespace classic
