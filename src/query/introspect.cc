#include "query/introspect.h"

#include <algorithm>

#include "subsume/subsume.h"
#include "util/string_util.h"

namespace classic {

namespace {

Result<const ConceptInfo*> FindConceptInfo(const KnowledgeBase& kb,
                                           const std::string& name) {
  Symbol sym = kb.vocab().symbols().Lookup(name);
  if (sym == kNoSymbol) {
    return Status::NotFound(StrCat("unknown concept: ", name));
  }
  auto cid = kb.vocab().FindConcept(sym);
  if (!cid.ok()) return cid.status();
  return &kb.vocab().concept_info(*cid);
}

Result<RoleId> FindRoleByName(const KnowledgeBase& kb,
                              const std::string& name) {
  Symbol sym = kb.vocab().symbols().Lookup(name);
  if (sym == kNoSymbol) {
    return Status::NotFound(StrCat("undeclared role: ", name));
  }
  return kb.vocab().FindRole(sym);
}

std::vector<std::string> NodeNames(const KnowledgeBase& kb,
                                   const std::vector<NodeId>& nodes) {
  std::vector<std::string> out;
  for (NodeId node : nodes) {
    for (ConceptId cid : kb.taxonomy().Synonyms(node)) {
      out.push_back(
          kb.vocab().symbols().Name(kb.vocab().concept_info(cid).name));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Result<Aspect> ParseAspect(const std::string& name) {
  if (name == "ONE-OF") return Aspect::kOneOf;
  if (name == "ALL") return Aspect::kAll;
  if (name == "AT-LEAST") return Aspect::kAtLeast;
  if (name == "AT-MOST") return Aspect::kAtMost;
  if (name == "FILLS") return Aspect::kFills;
  if (name == "CLOSE") return Aspect::kClose;
  if (name == "TEST") return Aspect::kTest;
  if (name == "SAME-AS") return Aspect::kSameAs;
  return Status::InvalidArgument(StrCat("unknown aspect: ", name));
}

Result<std::optional<std::vector<IndId>>> ConceptEnumeration(
    const KnowledgeBase& kb, const std::string& concept_name) {
  CLASSIC_ASSIGN_OR_RETURN(const ConceptInfo* info,
                           FindConceptInfo(kb, concept_name));
  if (!info->normal_form->enumeration()) {
    return std::optional<std::vector<IndId>>{};
  }
  const auto& e = *info->normal_form->enumeration();
  return std::optional<std::vector<IndId>>(
      std::vector<IndId>(e.begin(), e.end()));
}

Result<DescPtr> ConceptValueRestriction(const KnowledgeBase& kb,
                                        const std::string& concept_name,
                                        const std::string& role_name) {
  CLASSIC_ASSIGN_OR_RETURN(const ConceptInfo* info,
                           FindConceptInfo(kb, concept_name));
  CLASSIC_ASSIGN_OR_RETURN(RoleId role, FindRoleByName(kb, role_name));
  const RoleRestriction& rr = info->normal_form->role(role);
  if (!rr.value_restriction) return Description::Thing();
  return rr.value_restriction->ToDescription(kb.vocab());
}

Result<uint32_t> ConceptBound(const KnowledgeBase& kb,
                              const std::string& concept_name, Aspect which,
                              const std::string& role_name) {
  if (which != Aspect::kAtLeast && which != Aspect::kAtMost) {
    return Status::InvalidArgument("ConceptBound expects AT-LEAST or AT-MOST");
  }
  CLASSIC_ASSIGN_OR_RETURN(const ConceptInfo* info,
                           FindConceptInfo(kb, concept_name));
  CLASSIC_ASSIGN_OR_RETURN(RoleId role, FindRoleByName(kb, role_name));
  const RoleRestriction& rr = info->normal_form->role(role);
  return which == Aspect::kAtLeast ? rr.at_least : rr.at_most;
}

Result<std::vector<std::string>> ConceptRestrictedRoles(
    const KnowledgeBase& kb, const std::string& concept_name, Aspect which) {
  CLASSIC_ASSIGN_OR_RETURN(const ConceptInfo* info,
                           FindConceptInfo(kb, concept_name));
  std::vector<std::string> out;
  for (const auto& [role, rr] : info->normal_form->roles()) {
    bool restricted = false;
    switch (which) {
      case Aspect::kAll:
        restricted = rr.value_restriction != nullptr &&
                     !rr.value_restriction->IsThing();
        break;
      case Aspect::kAtLeast:
        restricted = rr.at_least > 0;
        break;
      case Aspect::kAtMost:
        restricted = rr.at_most != kUnbounded;
        break;
      case Aspect::kFills:
        restricted = !rr.fillers.empty();
        break;
      case Aspect::kClose:
        restricted = rr.closed;
        break;
      default:
        return Status::InvalidArgument(
            "aspect does not select role restrictions");
    }
    if (restricted) {
      out.push_back(
          kb.vocab().symbols().Name(kb.vocab().role(role).name));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<std::string>> ConceptTests(
    const KnowledgeBase& kb, const std::string& concept_name) {
  CLASSIC_ASSIGN_OR_RETURN(const ConceptInfo* info,
                           FindConceptInfo(kb, concept_name));
  std::vector<std::string> out;
  for (Symbol t : info->normal_form->tests()) {
    out.push_back(kb.vocab().symbols().Name(t));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<std::string>> ConceptCorefs(
    const KnowledgeBase& kb, const std::string& concept_name) {
  CLASSIC_ASSIGN_OR_RETURN(const ConceptInfo* info,
                           FindConceptInfo(kb, concept_name));
  std::vector<std::string> out;
  auto path_str = [&](const RolePath& p) {
    std::vector<std::string> names;
    for (RoleId r : p) {
      names.push_back(kb.vocab().symbols().Name(kb.vocab().role(r).name));
    }
    return "(" + Join(names, " ") + ")";
  };
  for (const auto& cls : info->normal_form->coref().CanonicalClasses()) {
    for (size_t i = 1; i < cls.size(); ++i) {
      out.push_back(StrCat("(SAME-AS ", path_str(cls[0]), " ",
                           path_str(cls[i]), ")"));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<IndId>> IndFillers(const KnowledgeBase& kb, IndId ind,
                                      const std::string& role_name) {
  CLASSIC_ASSIGN_OR_RETURN(RoleId role, FindRoleByName(kb, role_name));
  const RoleRestriction& rr = kb.state(ind).derived->role(role);
  return std::vector<IndId>(rr.fillers.begin(), rr.fillers.end());
}

Result<bool> IndRoleClosed(const KnowledgeBase& kb, IndId ind,
                           const std::string& role_name) {
  CLASSIC_ASSIGN_OR_RETURN(RoleId role, FindRoleByName(kb, role_name));
  return kb.state(ind).derived->role(role).closed;
}

Result<DescPtr> IndValueRestriction(const KnowledgeBase& kb, IndId ind,
                                    const std::string& role_name) {
  CLASSIC_ASSIGN_OR_RETURN(RoleId role, FindRoleByName(kb, role_name));
  const RoleRestriction& rr = kb.state(ind).derived->role(role);
  if (!rr.value_restriction) return Description::Thing();
  return rr.value_restriction->ToDescription(kb.vocab());
}

Result<bool> ConceptSubsumes(const KnowledgeBase& kb, const DescPtr& c1,
                             const DescPtr& c2) {
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr n1,
                           kb.normalizer().NormalizeConcept(c1));
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr n2,
                           kb.normalizer().NormalizeConcept(c2));
  return Subsumes(*n1, *n2, kb.taxonomy().subsumption_index());
}

Result<bool> ConceptEquivalent(const KnowledgeBase& kb, const DescPtr& c1,
                               const DescPtr& c2) {
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr n1,
                           kb.normalizer().NormalizeConcept(c1));
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr n2,
                           kb.normalizer().NormalizeConcept(c2));
  return Equivalent(*n1, *n2);
}

Result<bool> ConceptCoherent(const KnowledgeBase& kb, const DescPtr& c) {
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr n,
                           kb.normalizer().NormalizeConcept(c));
  return !n->incoherent();
}

namespace {

Result<NodeId> NodeOfName(const KnowledgeBase& kb, const std::string& name) {
  Symbol sym = kb.vocab().symbols().Lookup(name);
  if (sym == kNoSymbol) {
    return Status::NotFound(StrCat("unknown concept: ", name));
  }
  auto cid = kb.vocab().FindConcept(sym);
  if (!cid.ok()) return cid.status();
  return kb.taxonomy().NodeOf(*cid);
}

}  // namespace

Result<std::vector<std::string>> ConceptParents(
    const KnowledgeBase& kb, const std::string& concept_name) {
  CLASSIC_ASSIGN_OR_RETURN(NodeId node, NodeOfName(kb, concept_name));
  const auto& p = kb.taxonomy().Parents(node);
  return NodeNames(kb, std::vector<NodeId>(p.begin(), p.end()));
}

Result<std::vector<std::string>> ConceptChildren(
    const KnowledgeBase& kb, const std::string& concept_name) {
  CLASSIC_ASSIGN_OR_RETURN(NodeId node, NodeOfName(kb, concept_name));
  const auto& c = kb.taxonomy().Children(node);
  return NodeNames(kb, std::vector<NodeId>(c.begin(), c.end()));
}

Result<std::vector<std::string>> ConceptAncestors(
    const KnowledgeBase& kb, const std::string& concept_name) {
  CLASSIC_ASSIGN_OR_RETURN(NodeId node, NodeOfName(kb, concept_name));
  return NodeNames(kb, kb.taxonomy().Ancestors(node));
}

Result<std::vector<std::string>> ConceptDescendants(
    const KnowledgeBase& kb, const std::string& concept_name) {
  CLASSIC_ASSIGN_OR_RETURN(NodeId node, NodeOfName(kb, concept_name));
  return NodeNames(kb, kb.taxonomy().Descendants(node));
}

Result<std::vector<std::string>> IndMostSpecificConcepts(
    const KnowledgeBase& kb, IndId ind) {
  const auto& msc = kb.state(ind).msc;
  return NodeNames(kb, std::vector<NodeId>(msc.begin(), msc.end()));
}

Result<std::vector<std::string>> NamedConceptsSubsumedBy(
    const KnowledgeBase& kb, const DescPtr& expr) {
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr nf,
                           kb.normalizer().NormalizeConcept(expr));
  Classification cls = kb.taxonomy().Classify(*nf);
  std::set<NodeId> nodes;
  if (cls.equivalent) nodes.insert(*cls.equivalent);
  for (NodeId c : cls.children) {
    nodes.insert(c);
    for (NodeId d : kb.taxonomy().Descendants(c)) nodes.insert(d);
  }
  // Children of an equivalent node are subsumees too.
  if (cls.equivalent) {
    for (NodeId d : kb.taxonomy().Descendants(*cls.equivalent)) {
      nodes.insert(d);
    }
  }
  return NodeNames(kb, std::vector<NodeId>(nodes.begin(), nodes.end()));
}

Result<std::vector<std::string>> NamedConceptsSubsuming(
    const KnowledgeBase& kb, const DescPtr& expr) {
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr nf,
                           kb.normalizer().NormalizeConcept(expr));
  Classification cls = kb.taxonomy().Classify(*nf);
  std::set<NodeId> nodes;
  if (cls.equivalent) {
    nodes.insert(*cls.equivalent);
    for (NodeId a : kb.taxonomy().Ancestors(*cls.equivalent)) {
      nodes.insert(a);
    }
  }
  for (NodeId p : cls.parents) {
    nodes.insert(p);
    for (NodeId a : kb.taxonomy().Ancestors(p)) nodes.insert(a);
  }
  return NodeNames(kb, std::vector<NodeId>(nodes.begin(), nodes.end()));
}

Result<DescPtr> IndTold(const KnowledgeBase& kb, IndId ind) {
  const auto& log = kb.base_log();
  std::vector<DescPtr> told;
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].first == ind) told.push_back(log[i].second);
  }
  if (told.empty()) return Description::Thing();
  if (told.size() == 1) return told[0];
  return Description::And(told);
}

}  // namespace classic
