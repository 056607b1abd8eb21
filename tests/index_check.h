// CheckIndexes: recomputes every index a KnowledgeBase maintains
// incrementally and compares it with the index the KB serves.
//
// The KB records each derived fact twice: in the individual's state (the
// taxonomy nodes it is recognized under, its derived role fillers) and in
// indexes that propagation updates alongside (concept extensions, the
// filler postings, the rules attached to each node). The indexes are
// written at their own sites and undone by the propagation journal, so a
// missed insert or a missed rollback leaves an index stale while every
// state still reads right — and a stale index changes answers (the
// planner's candidate sets, reverse path-query steps, cascades). This
// helper rebuilds each index from public accessors only and reports the
// first difference as a dump that diffs line by line:
//
//   - the extension of every taxonomy node, from each visible
//     individual's subsumer_nodes;
//   - every (role, filler) posting, from each visible individual's
//     derived fillers (a null posting and an empty one are equal);
//   - RulesOnNode for every node, from rules() in index order;
//   - Holders(f), the set propagation's cascade re-examines, equals the
//     union over roles of Postings(r, f);
//   - ask-possible's exclusion sites: RecordHolders(r) for every role,
//     from each visible individual's derived role records, and
//     StateSiteHolders(), from each derived state's user
//     disjoint-primitive atoms, enumeration and co-references.
//
// Usage: EXPECT_TRUE(CheckIndexes(db.kb())) after an update, on a live
// database or on a published snapshot's kb().

#pragma once

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kb/knowledge_base.h"

namespace classic {

namespace index_check {

inline std::vector<IndId> Members(const IdSet<IndId>* s) {
  if (s == nullptr) return {};
  return {s->begin(), s->end()};
}

inline std::vector<IndId> Members(const DynamicBitset* b) {
  return b->ToVector();
}

inline std::string Names(const KnowledgeBase& kb,
                         const std::vector<IndId>& inds) {
  std::string out = "{";
  for (size_t k = 0; k < inds.size(); ++k) {
    if (k > 0) out += " ";
    out += kb.vocab().IndividualName(inds[k]);
  }
  return out + "}";
}

inline std::string NodeName(const KnowledgeBase& kb, NodeId node) {
  const std::vector<ConceptId>& syns = kb.taxonomy().Synonyms(node);
  if (syns.empty()) return "?";
  return kb.vocab().symbols().Name(kb.vocab().concept_info(syns[0]).name);
}

inline std::string RoleName(const KnowledgeBase& kb, RoleId role) {
  return kb.vocab().symbols().Name(kb.vocab().role(role).name);
}

inline ::testing::AssertionResult Differs(const std::string& what,
                                          const std::string& index,
                                          const std::string& recomputed) {
  return ::testing::AssertionFailure()
         << what << " differs\n  index:      " << index
         << "\n  recomputed: " << recomputed;
}

}  // namespace index_check

inline ::testing::AssertionResult CheckIndexes(const KnowledgeBase& kb) {
  using index_check::Differs;
  using index_check::Members;
  using index_check::Names;
  const IndId limit = kb.num_visible_individuals();
  const Taxonomy& tax = kb.taxonomy();

  const size_t num_roles = kb.vocab().num_roles();
  std::vector<std::vector<IndId>> extensions(tax.num_nodes());
  std::map<std::pair<RoleId, IndId>, std::vector<IndId>> postings;
  std::vector<std::vector<IndId>> record_holders(num_roles);
  std::vector<IndId> state_sites;
  for (IndId i = 0; i < limit; ++i) {
    const IndividualState& st = kb.state(i);
    for (NodeId node : st.subsumer_nodes) extensions[node].push_back(i);
    for (const auto& [role, rr] : st.derived->roles()) {
      record_holders[role].push_back(i);
      for (IndId filler : rr.fillers) postings[{role, filler}].push_back(i);
    }
    bool state_site = st.derived->enumeration() != nullptr ||
                      !st.derived->coref().empty();
    for (AtomId atom : st.derived->atoms()) {
      const AtomInfo& info = kb.vocab().atom(atom);
      if (info.group != kNoSymbol && !info.builtin) state_site = true;
    }
    if (state_site) state_sites.push_back(i);
  }

  for (RoleId role = 0; role < num_roles; ++role) {
    const std::vector<IndId> served = Members(&kb.RecordHolders(role));
    if (served != record_holders[role]) {
      return Differs("record holders of " + index_check::RoleName(kb, role),
                     Names(kb, served), Names(kb, record_holders[role]));
    }
  }
  const std::vector<IndId> served_sites = Members(&kb.StateSiteHolders());
  if (served_sites != state_sites) {
    return Differs("state-site holders", Names(kb, served_sites),
                   Names(kb, state_sites));
  }

  for (NodeId node = 0; node < tax.num_nodes(); ++node) {
    const std::vector<IndId> served = Members(&kb.Instances(node));
    if (served != extensions[node]) {
      return Differs("extension of node " + std::to_string(node) + " (" +
                         index_check::NodeName(kb, node) + ")",
                     Names(kb, served), Names(kb, extensions[node]));
    }
  }

  for (IndId filler = 0; filler < limit; ++filler) {
    std::set<IndId> holders;
    for (RoleId role = 0; role < num_roles; ++role) {
      const std::vector<IndId> served =
          Members(kb.fills_index().Postings(role, filler));
      auto it = postings.find({role, filler});
      const std::vector<IndId> want =
          it == postings.end() ? std::vector<IndId>{} : it->second;
      if (served != want) {
        return Differs("posting (" + index_check::RoleName(kb, role) + ", " +
                           kb.vocab().IndividualName(filler) + ")",
                       Names(kb, served), Names(kb, want));
      }
      holders.insert(want.begin(), want.end());
    }
    const std::vector<IndId> refs = kb.fills_index().Holders(filler);
    const std::vector<IndId> want(holders.begin(), holders.end());
    if (refs != want) {
      return Differs("holders of " + kb.vocab().IndividualName(filler),
                     Names(kb, refs), Names(kb, want));
    }
  }

  for (NodeId node = 0; node < tax.num_nodes(); ++node) {
    std::vector<size_t> want;
    for (size_t idx = 0; idx < kb.rules().size(); ++idx) {
      if (kb.rules()[idx].antecedent == node) want.push_back(idx);
    }
    const std::vector<size_t> served = kb.RulesOnNode(node);
    if (served != want) {
      auto render = [](const std::vector<size_t>& v) {
        std::string out = "{";
        for (size_t k = 0; k < v.size(); ++k) {
          if (k > 0) out += " ";
          out += std::to_string(v[k]);
        }
        return out + "}";
      };
      return Differs("rules on node " + std::to_string(node) + " (" +
                         index_check::NodeName(kb, node) + ")",
                     render(served), render(want));
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace classic
