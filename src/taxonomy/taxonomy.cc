#include "taxonomy/taxonomy.h"

#include <algorithm>

#include "desc/description.h"
#include "obs/metrics.h"
#include "subsume/subsume.h"
#include "util/string_util.h"

namespace classic {

namespace {

/// The node concept `cid` lives on, or kNoNode.
NodeId NodeIn(const CowVector<NodeId>& node_of_concept, ConceptId cid) {
  return cid < node_of_concept.size() ? node_of_concept[cid] : kNoNode;
}

/// Named concepts conjoined at the top level of a definition subsume the
/// definition by construction (the normal form is their meet, further
/// tightened) — they are "told" subsumers and need no structural test.
/// PRIMITIVE/DISJOINT-PRIMITIVE wrap a base description the same way.
void CollectToldSubsumers(const Description& d, const Vocabulary& vocab,
                          const CowVector<NodeId>& node_of_concept,
                          std::vector<NodeId>* out) {
  switch (d.kind()) {
    case DescKind::kConceptName: {
      Result<ConceptId> cid = vocab.FindConcept(d.name());
      if (!cid.ok()) return;
      const NodeId node = NodeIn(node_of_concept, *cid);
      if (node != kNoNode) out->push_back(node);
      return;
    }
    case DescKind::kAnd:
      for (const DescPtr& c : d.conjuncts()) {
        CollectToldSubsumers(*c, vocab, node_of_concept, out);
      }
      return;
    case DescKind::kPrimitive:
    case DescKind::kDisjointPrimitive:
      if (d.child()) {
        CollectToldSubsumers(*d.child(), vocab, node_of_concept, out);
      }
      return;
    default:
      return;
  }
}

/// True if `nf` lists a known filler (FILLS) on some role at its top
/// level.
bool ListsFiller(const NormalForm& nf) {
  for (const auto& [role, record] : nf.roles()) {
    if (!record.fillers.empty()) return true;
  }
  return false;
}

}  // namespace

Classification Taxonomy::Classify(const NormalForm& nf) const {
  return ClassifyInternal(nf, nullptr);
}

Classification Taxonomy::Classify(
    const NormalForm& nf, const std::vector<NodeId>& told_subsumers) const {
  return ClassifyInternal(nf, &told_subsumers);
}

Classification Taxonomy::ClassifyInternal(
    const NormalForm& nf, const std::vector<NodeId>* told_subsumers) const {
  CLASSIC_OBS_COUNT(kClassifications);
  Classification out;
  size_t tests = 0;
  const size_t n = nodes_.size();

  // Verdicts come from the persistent index when known, which makes them
  // survive this call (and supplies them to the next one). Within the
  // call, each walk offers a node once, so every node is decided at most
  // once per direction.
  auto decide = [&](const NormalForm& general, const NormalForm& specific)
      -> bool {
    const NfId gid = general.interned_id();
    const NfId sid = specific.interned_id();
    if (gid != kNoNfId && gid == sid) return true;
    if (gid != kNoNfId && sid != kNoNfId) {
      if (std::optional<bool> cached = subsume_index_->Lookup(gid, sid)) {
        CLASSIC_OBS_COUNT(kSubsumptionMemoHits);
        return *cached;
      }
    }
    ++tests;
    return Subsumes(general, specific, subsume_index_.get());
  };

  // Only a member of filler_nodes_ can be subsumed by a query that lists
  // a top-level filler. SubsumesCached (subsume.cc) returns true for an
  // incoherent `specific` (bottom). Otherwise SubsumesStructural runs
  // RoleSubsumes on every role the query constrains, and RoleSubsumes
  // fails unless IsSubset(general.fillers, specific.fillers): the node
  // must list every filler the query lists on that role. A coherent node
  // that lists no top-level filler lists none of them, so the query does
  // not subsume it; an identical interned form (decide's id fast path)
  // lists the same fillers and is a member. So for such a query, the
  // equivalence test and phase 2 skip every other node without a memo
  // probe.
  const bool lists_filler = ListsFiller(nf);
  auto query_subsumes = [&](NodeId node) {
    if (lists_filler && !filler_nodes_.Test(node)) return false;
    return decide(nf, *nodes_[node].nf);
  };

  // Told subsumers (and, transitively, their ancestors) subsume the
  // target by construction: mark them proven so the top-down sweep walks
  // straight through them without testing.
  DynamicBitset proven(n);
  if (told_subsumers != nullptr) {
    for (NodeId t : *told_subsumers) {
      if (t >= n) continue;
      proven.Set(t);
      proven.OrWith(ancestor_sets_[t]);
    }
  }

  // --- Phase 1: most-specific subsumers (top-down). The set of subsumers
  // is upward-closed, so a node is worth visiting only through a subsuming
  // parent chain.
  DynamicBitset subsumers(n);
  WalkDown(roots_, [&](NodeId node) {
    if (!proven.Test(node) && !decide(*nodes_[node].nf, nf)) return false;
    subsumers.Set(node);
    return true;
  });
  subsumers.ForEach([&](size_t node) {
    for (NodeId child : nodes_[node].children) {
      if (subsumers.Test(child)) return;
    }
    out.parents.push_back(static_cast<NodeId>(node));
  });

  // Equivalence: a most-specific subsumer that the target also subsumes.
  DynamicBitset rejected(n);  // parents the target does not subsume
  for (NodeId p : out.parents) {
    if (query_subsumes(p)) {
      out.equivalent = p;
      out.children.assign(nodes_[p].children.begin(),
                          nodes_[p].children.end());
      out.subsumption_tests = tests;
      return out;
    }
    rejected.Set(p);
  }

  // --- Phase 2: most-general subsumees (downward from the parents, which
  // the walk passes straight through). Every subsumee is a descendant of
  // all parents; with no parents the target sits directly under THING
  // and every root is a candidate. A failing node's descendants may still
  // pass, so failures recurse; successes stop (their descendants are
  // subsumees but not most general).
  //
  // The walk decides only strict descendants of a parent (the parents
  // themselves are rejected), or every node when there is none. For a
  // query that lists a filler, when no member of filler_nodes_ lies
  // there, every decision would be false: skip the walk.
  if (lists_filler) {
    bool reachable = out.parents.empty() && !filler_nodes_.Empty();
    filler_nodes_.ForEach([&](size_t member) {
      for (NodeId p : out.parents) reachable |= IsAncestor(p, member);
    });
    if (!reachable) {
      out.subsumption_tests = tests;
      return out;
    }
  }
  DynamicBitset subsumees(n);
  auto down = [&](NodeId node) {
    if (rejected.Test(node) || !query_subsumes(node)) return true;
    subsumees.Set(node);
    return false;
  };
  if (out.parents.empty()) {
    WalkDown(roots_, down);
  } else {
    WalkDown(out.parents, down);
  }
  // Keep only the most general found nodes. The walk stops at successes,
  // but a found node can still be reached along another path that avoids
  // its found ancestors (an incoherent node sits below every leaf), and
  // that ancestor need not be a direct parent: test the whole ancestor
  // set.
  subsumees.ForEach([&](size_t node) {
    if (ancestor_sets_[node].Intersects(subsumees)) return;
    out.children.push_back(static_cast<NodeId>(node));
  });

  out.subsumption_tests = tests;
  return out;
}

Result<NodeId> Taxonomy::Insert(ConceptId cid) {
  const ConceptInfo& info = vocab_->concept_info(cid);
  if (info.normal_form == nullptr) {
    return Status::Internal("concept registered without a normal form");
  }
  if (NodeIn(node_of_concept_, cid) != kNoNode) {
    return Status::AlreadyExists(
        StrCat("concept already classified: ",
               vocab_->symbols().Name(info.name)));
  }

  std::vector<NodeId> told;
  if (info.source != nullptr) {
    CollectToldSubsumers(*info.source, *vocab_, node_of_concept_, &told);
  }
  Classification cls = Classify(*info.normal_form, told);
  total_insert_tests_ += cls.subsumption_tests;

  if (cls.equivalent) {
    NodeId node = *cls.equivalent;
    nodes_.Mutable(node).synonyms.push_back(cid);
    node_of_concept_.GrowTo(cid, kNoNode);
    node_of_concept_.Mutable(cid) = node;
    return node;
  }

  NodeId node = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({{cid}, info.normal_form, {}, {}});
  if (info.normal_form->incoherent() || ListsFiller(*info.normal_form)) {
    filler_nodes_.Set(node);
  }
  node_of_concept_.GrowTo(cid, kNoNode);
  node_of_concept_.Mutable(cid) = node;

  // Ancestor index: the new node's ancestors are its parents plus theirs
  // (a couple of word-parallel unions); every (transitive) descendant
  // gains the new node's bit (the rest of their sets is unchanged — they
  // already sat below the parents).
  {
    DynamicBitset anc;
    for (NodeId p : cls.parents) {
      anc.Set(p);
      anc.OrWith(ancestor_sets_[p]);
    }
    ancestor_sets_.push_back(std::move(anc));
    WalkDown(cls.children, [&](NodeId d) {
      ancestor_sets_.Mutable(d).Set(node);
      return true;
    });
  }

  // Splice between parents and children: drop parent->child edges that the
  // new node makes transitive.
  for (NodeId p : cls.parents) {
    for (NodeId c : cls.children) {
      nodes_.Mutable(p).children.erase(c);
      nodes_.Mutable(c).parents.erase(p);
    }
  }
  for (NodeId p : cls.parents) {
    nodes_.Mutable(p).children.insert(node);
    nodes_.Mutable(node).parents.insert(p);
  }
  for (NodeId c : cls.children) {
    nodes_.Mutable(c).parents.insert(node);
    nodes_.Mutable(node).children.insert(c);
    // The child may have been a root (no named parents); it no longer is.
    roots_.erase(c);
  }
  if (cls.parents.empty()) roots_.insert(node);
  return node;
}

Result<NodeId> Taxonomy::NodeOf(ConceptId cid) const {
  const NodeId node = NodeIn(node_of_concept_, cid);
  if (node == kNoNode) {
    return Status::NotFound(
        StrCat("concept not in taxonomy: ",
               vocab_->symbols().Name(vocab_->concept_info(cid).name)));
  }
  return node;
}

std::vector<NodeId> Taxonomy::Ancestors(NodeId node) const {
  return ancestor_sets_[node].ToVector();
}

std::vector<NodeId> Taxonomy::Descendants(NodeId node) const {
  std::vector<NodeId> out;
  WalkDown(nodes_[node].children, [&out](NodeId d) {
    out.push_back(d);
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace classic
