// The schema taxonomy: named concepts organized by subsumption.
//
// "All concepts in the schema are reduced to a normal form, and then are
// compared to each other to establish the subsumption hierarchy" (paper,
// Section 5). The subsumption relation induces an acyclic directed graph
// over the space of named concepts — the IS-A hierarchy — which, crucially,
// is *computed from the definitions* and not under user control.
//
// Nodes are equivalence classes: distinct names whose definitions are
// mutually subsuming share one node (the paper's Section 2.2 observes that
// several different expressions can denote the same class).
//
// Classification uses the standard two-phase search: a top-down sweep for
// the most-specific subsumers (exploiting that the subsumer set is
// upward-closed) followed by a downward sweep from those parents for the
// most-general subsumees. Both sweeps, KB realization, the ancestor-index
// update on insert and Descendants run through one downward walk
// (WalkDown) over dense NodeId-indexed scratch: a vector queue and word
// bitsets, allocated per call, so no search allocates per node. Four
// layers keep the constant factors down:
//
//  - every subsumption verdict lands in a persistent SubsumptionIndex
//    keyed on interned NfIds (verdicts never go stale, so the index is
//    shared across Classify calls, KB realization and queries);
//  - Insert seeds the top-down phase with the definition's *told*
//    subsumers (named conjuncts), which are subsumers by construction and
//    need no test — the search effectively starts below them;
//  - the transitive-ancestor index is a dynamic bitset per node, giving
//    O(1) ancestor tests and O(words) set unions on insert;
//  - a bitset marks the nodes whose form is incoherent or lists a
//    top-level filler. A query that lists a filler can subsume no other
//    node (structural subsumption compares filler sets), so its
//    bottom-up search probes only those nodes and is skipped when none
//    lies below its parents: a point ask such as
//    (AND PRIM-0 (FILLS r Ind)) no longer walks PRIM-0's subtree.
//
// The number of subsumption tests actually computed (memo misses) is
// reported so benches E2/E3 can measure the pruning.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "desc/normal_form.h"
#include "desc/vocabulary.h"
#include "subsume/subsume_index.h"
#include "util/bitset.h"
#include "util/cow.h"
#include "util/result.h"

namespace classic {

/// Identifier of a taxonomy node (an equivalence class of named concepts).
using NodeId = uint32_t;

/// No node: a concept the taxonomy has not classified.
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// \brief Result of classifying a normal form against the taxonomy.
struct Classification {
  /// Most specific named subsumers ("immediate parents").
  std::vector<NodeId> parents;
  /// Most general named subsumees ("immediate children").
  std::vector<NodeId> children;
  /// Node whose concepts are equivalent to the classified form, if any.
  std::optional<NodeId> equivalent;
  /// Number of subsumption tests actually computed (memo misses; pruning
  /// statistic).
  size_t subsumption_tests = 0;
};

/// \brief The IS-A DAG over named concepts.
class Taxonomy {
 public:
  explicit Taxonomy(const Vocabulary* vocab)
      : vocab_(vocab),
        subsume_index_(std::make_shared<SubsumptionIndex>()) {}

  /// \brief Copy-on-write copy bound to `vocab` — the epoch publish path.
  /// The node/edge arrays, the ancestor index and the concept directory
  /// share chunk storage with the source (the writer path-copies touched
  /// chunks on its next insert); the subsumption memo is the SAME
  /// lock-free index (interned NfIds live in the shared
  /// normal-form store, so verdicts are valid on every copy and all
  /// epochs warm one table). O(delta), not O(schema).
  Taxonomy(const Taxonomy& other, const Vocabulary* vocab)
      : vocab_(vocab),
        nodes_(other.nodes_),
        ancestor_sets_(other.ancestor_sets_),
        node_of_concept_(other.node_of_concept_),
        roots_(other.roots_),
        filler_nodes_(other.filler_nodes_),
        subsume_index_(other.subsume_index_),
        total_insert_tests_(other.total_insert_tests_) {}

  Taxonomy(const Taxonomy&) = delete;
  Taxonomy& operator=(const Taxonomy&) = delete;

  /// \brief Inserts a named concept (already registered in the
  /// Vocabulary). Returns the node it lives on — a fresh node, or an
  /// existing one when the definition is equivalent to a known concept.
  Result<NodeId> Insert(ConceptId cid);

  /// \brief Classifies `nf` without inserting anything.
  Classification Classify(const NormalForm& nf) const;

  /// \brief Same, seeded with nodes already known to subsume `nf` (told
  /// subsumers — e.g. named conjuncts of the definition `nf` came from).
  /// Seeds and their ancestors are taken on faith, not tested.
  Classification Classify(const NormalForm& nf,
                          const std::vector<NodeId>& told_subsumers) const;

  /// \brief Node carrying `concept`, or NotFound if never inserted.
  Result<NodeId> NodeOf(ConceptId cid) const;

  /// Concepts (synonyms) living on a node.
  const std::vector<ConceptId>& Synonyms(NodeId node) const {
    return nodes_[node].synonyms;
  }
  const NormalFormPtr& NodeForm(NodeId node) const { return nodes_[node].nf; }

  const std::set<NodeId>& Parents(NodeId node) const {
    return nodes_[node].parents;
  }
  const std::set<NodeId>& Children(NodeId node) const {
    return nodes_[node].children;
  }

  /// \brief All (transitive) ancestors, excluding the node itself. Served
  /// from an incrementally-maintained bitset index (the paper cites ideas
  /// "for efficiently maintaining information about the subsumption
  /// hierarchy itself").
  std::vector<NodeId> Ancestors(NodeId node) const;

  /// \brief O(1) ancestor test from the same index.
  bool IsAncestor(NodeId ancestor, NodeId node) const {
    return ancestor_sets_[node].Test(ancestor);
  }

  /// \brief All (transitive) descendants, excluding the node itself.
  std::vector<NodeId> Descendants(NodeId node) const;

  /// \brief The one downward breadth-first walk every taxonomy search
  /// uses (classification, realization, ancestor-index upkeep,
  /// Descendants). Starting from `starts`, each node reachable through
  /// descended nodes is offered to `visit` exactly once, in BFS order;
  /// `visit(node)` returns whether to descend into the node's children.
  /// The queue and seen set are dense NodeId-indexed scratch sized to
  /// num_nodes() and owned by the call, so concurrent walks over one
  /// published snapshot share nothing.
  template <typename Starts, typename Visit>
  void WalkDown(const Starts& starts, Visit&& visit) const {
    std::vector<NodeId> queue;
    queue.reserve(nodes_.size());
    DynamicBitset seen(nodes_.size());
    auto push = [&queue, &seen](NodeId n) {
      if (seen.Test(n)) return;
      seen.Set(n);
      queue.push_back(n);
    };
    for (NodeId n : starts) push(n);
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId node = queue[head];
      if (!visit(node)) continue;
      for (NodeId child : nodes_[node].children) push(child);
    }
  }

  /// Nodes with no parents (children of the implicit THING root).
  const std::set<NodeId>& roots() const { return roots_; }
  size_t num_nodes() const { return nodes_.size(); }

  /// \brief The shared subsumption memo. Grows monotonically; safe to
  /// consult from any code holding forms interned in this database's
  /// NormalFormStore (KB realization, query instance checks, ...).
  SubsumptionIndex* subsumption_index() const { return subsume_index_.get(); }

  /// Total subsumption tests computed by all Insert calls (bench E2).
  size_t total_insert_tests() const { return total_insert_tests_; }

  /// \brief Drains the COW copy counters (chunks path-copied) accumulated
  /// since the last call.
  size_t TakeCowCopies() {
    return nodes_.TakeCopies() + ancestor_sets_.TakeCopies() +
           node_of_concept_.TakeCopies();
  }

  /// \brief Approximate bytes of chunk storage shareable with copies.
  size_t ApproxSharedBytes() const {
    return nodes_.ApproxChunkBytes() + ancestor_sets_.ApproxChunkBytes() +
           node_of_concept_.ApproxChunkBytes();
  }

 private:
  struct Node {
    std::vector<ConceptId> synonyms;
    NormalFormPtr nf;
    std::set<NodeId> parents;
    std::set<NodeId> children;
  };

  Classification ClassifyInternal(
      const NormalForm& nf, const std::vector<NodeId>* told_subsumers) const;

  const Vocabulary* vocab_;
  /// Node/edge arrays share chunks across epoch copies (COW).
  CowVector<Node> nodes_;
  /// ancestor_sets_[n] = every strict ancestor of n; maintained on insert.
  CowVector<DynamicBitset> ancestor_sets_;
  /// node_of_concept_[c] = the node concept c lives on (kNoNode when c
  /// is not classified).
  CowVector<NodeId> node_of_concept_;
  std::set<NodeId> roots_;
  /// Nodes whose form is incoherent or lists a top-level filler: the only
  /// nodes a query that lists a filler can subsume. Set on insert; copied
  /// (n/64 words) by the epoch copy.
  DynamicBitset filler_nodes_;
  /// Persistent (NfId, NfId) -> verdict memo; interned forms are
  /// immutable, so entries never go stale, and the index is internally
  /// synchronized — shared by every epoch copy via shared_ptr.
  std::shared_ptr<SubsumptionIndex> subsume_index_;
  size_t total_insert_tests_ = 0;
};

}  // namespace classic
