// The CLASSIC knowledge base: individuals under an open-world assumption,
// with active deduction.
//
// This module implements Sections 3.2-3.4 of the paper:
//
//  - create-ind / assert-ind with FILLS, CLOSE and arbitrary concept
//    expressions; information accumulates monotonically;
//  - integrity checking: an update that contradicts earlier assertions is
//    rejected atomically (nothing changes);
//  - active deductions, run to a fixed point by a worklist engine:
//      * instance recognition ("the moment we learn that Rocky is enrolled
//        at some school we implicitly recognize Rocky as a STUDENT"),
//      * propagation of ALL restrictions to known role fillers,
//      * role closure from AT-MOST bounds,
//      * filler derivation from SAME-AS co-reference chains,
//      * forward-chaining rules (assert-rule), fired at most once per
//        (rule, individual) pair;
//  - cascade reclassification: when an individual's state changes, the
//    individuals holding it as a filler (its slot in the fills index)
//    are re-examined;
//  - retraction (the paper's announced "destructive updates"), realized by
//    removing the base assertion and re-deriving the whole assertional
//    state from the remaining base (derivations are never edited in
//    place).
//
// Termination follows the paper's argument: every derived quantity moves
// monotonically in a bounded lattice ("every individual can move into a
// class at most once (since there is no 'removal')"), and each rule fires
// at most once per individual.

#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "desc/normal_form.h"
#include "desc/normalize.h"
#include "desc/parser.h"
#include "desc/vocabulary.h"
#include "kb/fills_index.h"
#include "taxonomy/taxonomy.h"
#include "util/bitset.h"
#include "util/cow.h"
#include "util/id_set.h"
#include "util/result.h"
#include "util/stable_vector.h"
#include "util/status.h"

namespace classic {

class KbEngine;
class Propagator;

/// \brief A forward-chaining rule: "if an individual is a <antecedent>
/// then it is also a <consequent>" (paper Section 3.3). Rules are
/// triggers, not logical implications: they fire when an individual is
/// *recognized* as an instance of the antecedent.
struct Rule {
  /// Taxonomy node of the named antecedent concept.
  NodeId antecedent = 0;
  /// Antecedent concept id (for printing / persistence).
  ConceptId antecedent_concept = 0;
  /// Consequent as written.
  DescPtr consequent_source;
  /// Consequent, normalized.
  NormalFormPtr consequent;
};

/// \brief Assertional state of one CLASSIC individual. Flat: its sets are
/// sorted id vectors (util/id_set.h), `derived` a flat normal form.
/// Its base assertions are its entries in KnowledgeBase::base_log().
struct IndividualState {
  /// Everything currently derivable, as one normal form. Never null.
  /// Owned by this individual, not interned (nf_store.h), except for the
  /// shared intrinsic form it starts from.
  NormalFormPtr derived;
  /// Every taxonomy node this individual is a recognized instance of.
  IdSet<NodeId> subsumer_nodes;
  /// Most specific of the above ("the lowest concept(s) in the schema
  /// whose description(s) it satisfies", Section 5).
  IdSet<NodeId> msc;
  /// Rules already fired for this individual (indices into rules()).
  IdSet<size_t> applied_rules;
};

/// \brief Engine statistics, exposed for the benchmark harness. Only the
/// writer's updates and its Propagator write them; readers count their
/// instance tests in the obs layer (`instance-checks`).
struct KbStats {
  size_t propagation_steps = 0;
  size_t rule_firings = 0;
  size_t realizations = 0;
  size_t rejected_updates = 0;
};

/// \brief A CLASSIC database: schema + individuals + rules.
///
/// Thread-safety contract (see DESIGN.md section 7): all mutating
/// operations (DDL, DML, retraction) follow a single-writer discipline —
/// at most one thread mutates a given KnowledgeBase, with no concurrent
/// readers *of that object*. Read-only operations (queries, Satisfies,
/// introspection) are safe from any number of threads concurrently,
/// because every logically-const cache they touch (symbol/host-value
/// interning, the normal-form store, the subsumption memo, lazy state
/// materialization) is internally synchronized. The epoch layer in
/// kb/kb_engine.h builds on this: the writer mutates its own database
/// and publishes immutable clones of it for readers.
class KnowledgeBase {
 public:
  KnowledgeBase();

  Vocabulary& vocab() { return *vocab_; }
  const Vocabulary& vocab() const { return *vocab_; }
  Taxonomy& taxonomy() { return taxonomy_; }
  const Taxonomy& taxonomy() const { return taxonomy_; }
  /// The normalizer's only mutable state is its hash-consing store, a
  /// cache; normalizing a query never changes database meaning.
  Normalizer& normalizer() const { return *normalizer_; }
  const KbStats& stats() const { return stats_; }

  // --- Schema operations (DDL) -------------------------------------------

  /// \brief define-role. Attributes are single-valued (usable in SAME-AS).
  Result<RoleId> DefineRole(std::string_view name, bool attribute = false);

  /// \brief define-concept: names a description, normalizes it and
  /// classifies it into the taxonomy. Definitions may reference only
  /// already-defined concepts, so the terminology is acyclic by
  /// construction.
  Result<ConceptId> DefineConcept(std::string_view name, DescPtr definition);

  /// \brief assert-rule[antecedent-name, consequent]: adds a forward
  /// rule and immediately fires it for all current instances.
  Result<size_t> AssertRule(std::string_view antecedent_name,
                            DescPtr consequent);

  const std::vector<Rule>& rules() const { return rules_; }
  /// Rules attached to a node.
  std::vector<size_t> RulesOnNode(NodeId node) const;

  // --- Individual operations (DML) ---------------------------------------

  /// \brief create-ind[name]; knows nothing beyond being a THING
  /// (a CLASSIC-THING, precisely).
  Result<IndId> CreateIndividual(std::string_view name);

  /// \brief create-ind[name, desc]: create and immediately assert.
  Result<IndId> CreateIndividual(std::string_view name, DescPtr initial);

  /// \brief assert-ind[ind, expr]: adds information about an individual.
  ///
  /// The expression may use FILLS, CLOSE and any concept constructor.
  /// If the new information contradicts what is known (an integrity
  /// violation), the call returns kInconsistent and the database is
  /// unchanged.
  Status AssertInd(IndId ind, DescPtr expr);

  /// \brief Bulk load: asserts many (individual, expression) pairs as
  /// ONE atomic update. All descriptive parts are normalized up front
  /// and settle together in a single propagation wavefront; CLOSE
  /// conjuncts are then applied in batch order against that settled
  /// state, so "the fillers known at that moment" means after the whole
  /// batch's descriptive fixed point. Any contradiction rejects the
  /// entire batch atomically.
  Status AssertIndBatch(const std::vector<std::pair<IndId, DescPtr>>& batch);

  /// \brief Retracts a previously asserted expression (matched
  /// structurally) and re-derives the database from the remaining base
  /// assertions. The paper's announced "destructive update" facility.
  Status RetractInd(IndId ind, const DescPtr& expr);

  /// \brief Every accepted assertion, in the global order replay must
  /// keep (CLOSE means "the fillers known at that moment").
  const CowVector<std::pair<IndId, DescPtr>>& base_log() const {
    return base_log_;
  }

  /// \brief Re-runs propagation from every CLASSIC individual. The
  /// derived state is already a fixed point, so this is a (cheap)
  /// no-op on a consistent database — it exists so tools and tests can
  /// drive the worklist engine over the full role graph on demand.
  Status Repropagate();

  /// \brief A canonical, byte-comparable rendering of ALL derived
  /// state: per individual the derived normal form, explicit closed
  /// roles, most-specific concepts and fired rules; then every taxonomy
  /// node's instance set. Two databases with the same vocabulary derive
  /// the same string iff their assertional fixed points coincide — the
  /// determinism harness diffs this across assertion orders and bulk
  /// loads.
  std::string CanonicalDerivedState() const;

  // --- Inspection ---------------------------------------------------------

  const IndividualState& state(IndId ind) const;
  bool IsClassicIndividual(IndId ind) const;

  /// \brief All recognized instances of a taxonomy node (full extension,
  /// maintained incrementally), as a bitset over IndIds.
  const DynamicBitset& Instances(NodeId node) const;

  /// \brief Individuals whose derived state has a record on `role` (a
  /// bound, a filler, a closure or a value restriction): the only
  /// individuals where Disjoint can find a clash on a role a query
  /// constrains. ask-possible's exclusion surface reads it.
  const DynamicBitset& RecordHolders(RoleId role) const;

  /// \brief Individuals whose derived state carries a user
  /// disjoint-primitive atom, an enumeration or a co-reference: the
  /// state-side sites where Disjoint can find a clash whatever roles the
  /// query constrains.
  const DynamicBitset& StateSiteHolders() const;

  /// \brief Filler-inverted postings: the query planner's FILLS access
  /// path, reverse path-query steps and the propagation cascade.
  /// Immutable on published snapshots.
  const FillsIndex& fills_index() const { return fills_index_; }

  /// \brief All CLASSIC individuals created so far (visible ones, on a
  /// frozen snapshot).
  std::vector<IndId> AllClassicIndividuals() const;

  /// \brief Upper bound (exclusive) on the individual ids that queries
  /// enumerate. On the live/master database this is simply
  /// vocab().num_individuals(). On a published snapshot it is frozen at
  /// publish time, so host values interned *while serving queries* (e.g.
  /// a literal mentioned only in a query expression) never leak into
  /// answer sets — that is what makes concurrent batch answers
  /// byte-identical to serial ones regardless of interleaving.
  IndId num_visible_individuals() const {
    return visible_ind_limit_ != kNoId
               ? visible_ind_limit_
               : static_cast<IndId>(vocab_->num_individuals());
  }

  /// \brief Freezes the visible-individual bound at the current count
  /// (called by the epoch layer on a fresh clone, before publishing it).
  /// A frozen KB also stops extending its shared state store: lazy state
  /// materialization (host literals interned by queries) goes to a
  /// snapshot-local overlay, so the chunks shared with the master and
  /// with other epochs are never written again.
  void FreezeVisibleIndividuals() {
    visible_ind_limit_ = static_cast<IndId>(vocab_->num_individuals());
    frozen_ = true;
    frozen_states_size_ = states_.size();
  }

  /// \brief True iff the individual's known state entails the concept.
  ///
  /// This is the open-world instance test: (ALL r C) holds only when it
  /// was asserted (value restriction subsumed) or the role is closed and
  /// every known filler satisfies C; (AT-LEAST n r) holds when enough
  /// distinct fillers are known or a bound was asserted; TEST functions
  /// are executed.
  bool Satisfies(IndId ind, const NormalForm& concept_nf) const;

  /// \brief Walks a chain of roles through unique known fillers; returns
  /// the end individual if every step resolves.
  std::optional<IndId> ResolvePath(IndId start, const RolePath& path) const;

  /// \brief Runs the worklist propagation engine from `seeds`
  /// (deduplicated) to a fixed point; rolls back every touched
  /// individual on inconsistency. Propagation is monotone, so seeding
  /// already-settled individuals is a safe (and then cheap) no-op —
  /// which is what makes this safe to expose: callers can only trigger
  /// re-derivation, never invent assertions.
  Status Propagate(const std::vector<IndId>& seeds);

 private:
  friend class KbEngine;
  friend class Propagator;

  /// \brief Copy-on-write copy for epoch publishing (KbEngine only): a
  /// KnowledgeBase whose meaning, ids (Symbols, IndIds, NfIds, NodeIds)
  /// and memo contents coincide with this one, built in O(1) — the copy
  /// *shares* the vocabulary, normalizer and subsumption memo, and every
  /// store is a CowVector whose chunks it shares with the source. The
  /// single writer path-copies whatever it touches next, so the copy
  /// never changes after the call. The source must not be concurrently
  /// mutated during the call (single-writer discipline).
  std::unique_ptr<KnowledgeBase> Clone() const;
  KnowledgeBase(const KnowledgeBase& other);

  /// Publish instrumentation (KbEngine only): chunk/value copies
  /// performed by the writer's copy-on-write stores since the last call
  /// (the physical write delta this epoch), and the approximate bytes of
  /// chunk storage a fresh Clone() shares instead of copying.
  size_t TakeCowCopyCount();
  size_t ApproxSharedCowBytes() const;

  /// SatisfiesImpl's goals in progress: a stack linked through its call
  /// frames, as deep as the filler recursion, so it never allocates.
  struct SatisfiesGoal {
    IndId ind;
    const NormalForm* nf;
    const SatisfiesGoal* caller;
  };

  /// Recursive instance test with a cycle guard (individual graphs may be
  /// cyclic; an in-progress goal conservatively fails, which keeps the
  /// test sound for derivable knowledge).
  bool SatisfiesImpl(IndId ind, const NormalForm& nf,
                     const SatisfiesGoal* caller) const;

  /// Re-derives everything from base assertions (retraction support).
  Status RederiveAll();

  /// Applies one asserted individual expression through `prop`. CLOSE
  /// conjuncts are peeled off and applied against the state *after* the
  /// descriptive part has propagated: closing a role fixes its extension
  /// to the fillers known at that moment (Section 3.2).
  Status ApplyIndividualExpr(Propagator* prop, IndId ind,
                             const DescPtr& expr);

  /// Normal form of what an individual intrinsically is (CLASSIC-THING,
  /// or the host type chain).
  NormalFormPtr IntrinsicForm(IndId ind) const;

  /// Returns the state record for `ind`, materializing records lazily
  /// (normalization may intern new host individuals at any time). On a
  /// frozen snapshot, materialization lands in the snapshot-local overlay
  /// so the chunked store shared with other epochs stays untouched;
  /// reads of existing records are lock-free either way.
  const IndividualState& StateRef(IndId ind) const;

  /// Writer-only mutable access to a state record (path-copies a shared
  /// chunk on first touch per epoch). Never called on a frozen snapshot.
  IndividualState& MutableState(IndId ind);

  /// One shared Vocabulary/Normalizer serves the master and every
  /// published epoch — that is what keeps ids consistent across epochs
  /// with zero copying. Both are safe for one writer + many readers.
  std::shared_ptr<Vocabulary> vocab_;
  std::shared_ptr<Normalizer> normalizer_;
  Taxonomy taxonomy_;

  /// Indexed by IndId. Chunked copy-on-write store shared across epochs;
  /// the writer mutates through MutableState (path-copying), snapshots
  /// only read. Mutable because the master lazily materializes records
  /// from logically-const paths.
  mutable CowVector<IndividualState> states_;
  /// Snapshot-local overlay for records materialized after the freeze
  /// (host literals interned while serving queries). Indexed by
  /// ind - frozen_states_size_; append-only with stable addresses.
  mutable StableVector<IndividualState> state_overlay_;
  mutable std::mutex states_mutex_;
  /// True on published snapshots (set by FreezeVisibleIndividuals).
  bool frozen_ = false;
  size_t frozen_states_size_ = 0;

  /// kNoId on the live/master database; set on published snapshots.
  IndId visible_ind_limit_ = kNoId;
  /// All accepted assertions in global order (replay preserves the
  /// interleaving across individuals, which matters for CLOSE).
  CowVector<std::pair<IndId, DescPtr>> base_log_;
  /// Indexed by NodeId: the node's extension, and the rules whose
  /// antecedent lives on it. Values are boxed so a publish shares them
  /// and the writer copies one on its first write after a publish.
  CowVector<std::shared_ptr<DynamicBitset>> instances_;
  CowVector<std::shared_ptr<std::vector<size_t>>> rules_on_node_;
  /// ask-possible's stored exclusion sites: indexed by RoleId, the
  /// record holders; and the state-site holders, boxed the same way
  /// (written through MutableBoxed). Written only by
  /// Propagator::MergeInto (when a derived state changes, journaled for
  /// rollback), cleared by RederiveAll.
  CowVector<std::shared_ptr<DynamicBitset>> record_holders_;
  std::shared_ptr<DynamicBitset> state_site_holders_;
  size_t state_site_copies_ = 0;
  std::vector<Rule> rules_;
  /// Filler-first postings (filler -> role -> holders): the planner's
  /// FILLS access path and the cascade's "who holds this filler". Written
  /// at the single call site in PropagateToFillers, rebuilt by
  /// RederiveAll.
  FillsIndex fills_index_;

  KbStats stats_;
};

}  // namespace classic
