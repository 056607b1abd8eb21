// Canonical normal form of CLASSIC descriptions.
//
// "All concepts in the schema are reduced to a normal form, and then are
// compared to each other to establish the subsumption hierarchy" (paper,
// Section 5). The normal form is a conjunction-free record:
//
//   - a set of primitive atoms (expanded with built-in implications),
//   - an optional enumeration (from ONE-OF; intersected across conjuncts),
//   - one restriction record per constrained role
//     {at-least, at-most, value restriction, known fillers, closed flag},
//   - a set of TEST function names,
//   - a congruence-closed co-reference graph (from SAME-AS),
//   - an incoherence flag (the implicit bottom concept).
//
// Individuals' derived state uses the same representation, which is what
// lets one language serve as DDL, DML, query and answer language.
//
// The layout is flat: every set is a sorted id vector (util/id_set.h) and
// the role records are one vector sorted by RoleId, so subsumption and
// instance tests are merge walks and binary searches over contiguous
// memory. The co-reference graph and the incoherence reason, which most
// forms lack, live out of line and are absent when empty.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "desc/coref.h"
#include "desc/ids.h"
#include "desc/vocabulary.h"
#include "util/id_set.h"
#include "util/intern.h"

namespace classic {

class NormalForm;
using NormalFormPtr = std::shared_ptr<const NormalForm>;

/// \brief Why a normal form collapsed to the bottom concept. The static
/// analyzer keys on this (rule selection and machine-readable output);
/// the free-text incoherence reason stays the human-facing message.
enum class IncoherenceKind : uint8_t {
  /// Not incoherent.
  kNone,
  /// The literal NOTHING concept.
  kNothing,
  /// AT-LEAST n > AT-MOST m on one role (cardinality clash).
  kCardinality,
  /// Two atoms from one disjointness group (includes host-type clashes
  /// such as INTEGER vs STRING).
  kDisjointAtoms,
  /// ONE-OF enumeration emptied by intersection / intrinsic filtering.
  kEmptyEnumeration,
  /// A known filler violates the role's value restriction (e.g.
  /// ALL r NUMBER with FILLS r "str").
  kFillerClash,
  /// Co-referent attributes carry incompatible restrictions.
  kCorefClash,
  /// Inherited from another incoherent form, or marked by a caller that
  /// supplied no structured kind.
  kOther,
};

/// \brief Stable lint-style name of an incoherence kind ("cardinality",
/// "disjoint-atoms", ...).
const char* IncoherenceKindName(IncoherenceKind kind);

/// \brief The constraints a normal form places on one role.
struct RoleRestriction {
  /// Lower cardinality bound (AT-LEAST, or implied by known fillers).
  uint32_t at_least = 0;
  /// Upper cardinality bound (AT-MOST, or implied by closure / by an
  /// enumerated value restriction). kUnbounded when unconstrained.
  uint32_t at_most = kUnbounded;
  /// Value restriction (ALL); null means THING (no restriction).
  NormalFormPtr value_restriction;
  /// Known fillers (FILLS). Distinct under the unique-name assumption.
  IdSet<IndId> fillers;
  /// True when the filler set is complete (CLOSE, or deduced when
  /// |fillers| reaches at_most).
  bool closed = false;

  /// \brief True if this record constrains nothing.
  bool IsTrivial() const;

  bool operator==(const RoleRestriction& other) const;
};

/// \brief A description in canonical normal form. Immutable once built
/// (the Normalizer and the KB's propagation engine construct them through
/// the Builder-style mutating interface, then freeze behind NormalFormPtr).
class NormalForm {
 public:
  /// The role records, ascending by RoleId, at most one per role.
  using RoleRecords = std::vector<std::pair<RoleId, RoleRestriction>>;

  NormalForm() = default;

  // --- Read interface ----------------------------------------------------

  bool incoherent() const { return incoherent_; }
  /// Empty while coherent.
  const std::string& incoherence_reason() const;
  /// Structured cause of incoherence (kNone while coherent).
  IncoherenceKind incoherence_kind() const { return incoherence_kind_; }

  const IdSet<AtomId>& atoms() const { return atoms_; }
  /// The ONE-OF members; null when the form enumerates nothing.
  const IdSet<IndId>* enumeration() const {
    return has_enumeration_ ? &enumeration_ : nullptr;
  }
  const RoleRecords& roles() const { return roles_; }
  const IdSet<Symbol>& tests() const { return tests_; }
  const CorefGraph& coref() const;

  /// \brief Restriction record for `role` (a trivial record if absent).
  const RoleRestriction& role(RoleId role) const;
  /// \brief The record for `role`, or null if the form has none.
  const RoleRestriction* FindRole(RoleId role) const;

  /// \brief True if this is the vacuous description THING.
  bool IsThing() const;

  /// \brief Size measure: number of constraints, counting nested value
  /// restrictions (the "size" in the paper's complexity claim).
  size_t Size() const;

  /// \brief Structural equality (same canonical constraints).
  bool Equals(const NormalForm& other) const;
  size_t Hash() const;

  /// \brief Dense id assigned by the owning NormalFormStore, or kNoNfId
  /// when this form was never interned. Two forms from the same store are
  /// structurally equal iff their ids are equal; the SubsumptionIndex
  /// keys on these ids.
  NfId interned_id() const { return nf_id_.id; }

  /// \brief Renders the normal form back into a Description, for callers
  /// that need a description value (concept-aspect output).
  DescPtr ToDescription(const Vocabulary& vocab) const;

  /// \brief The concept syntax of the form, as answers print it: byte for
  /// byte ToDescription(vocab)->ToString(vocab.symbols()), written straight
  /// into one string without building the Description.
  std::string ToString(const Vocabulary& vocab) const;

  // --- Build interface (used by Normalizer / propagation engine) ---------

  void MarkIncoherent(std::string reason);
  void MarkIncoherent(IncoherenceKind kind, std::string reason);
  /// Adds an atom together with its built-in implications; detects
  /// disjointness conflicts against atoms already present.
  void AddAtom(AtomId atom, const Vocabulary& vocab);
  /// Intersects the enumeration with `members`.
  void IntersectEnumeration(const IdSet<IndId>& members);
  /// The record for `role`, created if absent. Creating a record moves
  /// the others: the pointer dies at the next MutableRole that creates.
  RoleRestriction* MutableRole(RoleId role, const Vocabulary& vocab);
  void AddTest(Symbol fn);
  /// Creates the out-of-line graph on first use.
  CorefGraph* mutable_coref();

  /// \brief Re-establishes all derived invariants after mutation:
  /// cardinality consistency, closure deductions, enumeration filtering,
  /// coref-driven record merging and filler propagation, intrinsic filler
  /// checks. Runs to a fixed point. Must be called before the form is
  /// frozen.
  void Tighten(const Vocabulary& vocab);

 private:
  friend class NormalFormStore;

  /// One pass of invariant restoration; returns true if anything changed.
  bool TightenOnce(const Vocabulary& vocab);

  /// Copies reset the interned id: a copy is mutable again and no longer
  /// the store's canonical object, so it must not claim the identity
  /// (memoized subsumption keys on NfId pairs). Moves keep it.
  struct StoreId {
    NfId id = kNoNfId;
    StoreId() = default;
    StoreId(const StoreId&) {}
    StoreId(StoreId&&) = default;
    StoreId& operator=(const StoreId&) { return *this = StoreId(); }
    StoreId& operator=(StoreId&&) = default;
  };

  StoreId nf_id_;
  bool incoherent_ = false;
  IncoherenceKind incoherence_kind_ = IncoherenceKind::kNone;
  bool has_enumeration_ = false;
  IdSet<AtomId> atoms_;
  IdSet<IndId> enumeration_;
  RoleRecords roles_;
  IdSet<Symbol> tests_;
  /// Null when there is no SAME-AS constraint. Copies share the graph;
  /// mutable_coref() unshares it.
  std::shared_ptr<CorefGraph> coref_;
  /// Null while coherent.
  std::shared_ptr<const std::string> incoherence_reason_;
};

/// \brief The vacuous normal form (THING); shared singleton.
const NormalForm& ThingNormalForm();
NormalFormPtr ThingNormalFormPtr();

/// \brief Conjunction of two normal forms, tightened.
NormalFormPtr MeetNormalForms(const NormalForm& a, const NormalForm& b,
                              const Vocabulary& vocab);

/// \brief Same, returned by value (for callers that intern the result and
/// would otherwise pay an extra copy).
NormalForm MeetNormalFormsValue(const NormalForm& a, const NormalForm& b,
                                const Vocabulary& vocab);

/// \brief Adds all constraints of `src` to `dst` WITHOUT tightening; the
/// caller tightens once after merging everything it wants.
void MergeNormalFormInto(NormalForm* dst, const NormalForm& src,
                         const Vocabulary& vocab);

/// \brief Generalization (join / upper bound) of two normal forms: the
/// most specific description this representation can state that subsumes
/// both. Dual to MeetNormalForms: atoms and tests intersect, enumerations
/// union, cardinality bounds widen, value restrictions join recursively,
/// co-references survive only when entailed by both sides. Joining with
/// bottom (an incoherent form) returns the other side.
///
/// Used to characterize answer sets by description (a least-common-
/// subsumer over the answers' derived states).
NormalFormPtr JoinNormalForms(const NormalForm& a, const NormalForm& b,
                              const Vocabulary& vocab);

}  // namespace classic
