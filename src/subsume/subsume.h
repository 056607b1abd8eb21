// Structural subsumption: the core inference of CLASSIC.
//
// `Subsumes(A, B)` decides whether A subsumes B — "in every state any
// individual satisfying B is necessarily also an instance of A" (paper,
// Section 3.5.1). Both arguments are canonical normal forms, so the test
// is a structural comparison whose cost is proportional to the product of
// the two forms' sizes (the paper's Section 5 claim, measured by bench E1).
//
// Two concepts are equivalent iff they subsume each other.

#pragma once

#include "desc/normal_form.h"
#include "desc/vocabulary.h"

namespace classic {

class SubsumptionIndex;

/// \brief True iff `general` subsumes `specific`.
bool Subsumes(const NormalForm& general, const NormalForm& specific);

/// \brief Memoized variant: consults/extends `index` at every level of the
/// recursion, keyed on interned NfIds (uncached for forms that were never
/// interned). Answer-identical to the two-argument overload; `index` may
/// be null.
bool Subsumes(const NormalForm& general, const NormalForm& specific,
              SubsumptionIndex* index);

/// \brief True iff the two forms denote the same class in every state.
bool Equivalent(const NormalForm& a, const NormalForm& b);

/// \brief Memoized variant (both directions consult/extend `index`).
bool Equivalent(const NormalForm& a, const NormalForm& b,
                SubsumptionIndex* index);

/// \brief Batch equivalence: partitions `forms` into classes of mutually
/// subsuming forms, memoizing every verdict in `index` (may be null).
/// Returns one vector of input indices per class; members keep input
/// order and classes are ordered by their first member, so the result is
/// deterministic. Interned duplicates (identical NfId) join their class
/// without any subsumption test. Used by the static analyzer's
/// duplicate-concept check.
std::vector<std::vector<size_t>> EquivalenceClasses(
    const std::vector<NormalFormPtr>& forms, SubsumptionIndex* index);

/// \brief True iff no individual can satisfy both descriptions
/// (conservative: detected when their conjunction is incoherent).
///
/// For tightened forms the verdict is exactly
/// `MeetNormalForms(a, b, vocab)->incoherent()`, but the meet is not
/// built: the test derives only what Tighten would derive where the two
/// forms meet (clashing atoms of one disjointness group; per shared role
/// the merged bounds, closure included, against the filler union, the
/// nested value restrictions and each filler's intrinsic compatibility)
/// and allocates nothing. Only a level where either side carries ONE-OF
/// or SAME-AS is decided by materializing that level's meet. ask-possible
/// runs it, through DisjointProbe, once per undecided individual on the
/// query's exclusion surface (query/planner.cc), which rests on this
/// case list: a state can clash with the query only at a grouped atom,
/// ONE-OF or SAME-AS, or a role record both sides carry.
bool Disjoint(const NormalForm& a, const NormalForm& b,
              const Vocabulary& vocab);

/// \brief Disjoint against one fixed form, for testing many forms in
/// turn: the fixed side's share of the work (finding which of its atoms
/// belong to a disjointness group) is done once, at construction.
/// ask-possible builds one per query and tests the derived state of each
/// individual on the query's exclusion surface. Holds references to
/// `fixed` and `vocab`.
class DisjointProbe {
 public:
  DisjointProbe(const NormalForm& fixed, const Vocabulary& vocab);

  /// \brief Disjoint(other, fixed, vocab).
  bool DisjointFrom(const NormalForm& other) const;

 private:
  const NormalForm& fixed_;
  const Vocabulary& vocab_;
  std::vector<AtomId> grouped_atoms_;
};

/// \brief Batch emptiness: out[i] = Disjoint(base, *cands[i]) — whether
/// the meet of `base` with each candidate is unsatisfiable (the static
/// analyzer probes one state against every rule consequent). Null
/// candidates yield 0.
std::vector<uint8_t> BatchDisjoint(const NormalForm& base,
                                   const std::vector<NormalFormPtr>& cands,
                                   const Vocabulary& vocab);

/// \brief Batch subsumption against one specific form: out[i] =
/// Subsumes(*generals[i], specific, index). Deduped by interned NfId
/// within the call (the closure loops test every rule antecedent
/// against one abstract state per iteration); verdicts additionally
/// land in `index` (may be null) like the single-pair overload. Null
/// generals yield 0.
std::vector<uint8_t> BatchSubsumes(const std::vector<NormalFormPtr>& generals,
                                   const NormalForm& specific,
                                   SubsumptionIndex* index);

}  // namespace classic
