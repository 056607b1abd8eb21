#include "subsume/subsume.h"

#include <algorithm>
#include <map>

#include "obs/metrics.h"
#include "subsume/subsume_index.h"

namespace classic {

namespace {

/// True if every element of `a` is in `b`.
template <typename Set>
bool IsSubset(const Set& a, const Set& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

bool SubsumesStructural(const NormalForm& general, const NormalForm& specific,
                        SubsumptionIndex* index);

/// Cache-aware entry: fast paths first, then the memo table (when both
/// forms are interned), then the structural walk.
bool SubsumesCached(const NormalForm& general, const NormalForm& specific,
                    SubsumptionIndex* index) {
  // Bottom is subsumed by everything; nothing else is subsumed by bottom.
  if (specific.incoherent()) return true;
  if (general.incoherent()) return false;

  // Interned forms: identical id means identical canonical object, and
  // structural subsumption is reflexive.
  const NfId gid = general.interned_id();
  const NfId sid = specific.interned_id();
  if (gid != kNoNfId && gid == sid) return true;
  if (&general == &specific) return true;

  if (index != nullptr && gid != kNoNfId && sid != kNoNfId) {
    if (std::optional<bool> cached = index->Lookup(gid, sid)) {
      CLASSIC_OBS_COUNT(kSubsumptionMemoHits);
      return *cached;
    }
    CLASSIC_OBS_COUNT(kSubsumptionTests);
    bool result = SubsumesStructural(general, specific, index);
    index->Insert(gid, sid, result);
    return result;
  }
  CLASSIC_OBS_COUNT(kSubsumptionTests);
  return SubsumesStructural(general, specific, index);
}

bool RoleSubsumes(const RoleRestriction& general,
                  const RoleRestriction& specific, SubsumptionIndex* index) {
  if (specific.at_least < general.at_least) return false;
  if (specific.at_most > general.at_most) return false;
  if (!IsSubset(general.fillers, specific.fillers)) return false;
  if (general.closed && !specific.closed) return false;
  if (general.value_restriction && !general.value_restriction->IsThing()) {
    // Anything at all satisfies (ALL r C) when it can have no r-fillers.
    if (specific.at_most > 0) {
      const NormalForm& gvr = *general.value_restriction;
      if (specific.value_restriction) {
        if (!SubsumesCached(gvr, *specific.value_restriction, index)) {
          return false;
        }
      } else {
        // The specific side allows arbitrary fillers (THING).
        if (!SubsumesCached(gvr, ThingNormalForm(), index)) return false;
      }
    }
  }
  return true;
}

/// The structural comparison itself (no fast paths, no memo consult at
/// this level — SubsumesCached handles both before calling here).
bool SubsumesStructural(const NormalForm& general, const NormalForm& specific,
                        SubsumptionIndex* index) {
  if (!IsSubset(general.atoms(), specific.atoms())) return false;

  if (general.enumeration()) {
    if (!specific.enumeration()) return false;
    if (!IsSubset(*specific.enumeration(), *general.enumeration()))
      return false;
  }

  if (!IsSubset(general.tests(), specific.tests())) return false;

  for (const auto& [role, rg] : general.roles()) {
    if (!RoleSubsumes(rg, specific.role(role), index)) return false;
  }

  for (const auto& [p, q] : general.coref().pairs()) {
    if (!specific.coref().Entails(p, q)) return false;
  }

  return true;
}

}  // namespace

bool Subsumes(const NormalForm& general, const NormalForm& specific) {
  return SubsumesCached(general, specific, /*index=*/nullptr);
}

bool Subsumes(const NormalForm& general, const NormalForm& specific,
              SubsumptionIndex* index) {
  return SubsumesCached(general, specific, index);
}

bool Equivalent(const NormalForm& a, const NormalForm& b) {
  return Subsumes(a, b) && Subsumes(b, a);
}

bool Equivalent(const NormalForm& a, const NormalForm& b,
                SubsumptionIndex* index) {
  return Subsumes(a, b, index) && Subsumes(b, a, index);
}

std::vector<std::vector<size_t>> EquivalenceClasses(
    const std::vector<NormalFormPtr>& forms, SubsumptionIndex* index) {
  std::vector<std::vector<size_t>> classes;
  // Representative form of each class, for the pairwise test.
  std::vector<const NormalForm*> reps;
  for (size_t i = 0; i < forms.size(); ++i) {
    const NormalForm& nf = *forms[i];
    bool placed = false;
    for (size_t c = 0; c < classes.size(); ++c) {
      const NormalForm& rep = *reps[c];
      // Interned forms: equal ids are equal forms; distinct ids from the
      // same store are distinct forms, but may still be mutually
      // subsuming (canonicalization is not complete), so only the
      // equal-id direction short-circuits.
      if (nf.interned_id() != kNoNfId && nf.interned_id() == rep.interned_id()) {
        placed = true;
      } else if (Equivalent(rep, nf, index)) {
        placed = true;
      }
      if (placed) {
        classes[c].push_back(i);
        break;
      }
    }
    if (!placed) {
      classes.push_back({i});
      reps.push_back(&nf);
    }
  }
  // Classes are created in first-member order and members appended in
  // input order, so the result is already deterministic.
  return classes;
}

namespace {

// Disjoint derives only what Tighten would derive where two tightened
// forms meet. Without ONE-OF or SAME-AS at a level, MergeNormalFormInto
// followed by Tighten can reach incoherence in exactly two ways: two atoms
// of one disjointness group, or a role record both sides constrain (a
// record only one side carries is already at its fixed point). Such a
// record settles after one TightenOnce pass, so its verdict is a closed
// formula over the two records; RolesClash evaluates it.

/// An enumeration or co-reference at this level: its interplay with the
/// other side (enumeration filtering, coref record merging) is left to
/// MeetNormalForms itself.
bool NeedsMeet(const NormalForm& nf) {
  return nf.enumeration() != nullptr || !nf.coref().empty();
}

/// True if the atoms of two coherent forms clash. A coherent form holds
/// at most one atom per group, so only a grouped atom of `walked` that
/// `probed` lacks can meet a different atom of its group; `probed` is
/// searched, not walked, unless that happens.
template <typename Atoms>
bool AtomsClash(const Atoms& walked, const IdSet<AtomId>& probed,
                const Vocabulary& vocab) {
  for (AtomId x : walked) {
    const Symbol group = vocab.atom(x).group;
    if (group == kNoSymbol || probed.count(x) > 0) continue;
    for (AtomId y : probed) {
      if (vocab.atom(y).group == group) return true;
    }
  }
  return false;
}

/// Walks a ∪ b in order, stopping at the first element `fn` accepts.
template <typename Fn>
bool AnyOfUnion(const IdSet<IndId>& a, const IdSet<IndId>& b, Fn fn) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    IndId next;
    if (ib == b.end() || (ia != a.end() && *ia < *ib)) {
      next = *ia++;
    } else {
      if (ia != a.end() && *ia == *ib) ++ia;
      next = *ib++;
    }
    if (fn(next)) return true;
  }
  return false;
}

size_t UnionSize(const IdSet<IndId>& a, const IdSet<IndId>& b) {
  if (a.empty() || b.empty()) return a.size() + b.size();
  size_t n = 0;
  AnyOfUnion(a, b, [&n](IndId) {
    ++n;
    return false;
  });
  return n;
}

/// Tighten's intrinsic check of a known filler against a value
/// restriction: outside its enumeration, or incompatible with an atom.
bool FillerClashes(IndId f, const NormalForm& vr, const Vocabulary& vocab) {
  if (vr.enumeration() && vr.enumeration()->count(f) == 0) return true;
  for (AtomId atom : vr.atoms()) {
    if (!vocab.AtomCompatibleWithInd(atom, f)) return true;
  }
  return false;
}

/// The checks against the merged value restriction `vr` of a record that
/// needs `least` > 0 fillers.
bool RestrictionClash(const NormalForm& vr, const RoleRestriction& ra,
                      const RoleRestriction& rb, uint64_t least,
                      const Vocabulary& vocab) {
  // An incoherent restriction forbids every filler.
  if (vr.incoherent()) return true;
  // An enumerated one bounds the number of distinct fillers.
  if (vr.enumeration() && least > vr.enumeration()->size()) return true;
  return AnyOfUnion(ra.fillers, rb.fillers, [&](IndId f) {
    return FillerClashes(f, vr, vocab);
  });
}

/// Incoherence of the merge of two tightened records of one role, as
/// Tighten's record pass derives it: bounds max/min-merged with the filler
/// union as a lower bound (unique names), then the merged value
/// restriction against the required fillers. Each tightened record has
/// already folded its closure (at_most = |fillers|) and the attribute
/// clamp into at_most, so the merged at_most carries both.
bool RolesClash(const RoleRestriction& ra, const RoleRestriction& rb,
                const Vocabulary& vocab) {
  const uint64_t least = std::max<uint64_t>(
      {ra.at_least, rb.at_least, UnionSize(ra.fillers, rb.fillers)});
  if (least > std::min(ra.at_most, rb.at_most)) return true;
  // With no filler required the record is satisfiable whatever the
  // restriction: (AT-MOST 0 r) is always an option.
  if (least == 0) return false;

  const NormalForm* va = ra.value_restriction.get();
  const NormalForm* vb = rb.value_restriction.get();
  if (va == nullptr || vb == nullptr) {
    // The merge keeps the one restriction as it is.
    const NormalForm* vr = va != nullptr ? va : vb;
    return vr != nullptr && RestrictionClash(*vr, ra, rb, least, vocab);
  }
  if (NeedsMeet(*va) || NeedsMeet(*vb)) {
    return RestrictionClash(MeetNormalFormsValue(*va, *vb, vocab), ra, rb,
                            least, vocab);
  }
  // The meet of two restrictions without enumerations has the union of
  // their atoms and no enumeration, so each filler is checked against
  // both; its incoherence is this same test one level down.
  if (Disjoint(*va, *vb, vocab)) return true;
  return AnyOfUnion(ra.fillers, rb.fillers, [&](IndId f) {
    return FillerClashes(f, *va, vocab) || FillerClashes(f, *vb, vocab);
  });
}

/// Disjoint(a, b), given `b_atoms` ⊆ b.atoms() holding at least every
/// grouped atom of `b`. `b` is walked and `a` searched, so one `b` tested
/// against many `a` (a query against every individual's state) keeps its
/// own side in cache.
template <typename Atoms>
bool DisjointWalkingB(const NormalForm& a, const NormalForm& b,
                      const Atoms& b_atoms, const Vocabulary& vocab) {
  if (a.incoherent() || b.incoherent()) return true;
  if (NeedsMeet(a) || NeedsMeet(b)) {
    return MeetNormalFormsValue(a, b, vocab).incoherent();
  }
  if (AtomsClash(b_atoms, a.atoms(), vocab)) return true;
  for (const auto& [role, rb] : b.roles()) {
    const RoleRestriction* ra = a.FindRole(role);
    if (ra != nullptr && RolesClash(*ra, rb, vocab)) return true;
  }
  return false;
}

}  // namespace

bool Disjoint(const NormalForm& a, const NormalForm& b,
              const Vocabulary& vocab) {
  return DisjointWalkingB(a, b, b.atoms(), vocab);
}

DisjointProbe::DisjointProbe(const NormalForm& fixed, const Vocabulary& vocab)
    : fixed_(fixed), vocab_(vocab) {
  for (AtomId x : fixed.atoms()) {
    if (vocab.atom(x).group != kNoSymbol) grouped_atoms_.push_back(x);
  }
}

bool DisjointProbe::DisjointFrom(const NormalForm& other) const {
  return DisjointWalkingB(other, fixed_, grouped_atoms_, vocab_);
}

std::vector<uint8_t> BatchDisjoint(const NormalForm& base,
                                   const std::vector<NormalFormPtr>& cands,
                                   const Vocabulary& vocab) {
  std::vector<uint8_t> out(cands.size(), 0);
  for (size_t i = 0; i < cands.size(); ++i) {
    if (cands[i] != nullptr) out[i] = Disjoint(base, *cands[i], vocab) ? 1 : 0;
  }
  return out;
}

std::vector<uint8_t> BatchSubsumes(const std::vector<NormalFormPtr>& generals,
                                   const NormalForm& specific,
                                   SubsumptionIndex* index) {
  std::vector<uint8_t> out(generals.size(), 0);
  std::map<NfId, uint8_t> memo;
  for (size_t i = 0; i < generals.size(); ++i) {
    if (generals[i] == nullptr) continue;
    NfId id = generals[i]->interned_id();
    if (id != kNoNfId) {
      auto it = memo.find(id);
      if (it != memo.end()) {
        out[i] = it->second;
        continue;
      }
    }
    out[i] = Subsumes(*generals[i], specific, index) ? 1 : 0;
    if (id != kNoNfId) memo.emplace(id, out[i]);
  }
  return out;
}

}  // namespace classic
