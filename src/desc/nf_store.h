// Hash-consing store for normal forms.
//
// Interning policy. A form is *interned* when it can be shared: concept
// definitions, value restrictions at every depth, rule consequents,
// intrinsic forms, and the forms readers normalize for queries (so a
// repeated query keeps its memo hits). Structurally equal interned forms
// share one immutable object, identified by a dense NfId. A form built
// for one individual — its assertion forms, the CLOSE conjuncts frozen
// for it, and the derived states propagation meets — is *owned*: it is
// never shared, so the store interns only its nested value restrictions
// and leaves the top level without an id, freed with its last holder.
// The caller decides which kind a form is (Normalizer::Freeze or
// FreezeOwned, Meet or MeetOwned), not an option.
//
// Interning is *deep* — nested value restrictions are interned before
// their parent, owned parents included — so any two value restrictions
// reachable from live forms can be compared by id, which is what makes
// the (NfId, NfId)-keyed SubsumptionIndex valid at every level of the
// RoleSubsumes recursion. An owned top level costs that index nothing:
// an individual's state is tested against a concept by
// KnowledgeBase::Satisfies, which reaches the index only through value
// restrictions.
//
// Interned forms are immutable and ids are never reused, so facts derived
// about a pair of ids (subsumption verdicts, most prominently) never go
// stale: the invalidation story of the whole memoization substrate is
// "there is nothing to invalidate". The store therefore grows with the
// schema and the queries asked, not with the individuals.
//
// One store per database. NfIds from different stores must never meet in
// the same index (they are dense per-store counters).
//
// Concurrency: Intern and Own serialize on a mutex (query normalization
// on a shared snapshot may intern from several reader threads); form(id)
// is lock-free — ids are only handed out after the form is published in
// stable storage.

#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "desc/normal_form.h"
#include "util/stable_vector.h"

namespace classic {

class NormalFormStore {
 public:
  NormalFormStore() = default;

  NormalFormStore(const NormalFormStore&) = delete;
  NormalFormStore& operator=(const NormalFormStore&) = delete;

  /// \brief Interns `nf` (and, recursively, its value restrictions),
  /// returning the canonical shared object. Structurally equal inputs
  /// return pointer-identical outputs.
  ///
  /// Incoherent forms are the exception: they all denote bottom but each
  /// carries its own diagnostic reason, so they are wrapped without
  /// sharing and keep kNoNfId (subsumption decides bottom in O(1), so
  /// they never need cache identity).
  NormalFormPtr Intern(NormalForm nf);

  /// \brief Wraps `nf` as an owned form: its value restrictions are
  /// interned, the form itself keeps kNoNfId and is not retained here.
  NormalFormPtr Own(NormalForm nf);

  /// \brief The canonical form with this id. `id` must have been returned
  /// by this store.
  const NormalFormPtr& form(NfId id) const { return forms_[id]; }

  /// Number of distinct interned forms.
  size_t size() const { return forms_.size(); }

 private:
  /// The recursion behind Intern; caller holds mutex_.
  NormalFormPtr InternLocked(NormalForm nf);
  /// Interns the value restrictions of `nf` in place; caller holds
  /// mutex_.
  void InternRestrictionsLocked(NormalForm* nf);

  mutable std::mutex mutex_;
  /// hash -> ids of interned forms with that hash.
  std::unordered_map<size_t, std::vector<NfId>> buckets_;
  /// Dense id -> canonical form.
  StableVector<NormalFormPtr> forms_;
};

}  // namespace classic
