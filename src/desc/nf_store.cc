#include "desc/nf_store.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace classic {

namespace {

/// A coherent value restriction the store has not interned yet.
bool NeedsInterning(const RoleRestriction& rr) {
  return rr.value_restriction && !rr.value_restriction->incoherent() &&
         rr.value_restriction->interned_id() == kNoNfId;
}

}  // namespace

NormalFormPtr NormalFormStore::Intern(NormalForm nf) {
  if (nf.incoherent()) {
    return std::make_shared<const NormalForm>(std::move(nf));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return InternLocked(std::move(nf));
}

NormalFormPtr NormalFormStore::Own(NormalForm nf) {
  // Most individual forms carry no fresh value restriction (a FILLS or a
  // primitive assertion, a meet of two states whose restrictions are
  // already canonical): they never take the lock readers intern under.
  const bool fresh = std::any_of(
      nf.roles_.begin(), nf.roles_.end(),
      [](const auto& entry) { return NeedsInterning(entry.second); });
  if (!nf.incoherent() && fresh) {
    std::lock_guard<std::mutex> lock(mutex_);
    InternRestrictionsLocked(&nf);
  }
  return std::make_shared<const NormalForm>(std::move(nf));
}

void NormalFormStore::InternRestrictionsLocked(NormalForm* nf) {
  for (auto& [role, rr] : nf->roles_) {
    (void)role;
    if (NeedsInterning(rr)) {
      rr.value_restriction = InternLocked(NormalForm(*rr.value_restriction));
    }
  }
}

NormalFormPtr NormalFormStore::InternLocked(NormalForm nf) {
  // Deep interning: rewrite nested value restrictions to their canonical
  // objects first, so equality below compares against forms whose own
  // children are already shared, and so every reachable coherent form
  // carries an id for the subsumption memo.
  InternRestrictionsLocked(&nf);

  size_t h = nf.Hash();
  auto& bucket = buckets_[h];
  for (NfId id : bucket) {
    if (forms_[id]->Equals(nf)) {
      CLASSIC_OBS_COUNT(kInternHits);
      return forms_[id];
    }
  }
  CLASSIC_OBS_COUNT(kInternMisses);
  NfId id = static_cast<NfId>(forms_.size());
  nf.nf_id_.id = id;
  auto ptr = std::make_shared<const NormalForm>(std::move(nf));
  forms_.push_back(ptr);
  bucket.push_back(id);
  return forms_[id];
}

}  // namespace classic
