#include "desc/nf_store.h"

#include <utility>

#include "obs/metrics.h"

namespace classic {

NormalFormPtr NormalFormStore::Intern(NormalForm nf) {
  if (nf.incoherent()) {
    return std::make_shared<const NormalForm>(std::move(nf));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return InternLocked(std::move(nf));
}

NormalFormPtr NormalFormStore::InternLocked(NormalForm nf) {
  // Deep interning: rewrite nested value restrictions to their canonical
  // objects first, so equality below compares against forms whose own
  // children are already shared, and so every reachable coherent form
  // carries an id for the subsumption memo.
  for (auto& [role, rr] : nf.roles_) {
    (void)role;
    if (rr.value_restriction && !rr.value_restriction->incoherent() &&
        rr.value_restriction->interned_id() == kNoNfId) {
      rr.value_restriction = InternLocked(NormalForm(*rr.value_restriction));
    }
  }

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
  nf.nf_id_ = id;
  auto ptr = std::make_shared<const NormalForm>(std::move(nf));
  forms_.push_back(ptr);
  bucket.push_back(id);
  return forms_[id];
}

}  // namespace classic
