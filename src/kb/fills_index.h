// Filler-inverted indexes (ROADMAP "filler-inverted indexes and a
// classification-aware query planner").
//
// The paper's query answering prunes only by taxonomy: classify the
// query concept, then test the instances of its parents one by one. A
// query with a FILLS conjunct — "(AND STUDENT (FILLS enrolled-at MIT))"
// — still tests every STUDENT. This index inverts the derived filler
// relation so such queries start from the (usually tiny) set of
// individuals known to fill (enrolled-at, MIT) instead:
//
//  - postings_:   (role, filler individual) -> sorted set of individuals
//                 whose *derived* state has that filler. Because
//                 KnowledgeBase::Satisfies requires derived fillers to be
//                 a superset of the query's fillers, a posting list is a
//                 complete candidate superset for its FILLS conjunct.
//  - host_fillers_: role -> ordered map from host value to the interned
//                 host individual, for every host-valued filler observed
//                 on that role. This is the range access path: a query
//                 over an interval [lo, hi] unions the postings of every
//                 host filler in the interval.
//
// Both stores sit on the CowMap idiom (util/cow.h): publication forks
// them in O(delta), every published KbSnapshot sees an immutable index,
// and concurrent readers go through CowMap::Find only. Maintenance
// mirrors the referenced_by_ back-index exactly — every derived filler
// addition passes through Propagator::PropagateToFillers, which is the
// single call site (see propagate.cc); retraction re-derives the
// whole KB (RederiveAll), which clears and rebuilds the index, so
// multiset retraction semantics hold by construction.

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "desc/host_value.h"
#include "desc/vocabulary.h"
#include "util/cow.h"

namespace classic {

class FillsIndex {
 public:
  /// Packed posting key; IndId and RoleId are 32-bit dense ids.
  static uint64_t Key(RoleId role, IndId filler) {
    return (static_cast<uint64_t>(role) << 32) | filler;
  }
  static RoleId KeyRole(uint64_t key) {
    return static_cast<RoleId>(key >> 32);
  }
  static IndId KeyFiller(uint64_t key) {
    return static_cast<IndId>(key & 0xffffffffULL);
  }

  /// Individuals whose derived state fills `role` with `filler`;
  /// nullptr when no individual ever did (an empty — rolled-back — set
  /// is possible and means the same thing). Safe to call from any
  /// thread on a published snapshot.
  const std::set<IndId>* Postings(RoleId role, IndId filler) const {
    return postings_.Find(Key(role, filler));
  }

  /// The ordered host-valued fillers observed on `role` (host value ->
  /// interned host individual); nullptr when none.
  const std::map<HostValue, IndId>* HostFillers(RoleId role) const {
    return host_fillers_.Find(role);
  }

  /// Range access path: the sorted union of Postings over every host
  /// filler of `role` with value in [lo, hi]. Mixed-type bounds follow
  /// the HostValue cross-type sort order.
  std::vector<IndId> HostRange(RoleId role, const HostValue& lo,
                               const HostValue& hi) const;

  // --- Writer side (single-writer, like the rest of the KB) --------------

  /// Records that `host`'s derived state fills (role, filler). Returns
  /// true when the posting is new (the caller journals it for rollback).
  bool Add(RoleId role, IndId filler, IndId host, const Vocabulary& vocab);

  /// Rollback of a journaled Add. The posting set may become empty but
  /// its key is never erased (CowMap has no key erase); empty sets are
  /// harmless — they only make the planner's candidate set smaller.
  void Remove(RoleId role, IndId filler, IndId host) {
    postings_.Mutable(Key(role, filler)).erase(host);
  }

  /// Drops everything (the RederiveAll path, which replays the base log
  /// and rebuilds the index through propagation).
  void Clear() {
    postings_.Clear();
    host_fillers_.Clear();
  }

  /// O(delta) structural-sharing copy for epoch publication.
  FillsIndex Fork() const {
    FillsIndex out;
    out.postings_ = postings_.Fork();
    out.host_fillers_ = host_fillers_.Fork();
    return out;
  }

  /// Value copy-downs since the last call (publish instrumentation).
  size_t TakeValueCopies() {
    return postings_.TakeValueCopies() + host_fillers_.TakeValueCopies();
  }

  /// Approximate shared entry count (publish bytes-shared figure).
  size_t ApproxFrozenEntries() const {
    return postings_.ApproxFrozenEntries() +
           host_fillers_.ApproxFrozenEntries();
  }

 private:
  CowMap<uint64_t, std::set<IndId>> postings_;
  CowMap<RoleId, std::map<HostValue, IndId>> host_fillers_;
};

}  // namespace classic
