// The filler-inverted index (ROADMAP "filler-inverted indexes and a
// classification-aware query planner").
//
// The paper's query answering prunes only by taxonomy: classify the
// query concept, then test the instances of its parents one by one. A
// query with a FILLS conjunct — "(AND STUDENT (FILLS enrolled-at MIT))"
// — still tests every STUDENT. This index inverts the derived filler
// relation so such queries start from the (usually tiny) set of
// individuals known to fill (enrolled-at, MIT) instead.
//
// It is filler-first: slot f of a CowVector (util/cow.h) indexed by
// filler IndId holds f's postings, role -> sorted set of the individuals
// whose *derived* state fills that role with f. Both levels are flat: a
// vector of (role, holders) sorted by role, each holder list an IdSet
// (util/id_set.h). At 32k individuals a posting list holds 1.25 holders
// on average, where a tree spends a heap node per entry. Because
// KnowledgeBase::Satisfies requires derived fillers to be a superset of
// the query's fillers, a posting set is a complete candidate superset
// for its FILLS conjunct — host-valued fillers included, since a host
// value is an interned individual like any other. The same slot answers
// the write side's question "who mentions f as a filler?": propagation
// re-examines those holders when f changes (the cascade), and a reverse
// path-query step reads one role's posting.
//
// Publication copies the CowVector in O(1), so every published KbSnapshot
// sees an immutable index; the writer copies a slot's postings on its
// first write after a publish. Maintenance: every derived filler
// addition passes through Propagator::PropagateToFillers, the single call
// site (see propagate.cc), which journals new postings for rollback;
// retraction re-derives the whole KB (RederiveAll), which clears and
// rebuilds the index, so multiset retraction semantics hold by
// construction.

#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "desc/ids.h"
#include "util/cow.h"
#include "util/id_set.h"

namespace classic {

class FillsIndex {
 public:
  /// One filler's postings: (role, holders), ascending by role.
  using RolePostings = std::vector<std::pair<RoleId, IdSet<IndId>>>;

  /// Individuals whose derived state fills `role` with `filler`;
  /// nullptr when no individual ever did (an empty — rolled-back — set
  /// is possible and means the same thing). Safe to call from any
  /// thread on a published snapshot.
  const IdSet<IndId>* Postings(RoleId role, IndId filler) const {
    const RolePostings* by_role = by_filler_.Find(filler);
    if (by_role == nullptr) return nullptr;
    auto it = LowerBoundById(*by_role, role);
    return it == by_role->end() || it->first != role ? nullptr : &it->second;
  }

  /// Every individual whose derived state fills some role with `filler`,
  /// ascending, each once.
  std::vector<IndId> Holders(IndId filler) const {
    IdSet<IndId> out;
    if (const RolePostings* by_role = by_filler_.Find(filler)) {
      for (const auto& [role, holders] : *by_role) {
        out.insert(holders.begin(), holders.end());
      }
    }
    return {out.begin(), out.end()};
  }

  // --- Writer side (single-writer, like the rest of the KB) --------------

  /// Records that `host`'s derived state fills (role, filler). Returns
  /// true when the posting is new (the caller journals it for rollback).
  bool Add(RoleId role, IndId filler, IndId host) {
    RolePostings& by_role = by_filler_.MutableValue(filler);
    auto it = LowerBoundById(by_role, role);
    if (it == by_role.end() || it->first != role) {
      it = by_role.emplace(it, role, IdSet<IndId>{});
    }
    return it->second.insert(host).second;
  }

  /// Rollback of a journaled Add. The posting set may become empty but
  /// stays; empty sets are harmless — they only make the planner's
  /// candidate set smaller.
  void Remove(RoleId role, IndId filler, IndId host) {
    RolePostings& by_role = by_filler_.MutableValue(filler);
    auto it = LowerBoundById(by_role, role);
    if (it != by_role.end() && it->first == role) it->second.erase(host);
  }

  /// Drops everything (the RederiveAll path, which replays the base log
  /// and rebuilds the index through propagation).
  void Clear() { by_filler_.Clear(); }

  /// Chunk and value copies since the last call (publish
  /// instrumentation).
  size_t TakeCopies() { return by_filler_.TakeCopies(); }

  /// Bytes of chunk storage shared with copies (publish instrumentation).
  size_t ApproxChunkBytes() const { return by_filler_.ApproxChunkBytes(); }

 private:
  CowVector<std::shared_ptr<RolePostings>> by_filler_;
};

}  // namespace classic
