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
// whose *derived* state fills that role with f. A filler's postings are
// one flat array of runs `role, n, holder_1 ... holder_n`, runs ascending
// by role and holders ascending within a run, so a filler costs its COW
// box and one allocation whatever its roles. At 32k individuals a filler
// holds 3.2 runs of 1.25 holders on average, so a heap block per run
// would cost more than the ids it holds.
//
// Because KnowledgeBase::Satisfies requires derived fillers to be a
// superset of the query's fillers, a posting set is a complete candidate
// superset for its FILLS conjunct — host-valued fillers included, since a
// host value is an interned individual like any other. The same slot answers
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

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "desc/ids.h"
#include "util/cow.h"

namespace classic {

class FillsIndex {
 public:
  /// Individuals whose derived state fills `role` with `filler`,
  /// ascending; empty when none does. Safe to call from any thread on a
  /// published snapshot. The span stays valid until this index is next
  /// written, which a published snapshot's never is.
  std::span<const IndId> Postings(RoleId role, IndId filler) const {
    const Runs* runs = by_filler_.Find(filler);
    if (runs == nullptr) return {};
    const size_t at = FindRun(*runs, role);
    if (at == runs->size() || (*runs)[at] != role) return {};
    return {runs->data() + at + 2, (*runs)[at + 1]};
  }

  /// Every individual whose derived state fills some role with `filler`,
  /// ascending, each once.
  std::vector<IndId> Holders(IndId filler) const {
    std::vector<IndId> out;
    const Runs* runs = by_filler_.Find(filler);
    if (runs == nullptr) return out;
    for (size_t at = 0; at < runs->size(); at += 2 + (*runs)[at + 1]) {
      const auto holders = runs->begin() + static_cast<ptrdiff_t>(at + 2);
      out.insert(out.end(), holders, holders + (*runs)[at + 1]);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  // --- Writer side (single-writer, like the rest of the KB) --------------

  /// Records that `host`'s derived state fills (role, filler). Returns
  /// true when the posting is new (the caller journals it for rollback).
  bool Add(RoleId role, IndId filler, IndId host) {
    Runs& runs = by_filler_.MutableValue(filler);
    const size_t at = FindRun(runs, role);
    if (at == runs.size() || runs[at] != role) {
      const uint32_t run[] = {role, 1, host};
      runs.insert(runs.begin() + static_cast<ptrdiff_t>(at), run, run + 3);
      return true;
    }
    const auto first = runs.begin() + static_cast<ptrdiff_t>(at + 2);
    const auto last = first + runs[at + 1];
    const auto it = std::lower_bound(first, last, host);
    if (it != last && *it == host) return false;
    runs.insert(it, host);
    ++runs[at + 1];
    return true;
  }

  /// Rollback of a journaled Add. A run left without holders is dropped.
  void Remove(RoleId role, IndId filler, IndId host) {
    Runs& runs = by_filler_.MutableValue(filler);
    const size_t at = FindRun(runs, role);
    if (at == runs.size() || runs[at] != role) return;
    const auto first = runs.begin() + static_cast<ptrdiff_t>(at + 2);
    const auto last = first + runs[at + 1];
    const auto it = std::lower_bound(first, last, host);
    if (it == last || *it != host) return;
    runs.erase(it);
    if (--runs[at + 1] == 0) {
      runs.erase(runs.begin() + static_cast<ptrdiff_t>(at),
                 runs.begin() + static_cast<ptrdiff_t>(at + 2));
    }
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
  /// One filler's postings: runs `role, n, holder_1 ... holder_n`.
  using Runs = std::vector<uint32_t>;

  /// Offset of `role`'s run, or of the first run past it (the insertion
  /// point; runs.size() when there is none).
  static size_t FindRun(const Runs& runs, RoleId role) {
    size_t at = 0;
    while (at < runs.size() && runs[at] < role) at += 2 + runs[at + 1];
    return at;
  }

  CowVector<std::shared_ptr<Runs>> by_filler_;
};

}  // namespace classic
