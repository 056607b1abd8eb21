// The propagation engine: active deductions run to a fixed point as an
// explicit dependency-worklist machine (DESIGN.md section 12).
//
// One update (assert-ind, a bulk batch, define-concept reclassification,
// rule firing) seeds a wavefront. All individuals dirty at the start of
// a wave are re-derived exactly once (a DynamicBitset dedupes
// re-enqueues, so an individual re-normalizes at most once per
// wavefront); the derivations they trigger form the next wave.
//
// Confluence (the property the test suite pins): propagation is a
// monotone operator over a bounded lattice — derived forms only gain
// conjuncts, recognition never retracts, each rule fires at most once
// per individual — so any fair processing order reaches the same least
// fixed point, and a contradiction (incoherent meet) is derived under
// every order or none. Asserting the same facts one at a time, in
// another order, or as one bulk batch yields byte-identical canonical
// derived state (tests/propagate_determinism_test.cc).
//
// Rollback: every touched individual's pre-state is journaled on first
// touch (per update, across all phases); on inconsistency the
// Propagator restores the journal and erases the applied index
// insertions, so no partial derived state survives.

#pragma once

#include <map>
#include <utility>
#include <vector>

#include "kb/knowledge_base.h"
#include "util/bitset.h"
#include "util/status.h"

namespace classic {

/// \brief Runs one logical update to a fixed point and rolls it back
/// atomically on contradiction. One Propagator lives for one update,
/// which may span several phases (the descriptive wave, then one wave
/// per CLOSE conjunct); its journal accumulates across phases.
class Propagator {
 public:
  explicit Propagator(KnowledgeBase* kb);

  /// Runs one propagation phase to the fixed point: `merges` are
  /// applied first (in order), then `seeds` are enqueued (deduplicated,
  /// in order). On error the database is left dirty — the caller must
  /// invoke RollbackAll() (this keeps multi-phase updates atomic).
  Status Run(const std::vector<IndId>& seeds,
             const std::vector<std::pair<IndId, NormalFormPtr>>& merges);

  /// Restores every individual/index touched by any phase run through
  /// this Propagator and bumps the rejected-updates stat.
  void RollbackAll();

 private:
  /// Everything one update wrote, for atomic rollback.
  struct Journal {
    /// Pre-update state of every touched individual (first touch wins).
    std::map<IndId, IndividualState> undo;
    /// (node, ind) pairs actually inserted into the instance index.
    std::vector<std::pair<NodeId, IndId>> instance_inserts;
    /// (role, ind) pairs actually inserted into the record holders, and
    /// individuals actually inserted into the state-site holders.
    std::vector<std::pair<RoleId, IndId>> record_inserts;
    std::vector<IndId> state_site_inserts;
    /// Postings actually inserted into the fills index.
    struct Posting {
      RoleId role;
      IndId filler;
      IndId host;
    };
    std::vector<Posting> postings_added;
  };

  /// Marks an individual dirty for the next wavefront.
  void Enqueue(IndId ind);

  /// Merges extra knowledge into an individual's derived state;
  /// enqueues it (and every individual holding it as a filler) if
  /// anything changed.
  Status MergeInto(IndId ind, const NormalForm& nf);

  /// Adds `ind` to the exclusion sites its new derived state carries.
  void IndexExclusionSites(IndId ind, const NormalForm& derived);

  /// Journals (first touch) and returns a writable state record.
  IndividualState& Touch(IndId ind);

  /// One worklist step: re-derive everything about one individual.
  Status Step(IndId ind);
  Status PropagateToFillers(IndId ind);
  Status PropagateCoref(IndId ind);
  void Realize(IndId ind);
  Status FireRules(IndId ind);

  KnowledgeBase* kb_;
  Journal journal_;

  /// Next wavefront, with its dirty-bit dedupe set.
  std::vector<IndId> next_;
  DynamicBitset queued_;
};

}  // namespace classic
