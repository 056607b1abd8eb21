#include "kb/propagate.h"

#include <algorithm>
#include <cstdint>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace classic {

Propagator::Propagator(KnowledgeBase* kb) : kb_(kb) {}

Status Propagator::Run(
    const std::vector<IndId>& seeds,
    const std::vector<std::pair<IndId, NormalFormPtr>>& merges) {
#if CLASSIC_OBS
  const uint64_t start_ns = obs::MonotonicNanos();
#endif
  [[maybe_unused]] size_t waves = 0;
  [[maybe_unused]] size_t max_wave = 0;
  Status st = Status::OK();
  for (const auto& [ind, nf] : merges) {
    st = MergeInto(ind, *nf);
    if (!st.ok()) break;
  }
  if (st.ok()) {
    // The dirty bitset also dedupes the seed list: a duplicate seed would
    // cost one extra re-derivation of an unchanged individual.
    for (IndId s : seeds) Enqueue(s);
    std::vector<IndId> wave;
    while (st.ok() && !next_.empty()) {
      wave.clear();
      std::swap(wave, next_);
      for (IndId ind : wave) queued_.Reset(ind);
      ++waves;
      max_wave = std::max(max_wave, wave.size());
      for (IndId ind : wave) {
        st = Step(ind);
        if (!st.ok()) break;
      }
    }
  }
  // A failed phase stops mid-wavefront; clear what it left queued so every
  // Run starts from an empty worklist.
  for (IndId ind : next_) queued_.Reset(ind);
  next_.clear();
#if CLASSIC_OBS
  CLASSIC_OBS_COUNT_N(kPropagationWavefronts, waves);
  obs::CounterMaxTo(obs::Counter::kPropagationMaxWavefront, max_wave);
  obs::RecordLatency(obs::Op::kPropagate, obs::MonotonicNanos() - start_ns);
#endif
  return st;
}

void Propagator::RollbackAll() {
  for (auto& [ind, saved] : journal_.undo) {
    kb_->MutableState(ind) = std::move(saved);
  }
  for (const auto& [node, ind] : journal_.instance_inserts) {
    kb_->instances_.MutableValue(node).Reset(ind);
  }
  for (const auto& [role, ind] : journal_.record_inserts) {
    kb_->record_holders_.MutableValue(role).Reset(ind);
  }
  for (IndId ind : journal_.state_site_inserts) {
    MutableBoxed(kb_->state_site_holders_, &kb_->state_site_copies_)
        .Reset(ind);
  }
  for (const Journal::Posting& p : journal_.postings_added) {
    kb_->fills_index_.Remove(p.role, p.filler, p.host);
  }
  ++kb_->stats_.rejected_updates;
  journal_ = Journal{};
}

void Propagator::Enqueue(IndId ind) {
  if (queued_.Test(ind)) {
    CLASSIC_OBS_COUNT(kPropagationDedupHits);
    return;
  }
  queued_.Set(ind);
  next_.push_back(ind);
}

Status Propagator::MergeInto(IndId ind, const NormalForm& nf) {
  IndividualState& st = Touch(ind);
  // A derived state is owned by its individual (nf_store.h): the meet is
  // never interned, and it is the old state itself when `nf` adds nothing
  // (MeetOwned compares the two with Equals), so pointer identity is the
  // complete no-change test.
  NormalFormPtr merged = kb_->normalizer_->MeetOwned(st.derived, nf);
  if (merged->incoherent()) {
    return Status::Inconsistent(
        StrCat("update would make ", kb_->vocab_->IndividualName(ind),
               " incoherent (",
               IncoherenceKindName(merged->incoherence_kind()),
               "): ", merged->incoherence_reason()));
  }
  if (merged != st.derived) {
    st.derived = std::move(merged);
    IndexExclusionSites(ind, *st.derived);
    Enqueue(ind);
    // Whoever holds this individual as a filler may now recognize more.
    for (IndId host : kb_->fills_index_.Holders(ind)) Enqueue(host);
  }
  return Status::OK();
}

void Propagator::IndexExclusionSites(IndId ind, const NormalForm& derived) {
  // A derived state only gains records and atoms within an update (meets
  // never drop a constraint), so a site, once set, stays until rollback
  // or re-derivation.
  for (const auto& [role, rr] : derived.roles()) {
    if (kb_->RecordHolders(role).Test(ind)) continue;
    kb_->record_holders_.MutableValue(role).Set(ind);
    journal_.record_inserts.emplace_back(role, ind);
  }
  if (kb_->StateSiteHolders().Test(ind)) return;
  const Vocabulary& vocab = *kb_->vocab_;
  const bool state_site =
      derived.enumeration() != nullptr || !derived.coref().empty() ||
      std::any_of(derived.atoms().begin(), derived.atoms().end(),
                  [&vocab](AtomId atom) {
                    return vocab.atom(atom).group != kNoSymbol &&
                           !vocab.atom(atom).builtin;
                  });
  if (state_site) {
    MutableBoxed(kb_->state_site_holders_, &kb_->state_site_copies_)
        .Set(ind);
    journal_.state_site_inserts.push_back(ind);
  }
}

IndividualState& Propagator::Touch(IndId ind) {
  IndividualState& st = kb_->MutableState(ind);
  journal_.undo.try_emplace(ind, st);
  return st;
}

Status Propagator::Step(IndId ind) {
  ++kb_->stats_.propagation_steps;
  CLASSIC_OBS_COUNT(kPropagationSteps);
  if (!kb_->IsClassicIndividual(ind)) {
    // Host individuals are immutable values: they are classified (they
    // can belong to enumerated / TEST / built-in concepts) but carry no
    // roles and never gain derived state, so rules do not apply.
    Realize(ind);
    return Status::OK();
  }
  CLASSIC_RETURN_NOT_OK(PropagateToFillers(ind));
  CLASSIC_RETURN_NOT_OK(PropagateCoref(ind));
  Realize(ind);
  CLASSIC_RETURN_NOT_OK(FireRules(ind));
  return Status::OK();
}

Status Propagator::PropagateToFillers(IndId ind) {
  NormalFormPtr derived = kb_->StateRef(ind).derived;  // snapshot
  for (const auto& [role, rr] : derived->roles()) {
    for (IndId filler : rr.fillers) {
      // The one place role edges enter the filler-inverted postings.
      if (kb_->fills_index_.Add(role, filler, ind)) {
        journal_.postings_added.push_back({role, filler, ind});
      }
      if (!rr.value_restriction || rr.value_restriction->IsThing()) {
        continue;
      }
      const NormalForm& vr = *rr.value_restriction;
      if (kb_->IsClassicIndividual(filler)) {
        Status st = MergeInto(filler, vr);
        if (!st.ok()) {
          return st.WithContext(
              StrCat("propagating (ALL ",
                     kb_->vocab_->symbols().Name(kb_->vocab_->role(role).name),
                     " ...) from ", kb_->vocab_->IndividualName(ind)));
        }
      } else if (!kb_->Satisfies(filler, vr)) {
        return Status::Inconsistent(
            StrCat("host filler ", kb_->vocab_->IndividualName(filler),
                   " of role ",
                   kb_->vocab_->symbols().Name(kb_->vocab_->role(role).name),
                   " on ", kb_->vocab_->IndividualName(ind),
                   " violates the value restriction"));
      }
    }
  }
  return Status::OK();
}

Status Propagator::PropagateCoref(IndId ind) {
  NormalFormPtr derived = kb_->StateRef(ind).derived;
  if (derived->coref().empty()) return Status::OK();
  for (const auto& cls : derived->coref().CanonicalClasses()) {
    std::optional<IndId> value;
    for (const auto& path : cls) {
      std::optional<IndId> v = kb_->ResolvePath(ind, path);
      if (!v) continue;
      if (value && *value != *v) {
        return Status::Inconsistent(
            StrCat("co-reference conflict on ", kb_->vocab_->IndividualName(ind),
                   ": paths resolve to ", kb_->vocab_->IndividualName(*value),
                   " and ", kb_->vocab_->IndividualName(*v)));
      }
      value = v;
    }
    if (!value) continue;
    // Fill the last step of every path whose prefix resolves.
    for (const auto& path : cls) {
      RolePath prefix(path.begin(), path.end() - 1);
      std::optional<IndId> holder = kb_->ResolvePath(ind, prefix);
      if (!holder) continue;
      const RoleRestriction& rr =
          kb_->StateRef(*holder).derived->role(path.back());
      if (rr.fillers.count(*value) > 0) continue;
      NormalForm fill;
      fill.MutableRole(path.back(), *kb_->vocab_)->fillers.insert(*value);
      fill.Tighten(*kb_->vocab_);
      Status st = MergeInto(*holder, fill);
      if (!st.ok()) return st.WithContext("propagating SAME-AS filler");
    }
  }
  return Status::OK();
}

void Propagator::Realize(IndId ind) {
  ++kb_->stats_.realizations;
  CLASSIC_OBS_COUNT(kRealizations);
  obs::TraceSpan span("realize");
  const Taxonomy& tax = kb_->taxonomy_;
  const size_t n = tax.num_nodes();
  DynamicBitset already(n);
  for (NodeId node : kb_->StateRef(ind).subsumer_nodes) already.Set(node);
  DynamicBitset subs(n);
  tax.WalkDown(tax.roots(), [&](NodeId node) {
    // Recognition is monotone ("every individual can move into a class
    // at most once"), so previously recognized nodes need no re-test.
    if (!already.Test(node) && !kb_->Satisfies(ind, *tax.NodeForm(node))) {
      return false;
    }
    subs.Set(node);
    return true;
  });
  // Monotonicity guard: recognition never retracts (paper Section 5).
  subs.OrWith(already);
  if (subs == already) return;
  IndividualState& stw = Touch(ind);
  stw.subsumer_nodes.clear();
  stw.msc.clear();
  subs.ForEach([&](size_t i) {
    const NodeId node = static_cast<NodeId>(i);
    if (!already.Test(node) && kb_->instances_.MutableValue(node).Set(ind)) {
      journal_.instance_inserts.emplace_back(node, ind);
    }
    stw.subsumer_nodes.insert(stw.subsumer_nodes.end(), node);
    for (NodeId child : tax.Children(node)) {
      if (subs.Test(child)) return;
    }
    stw.msc.insert(stw.msc.end(), node);
  });
}

Status Propagator::FireRules(IndId ind) {
  // Snapshot: rule application can change subsumer_nodes (via Enqueue /
  // later Realize), which re-runs Step anyway.
  std::vector<size_t> pending;
  {
    const IndividualState& st = kb_->StateRef(ind);
    for (NodeId node : st.subsumer_nodes) {
      const std::vector<size_t>* on_node = kb_->rules_on_node_.Find(node);
      if (on_node == nullptr) continue;
      for (size_t idx : *on_node) {
        if (st.applied_rules.count(idx) == 0) pending.push_back(idx);
      }
    }
  }
  for (size_t idx : pending) {
    Touch(ind).applied_rules.insert(idx);
    ++kb_->stats_.rule_firings;
    CLASSIC_OBS_COUNT(kRuleFirings);
    Status st = MergeInto(ind, *kb_->rules_[idx].consequent);
    if (!st.ok()) {
      return st.WithContext(StrCat(
          "firing rule on ",
          kb_->vocab_->symbols().Name(
              kb_->vocab_->concept_info(kb_->rules_[idx].antecedent_concept)
                  .name)));
    }
  }
  return Status::OK();
}

}  // namespace classic
