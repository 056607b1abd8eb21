#include "kb/knowledge_base.h"

#include <algorithm>
#include <utility>

#include "kb/propagate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "subsume/subsume.h"
#include "util/string_util.h"

namespace classic {

namespace {

const DynamicBitset& EmptyExtension() {
  static const DynamicBitset kEmpty;
  return kEmpty;
}

bool IsReservedConceptName(std::string_view name) {
  static const char* kReserved[] = {"THING",  "CLASSIC-THING", "HOST-THING",
                                    "INTEGER", "REAL",         "NUMBER",
                                    "STRING",  "BOOLEAN",      "NOTHING"};
  for (const char* r : kReserved) {
    if (name == r) return true;
  }
  return false;
}

/// Separates CLOSE conjuncts from the descriptive part of an individual
/// expression. CLOSE may appear at the top level or under AND only (the
/// parser forbids it under ALL already, and normalization would reject
/// it).
void SplitCloseConjuncts(const DescPtr& expr, std::vector<DescPtr>* rest,
                         std::vector<Symbol>* close_roles) {
  if (expr->kind() == DescKind::kClose) {
    close_roles->push_back(expr->role());
    return;
  }
  if (expr->kind() == DescKind::kAnd) {
    for (const DescPtr& c : expr->conjuncts()) {
      SplitCloseConjuncts(c, rest, close_roles);
    }
    return;
  }
  rest->push_back(expr);
}

}  // namespace

// The propagation machinery itself (the wave-based worklist engine) lives
// in kb/propagate.{h,cc}; one Propagator instance runs one update to a
// fixed point, journaling every touched structure so a detected
// inconsistency rolls the whole update back (assert-ind is atomic).


// ---------------------------------------------------------------------------
// KnowledgeBase
// ---------------------------------------------------------------------------

KnowledgeBase::KnowledgeBase()
    : vocab_(std::make_shared<Vocabulary>()),
      normalizer_(std::make_shared<Normalizer>(vocab_.get())),
      taxonomy_(vocab_.get()) {}

// The copy-on-write epoch copy: vocabulary, normalizer and subsumption
// memo are shared outright (they are internally synchronized interning
// caches whose growth never changes database meaning); every store is a
// CowVector and shares its chunk directory. Cost is independent of
// database size.
KnowledgeBase::KnowledgeBase(const KnowledgeBase& other)
    : vocab_(other.vocab_),
      normalizer_(other.normalizer_),
      taxonomy_(other.taxonomy_, other.vocab_.get()),
      states_(other.states_),
      visible_ind_limit_(other.visible_ind_limit_),
      base_log_(other.base_log_),
      instances_(other.instances_),
      rules_on_node_(other.rules_on_node_),
      record_holders_(other.record_holders_),
      state_site_holders_(other.state_site_holders_),
      rules_(other.rules_),
      fills_index_(other.fills_index_),
      stats_(other.stats_) {}

std::unique_ptr<KnowledgeBase> KnowledgeBase::Clone() const {
  return std::unique_ptr<KnowledgeBase>(new KnowledgeBase(*this));
}

size_t KnowledgeBase::TakeCowCopyCount() {
  return states_.TakeCopies() + base_log_.TakeCopies() +
         instances_.TakeCopies() + rules_on_node_.TakeCopies() +
         record_holders_.TakeCopies() + std::exchange(state_site_copies_, 0) +
         fills_index_.TakeCopies() + taxonomy_.TakeCowCopies();
}

size_t KnowledgeBase::ApproxSharedCowBytes() const {
  return states_.ApproxChunkBytes() + base_log_.ApproxChunkBytes() +
         instances_.ApproxChunkBytes() + rules_on_node_.ApproxChunkBytes() +
         record_holders_.ApproxChunkBytes() +
         fills_index_.ApproxChunkBytes() + taxonomy_.ApproxSharedBytes();
}

Result<RoleId> KnowledgeBase::DefineRole(std::string_view name,
                                         bool attribute) {
  return vocab_->DefineRole(name, attribute);
}

Result<ConceptId> KnowledgeBase::DefineConcept(std::string_view name,
                                               DescPtr definition) {
  if (IsReservedConceptName(name)) {
    return Status::InvalidArgument(
        StrCat(name, " is a reserved built-in name"));
  }
  Symbol sym = vocab_->symbols().Intern(name);
  if (vocab_->HasConcept(sym)) {
    return Status::AlreadyExists(StrCat("concept ", name, " already defined"));
  }
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr nf,
                           normalizer_->NormalizeConcept(definition));
  CLASSIC_ASSIGN_OR_RETURN(ConceptId cid,
                           vocab_->DefineConcept(sym, definition, nf));
  CLASSIC_ASSIGN_OR_RETURN(NodeId node, taxonomy_.Insert(cid));

  // A new named concept may recognize existing individuals. Any instance
  // of the new node must already be an instance of every parent node
  // (parents subsume it), so the intersection of the parents' extensions
  // is a sound and complete seed set; only a root concept (no named
  // parents) can match anyone, including host individuals (enumerated /
  // TEST / built-in definitions).
  std::vector<IndId> seeds;
  if (taxonomy_.Synonyms(node).size() > 1) {
    // Joined an existing node as a synonym: its extension is already
    // maintained; nothing to reclassify.
    return cid;
  }
  const auto& parents = taxonomy_.Parents(node);
  if (parents.empty()) {
    for (IndId i = 0; i < vocab_->num_individuals(); ++i) seeds.push_back(i);
  } else {
    NodeId smallest = *parents.begin();
    for (NodeId p : parents) {
      if (Instances(p).Count() < Instances(smallest).Count()) smallest = p;
    }
    Instances(smallest).ForEach([&](size_t i) {
      for (NodeId p : parents) {
        if (p != smallest && !Instances(p).Test(i)) return;
      }
      seeds.push_back(static_cast<IndId>(i));
    });
  }
  if (!seeds.empty()) {
    Status st = Propagate(seeds);
    if (!st.ok()) {
      // Schema definition cannot make the ABox inconsistent (it only adds
      // vocabulary); a failure here is an engine bug.
      return Status::Internal(
          StrCat("reclassification after define-concept failed: ",
                 st.message()));
    }
  }
  return cid;
}

Result<size_t> KnowledgeBase::AssertRule(std::string_view antecedent_name,
                                         DescPtr consequent) {
  Symbol sym = vocab_->symbols().Lookup(antecedent_name);
  if (sym == kNoSymbol) {
    return Status::NotFound(
        StrCat("unknown antecedent concept: ", antecedent_name));
  }
  CLASSIC_ASSIGN_OR_RETURN(ConceptId cid, vocab_->FindConcept(sym));
  CLASSIC_ASSIGN_OR_RETURN(NodeId node, taxonomy_.NodeOf(cid));
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr nf,
                           normalizer_->NormalizeConcept(consequent));
  if (nf->incoherent()) {
    return Status::InvalidArgument(
        "rule consequent is incoherent; the rule could never fire safely");
  }
  size_t idx = rules_.size();
  rules_.push_back({node, cid, consequent, nf});
  rules_on_node_.MutableValue(node).push_back(idx);

  // Fire immediately for current instances (complete propagation).
  const std::vector<IndId> seeds = Instances(node).ToVector();
  if (!seeds.empty()) {
    Status st = Propagate(seeds);
    if (!st.ok()) {
      rules_on_node_.MutableValue(node).pop_back();
      rules_.pop_back();
      return st.WithContext("rule rejected: firing it contradicts the DB");
    }
  }
  return idx;
}

std::vector<size_t> KnowledgeBase::RulesOnNode(NodeId node) const {
  const std::vector<size_t>* on_node = rules_on_node_.Find(node);
  if (on_node == nullptr) return {};
  return *on_node;
}

Result<IndId> KnowledgeBase::CreateIndividual(std::string_view name) {
  CLASSIC_ASSIGN_OR_RETURN(IndId ind, vocab_->CreateIndividual(name));
  StateRef(ind);  // materialize with intrinsic knowledge
  // Even a fresh individual may be recognized (e.g. by concepts with no
  // requirements beyond CLASSIC-THING).
  Status st = Propagate({ind});
  if (!st.ok()) return Status::Internal(st.message());
  return ind;
}

Result<IndId> KnowledgeBase::CreateIndividual(std::string_view name,
                                              DescPtr initial) {
  CLASSIC_ASSIGN_OR_RETURN(IndId ind, CreateIndividual(name));
  CLASSIC_RETURN_NOT_OK(AssertInd(ind, std::move(initial)));
  return ind;
}

Status KnowledgeBase::AssertInd(IndId ind, DescPtr expr) {
  if (ind >= vocab_->num_individuals()) {
    return Status::NotFound(StrCat("no such individual id: ", ind));
  }
  if (!IsClassicIndividual(ind)) {
    return Status::InvalidArgument(
        StrCat("host individual ", vocab_->IndividualName(ind),
               " cannot be described (host individuals have no roles)"));
  }
  Propagator prop(this);
  Status st = ApplyIndividualExpr(&prop, ind, expr);
  if (!st.ok()) {
    prop.RollbackAll();
    return st;
  }
  base_log_.push_back({ind, std::move(expr)});
  return Status::OK();
}

Status KnowledgeBase::AssertIndBatch(
    const std::vector<std::pair<IndId, DescPtr>>& batch) {
  for (const auto& [ind, expr] : batch) {
    if (ind >= vocab_->num_individuals()) {
      return Status::NotFound(StrCat("no such individual id: ", ind));
    }
    if (!IsClassicIndividual(ind)) {
      return Status::InvalidArgument(
          StrCat("host individual ", vocab_->IndividualName(ind),
                 " cannot be described (host individuals have no roles)"));
    }
  }

  // Normalize every descriptive part up front, so the whole batch
  // settles in one wavefront. CLOSE conjuncts are peeled off per entry
  // and applied in batch order afterwards.
  struct Entry {
    IndId ind;
    NormalFormPtr nf;  // null when the expression was pure CLOSE
    std::vector<Symbol> close_roles;
  };
  Propagator prop(this);
  const IndId inds_before = static_cast<IndId>(vocab_->num_individuals());
  std::vector<Entry> entries;
  std::vector<std::pair<IndId, NormalFormPtr>> merges;
  entries.reserve(batch.size());
  for (const auto& [ind, expr] : batch) {
    Entry e;
    e.ind = ind;
    std::vector<DescPtr> rest;
    SplitCloseConjuncts(expr, &rest, &e.close_roles);
    if (!rest.empty()) {
      DescPtr descriptive = rest.size() == 1 ? rest[0] : Description::And(rest);
      CLASSIC_ASSIGN_OR_RETURN(
          e.nf, normalizer_->NormalizeIndividualExpr(descriptive));
      if (e.nf->incoherent()) {
        ++stats_.rejected_updates;
        return Status::Inconsistent(
            StrCat("asserted expression for ", vocab_->IndividualName(ind),
                   " is itself incoherent (",
                   IncoherenceKindName(e.nf->incoherence_kind()),
                   "): ", e.nf->incoherence_reason()));
      }
      merges.emplace_back(ind, e.nf);
    }
    entries.push_back(std::move(e));
  }
  // Host values interned by normalization need classification.
  std::vector<IndId> seeds;
  for (IndId i = inds_before; i < vocab_->num_individuals(); ++i) {
    seeds.push_back(i);
  }

  Status st = prop.Run(seeds, merges);
  for (const Entry& e : entries) {
    if (!st.ok()) break;
    for (Symbol role_name : e.close_roles) {
      Result<RoleId> role = vocab_->FindRole(role_name);
      if (!role.ok()) {
        st = role.status();
        break;
      }
      NormalForm close_nf;
      RoleRestriction* rr = close_nf.MutableRole(*role, *vocab_);
      rr->closed = true;
      rr->fillers = StateRef(e.ind).derived->role(*role).fillers;
      close_nf.Tighten(*vocab_);
      st = prop.Run({},
                    {{e.ind, normalizer_->FreezeOwned(std::move(close_nf))}});
      if (!st.ok()) break;
    }
  }
  if (!st.ok()) {
    prop.RollbackAll();
    return st;
  }
  for (const auto& entry : batch) base_log_.push_back(entry);
  return Status::OK();
}

Status KnowledgeBase::ApplyIndividualExpr(Propagator* prop, IndId ind,
                                          const DescPtr& expr) {
  std::vector<DescPtr> rest;
  std::vector<Symbol> close_roles;
  SplitCloseConjuncts(expr, &rest, &close_roles);

  const IndId inds_before = static_cast<IndId>(vocab_->num_individuals());

  if (!rest.empty()) {
    DescPtr descriptive =
        rest.size() == 1 ? rest[0] : Description::And(rest);
    CLASSIC_ASSIGN_OR_RETURN(
        NormalFormPtr nf, normalizer_->NormalizeIndividualExpr(descriptive));
    if (nf->incoherent()) {
      ++stats_.rejected_updates;
      return Status::Inconsistent(
          StrCat("asserted expression is itself incoherent (",
                 IncoherenceKindName(nf->incoherence_kind()),
                 "): ", nf->incoherence_reason()));
    }
    // Normalization may have interned fresh host values; classify them
    // (as extra seeds) so the instance indexes stay complete, and let
    // the descriptive part (and its deductions) settle before any
    // closure fixes the extension.
    std::vector<IndId> seeds;
    for (IndId i = inds_before; i < vocab_->num_individuals(); ++i) {
      seeds.push_back(i);
    }
    CLASSIC_RETURN_NOT_OK(prop->Run(seeds, {{ind, nf}}));
  }

  for (Symbol role_name : close_roles) {
    CLASSIC_ASSIGN_OR_RETURN(RoleId role, vocab_->FindRole(role_name));
    NormalForm close_nf;
    RoleRestriction* rr = close_nf.MutableRole(role, *vocab_);
    rr->closed = true;
    rr->fillers = StateRef(ind).derived->role(role).fillers;
    close_nf.Tighten(*vocab_);
    CLASSIC_RETURN_NOT_OK(
        prop->Run({}, {{ind, normalizer_->FreezeOwned(std::move(close_nf))}}));
  }
  return Status::OK();
}

Status KnowledgeBase::RetractInd(IndId ind, const DescPtr& expr) {
  if (ind >= states_.size() || !IsClassicIndividual(ind)) {
    return Status::NotFound("no assertions recorded for this individual");
  }
  const std::string needle = expr->ToString(vocab_->symbols());
  // Erase the FIRST matching log entry only: re-asserting the same
  // expression twice yields two entries, and retraction removes one
  // (multiset semantics).
  for (size_t i = 0; i < base_log_.size(); ++i) {
    const auto& entry = base_log_[i];
    if (entry.first == ind &&
        entry.second->ToString(vocab_->symbols()) == needle) {
      base_log_.EraseAt(i);
      return RederiveAll();
    }
  }
  return Status::NotFound(StrCat("expression was not asserted of ",
                                 vocab_->IndividualName(ind), ": ", needle));
}

Status KnowledgeBase::RederiveAll() {
  // Wipe all derivations back to each individual's intrinsic form, then
  // replay the base log in its original global order (the interleaving
  // matters for CLOSE, whose meaning is "the fillers known at that
  // moment").
  for (size_t i = 0; i < states_.size(); ++i) {
    IndividualState& st = states_.Mutable(i);
    st = IndividualState{};
    st.derived = IntrinsicForm(static_cast<IndId>(i));
  }
  instances_.Clear();
  record_holders_.Clear();
  state_site_holders_.reset();
  fills_index_.Clear();

  Propagator prop(this);
  // Individuals with no assertions still need realization.
  std::vector<IndId> seeds;
  for (size_t i = 0; i < states_.size(); ++i) {
    if (IsClassicIndividual(static_cast<IndId>(i))) {
      seeds.push_back(static_cast<IndId>(i));
    }
  }
  Status st = prop.Run(seeds, {});
  for (size_t i = 0; i < base_log_.size(); ++i) {
    if (!st.ok()) break;
    // Copy the entry: replay re-enters propagation, which may path-copy
    // the chunk under a reference into it.
    const auto entry = base_log_[i];
    st = ApplyIndividualExpr(&prop, entry.first, entry.second);
  }
  if (!st.ok()) {
    return Status::Internal(
        StrCat("re-derivation became inconsistent: ", st.message()));
  }
  return Status::OK();
}

const IndividualState& KnowledgeBase::state(IndId ind) const {
  return StateRef(ind);
}

bool KnowledgeBase::IsClassicIndividual(IndId ind) const {
  return vocab_->individual(ind).kind == IndKind::kClassic;
}

const DynamicBitset& KnowledgeBase::Instances(NodeId node) const {
  const DynamicBitset* inds = instances_.Find(node);
  return inds == nullptr ? EmptyExtension() : *inds;
}

const DynamicBitset& KnowledgeBase::RecordHolders(RoleId role) const {
  const DynamicBitset* holders = record_holders_.Find(role);
  return holders == nullptr ? EmptyExtension() : *holders;
}

const DynamicBitset& KnowledgeBase::StateSiteHolders() const {
  return state_site_holders_ == nullptr ? EmptyExtension()
                                        : *state_site_holders_;
}

std::vector<IndId> KnowledgeBase::AllClassicIndividuals() const {
  std::vector<IndId> out;
  const IndId limit = num_visible_individuals();
  for (IndId i = 0; i < limit; ++i) {
    if (IsClassicIndividual(i)) out.push_back(i);
  }
  return out;
}

NormalFormPtr KnowledgeBase::IntrinsicForm(IndId ind) const {
  NormalForm nf;
  for (AtomId a : vocab_->IntrinsicAtoms(ind)) nf.AddAtom(a, *vocab_);
  // Freeze through the normalizer so intrinsic states share the store's
  // canonical objects (pointer fast paths, valid memo ids).
  return normalizer_->Freeze(std::move(nf));
}

const IndividualState& KnowledgeBase::StateRef(IndId ind) const {
  // Fast path: already materialized into the chunked store before this
  // epoch froze (or, on the master, at any earlier point — the master is
  // single-writer, so its size only moves under external sync).
  if (ind < states_.size()) return states_[ind];
  std::lock_guard<std::mutex> lock(states_mutex_);
  if (frozen_) {
    // Frozen epochs never write the shared chunks (they may be chunk-
    // shared with other epochs and with the live master). Individuals
    // interned after the freeze — host values materialized by query
    // normalization — get their intrinsic state in a snapshot-local side
    // table with stable addresses, guarded by states_mutex_.
    const size_t base = frozen_states_size_;
    while (base + state_overlay_.size() <= ind) {
      IndId id = static_cast<IndId>(base + state_overlay_.size());
      IndividualState st;
      st.derived = IntrinsicForm(id);
      state_overlay_.push_back(std::move(st));
    }
    return state_overlay_[ind - base];
  }
  while (states_.size() <= ind) {
    IndId id = static_cast<IndId>(states_.size());
    IndividualState st;
    st.derived = IntrinsicForm(id);
    states_.push_back(std::move(st));
  }
  return states_[ind];
}

IndividualState& KnowledgeBase::MutableState(IndId ind) {
  StateRef(ind);  // materialize first
  if (frozen_ && ind >= frozen_states_size_) {
    return state_overlay_[ind - frozen_states_size_];
  }
  return states_.Mutable(ind);
}

std::optional<IndId> KnowledgeBase::ResolvePath(IndId start,
                                                const RolePath& path) const {
  IndId cur = start;
  for (RoleId role : path) {
    if (!IsClassicIndividual(cur)) return std::nullopt;
    const RoleRestriction& rr = StateRef(cur).derived->role(role);
    if (rr.fillers.size() != 1) return std::nullopt;
    cur = *rr.fillers.begin();
  }
  return cur;
}

bool KnowledgeBase::Satisfies(IndId ind, const NormalForm& concept_nf) const {
  return SatisfiesImpl(ind, concept_nf, nullptr);
}

bool KnowledgeBase::SatisfiesImpl(IndId ind, const NormalForm& nf,
                                  const SatisfiesGoal* caller) const {
  CLASSIC_OBS_COUNT(kInstanceChecks);
  if (nf.incoherent()) return false;
  if (nf.IsThing()) return true;
  for (const SatisfiesGoal* g = caller; g != nullptr; g = g->caller) {
    // Cycle through the filler graph: only finitely derivable knowledge
    // counts, so an in-progress goal is not yet proven.
    if (g->ind == ind && g->nf == &nf) return false;
  }
  const SatisfiesGoal goal{ind, &nf, caller};

  const NormalForm& derived = *StateRef(ind).derived;

  if (!std::includes(derived.atoms().begin(), derived.atoms().end(),
                     nf.atoms().begin(), nf.atoms().end())) {
    return false;
  }
  if (nf.enumeration() && nf.enumeration()->count(ind) == 0) return false;

  for (Symbol test : nf.tests()) {
    if (derived.tests().count(test) > 0) continue;
    auto fn = vocab_->FindTest(test);
    if (!fn.ok()) return false;
    TestArg arg;
    arg.ind = ind;
    const IndInfo& info = vocab_->individual(ind);
    arg.host = info.host ? &*info.host : nullptr;
    if (!(**fn)(arg)) return false;
  }

  for (const auto& [role, rc] : nf.roles()) {
    const RoleRestriction& ri = derived.role(role);
    // Attributes are single-valued by declaration even when the derived
    // record is absent or unclamped.
    uint32_t ri_at_most = ri.at_most;
    if (vocab_->role(role).attribute) {
      ri_at_most = std::min<uint32_t>(ri_at_most, 1);
    }
    if (ri.at_least < rc.at_least) return false;
    if (ri_at_most > rc.at_most) return false;
    if (rc.closed && !ri.closed) return false;
    if (!std::includes(ri.fillers.begin(), ri.fillers.end(),
                       rc.fillers.begin(), rc.fillers.end())) {
      return false;
    }
    if (rc.value_restriction && !rc.value_restriction->IsThing() &&
        ri.at_most > 0) {
      const NormalForm& want = *rc.value_restriction;
      bool ok = false;
      if (ri.value_restriction &&
          Subsumes(want, *ri.value_restriction,
                   taxonomy_.subsumption_index())) {
        ok = true;
      } else if (ri.closed) {
        ok = true;
        for (IndId f : ri.fillers) {
          if (!SatisfiesImpl(f, want, &goal)) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) return false;
    }
  }

  for (const auto& [p, q] : nf.coref().pairs()) {
    if (derived.coref().Entails(p, q)) continue;
    // Extensional evidence: both chains resolve to the same individual.
    std::optional<IndId> vp = ResolvePath(ind, p);
    std::optional<IndId> vq = ResolvePath(ind, q);
    if (!vp || !vq || *vp != *vq) return false;
  }

  return true;
}

Status KnowledgeBase::Propagate(const std::vector<IndId>& seeds) {
  Propagator prop(this);
  Status st = prop.Run(seeds, {});
  if (!st.ok()) prop.RollbackAll();
  return st;
}

Status KnowledgeBase::Repropagate() { return Propagate(AllClassicIndividuals()); }

std::string KnowledgeBase::CanonicalDerivedState() const {
  // Everything rendered here is a deterministic function of stable ids:
  // normal forms print id-sorted atom/filler/role sets, instance sets
  // iterate in ascending IndId order, and no NfId is printed (derived
  // states are owned forms and carry none) — so two runs that derive the
  // same fixed point print the same bytes.
  std::string out;
  const IndId limit = num_visible_individuals();
  for (IndId i = 0; i < limit; ++i) {
    const IndividualState& st = StateRef(i);
    out += vocab_->IndividualName(i);
    out += " := ";
    out += st.derived->ToString(*vocab_);
    // ToString re-derives CLOSE from bounds where possible; pin the
    // closed flags explicitly so closure state is always compared.
    for (const auto& [role, rr] : st.derived->roles()) {
      if (rr.closed) {
        out += " [closed ";
        out += vocab_->symbols().Name(vocab_->role(role).name);
        out += "]";
      }
    }
    out += " msc={";
    bool first = true;
    for (NodeId node : st.msc) {
      for (ConceptId cid : taxonomy_.Synonyms(node)) {
        if (!first) out += ",";
        first = false;
        out += vocab_->symbols().Name(vocab_->concept_info(cid).name);
      }
    }
    out += "} rules={";
    first = true;
    for (size_t idx : st.applied_rules) {
      if (!first) out += ",";
      first = false;
      out += std::to_string(idx);
    }
    out += "}\n";
  }
  for (NodeId node = 0; node < taxonomy_.num_nodes(); ++node) {
    out += "node ";
    out += std::to_string(node);
    bool first = true;
    out += " [";
    for (ConceptId cid : taxonomy_.Synonyms(node)) {
      if (!first) out += "/";
      first = false;
      out += vocab_->symbols().Name(vocab_->concept_info(cid).name);
    }
    out += "] instances={";
    first = true;
    Instances(node).ForEach([&](size_t ind) {
      if (ind >= limit) return;
      if (!first) out += ",";
      first = false;
      out += vocab_->IndividualName(static_cast<IndId>(ind));
    });
    out += "}\n";
  }
  return out;
}

}  // namespace classic
