#include "desc/normal_form.h"

#include <algorithm>
#include <optional>

#include "desc/description.h"
#include "util/string_util.h"

namespace classic {

namespace {
const RoleRestriction& TrivialRole() {
  static const RoleRestriction kTrivial;
  return kTrivial;
}
}  // namespace

bool RoleRestriction::IsTrivial() const {
  return at_least == 0 && at_most == kUnbounded &&
         (value_restriction == nullptr || value_restriction->IsThing()) &&
         fillers.empty() && !closed;
}

bool RoleRestriction::operator==(const RoleRestriction& other) const {
  if (at_least != other.at_least || at_most != other.at_most ||
      closed != other.closed || fillers != other.fillers) {
    return false;
  }
  const bool a_thing =
      value_restriction == nullptr || value_restriction->IsThing();
  const bool b_thing =
      other.value_restriction == nullptr || other.value_restriction->IsThing();
  if (a_thing || b_thing) return a_thing == b_thing;
  return value_restriction->Equals(*other.value_restriction);
}

const std::string& NormalForm::incoherence_reason() const {
  static const std::string kNone;
  return incoherence_reason_ ? *incoherence_reason_ : kNone;
}

const CorefGraph& NormalForm::coref() const {
  static const CorefGraph kEmpty;
  return coref_ ? *coref_ : kEmpty;
}

const RoleRestriction* NormalForm::FindRole(RoleId role) const {
  auto it = LowerBoundById(roles_, role);
  return it != roles_.end() && it->first == role ? &it->second : nullptr;
}

const RoleRestriction& NormalForm::role(RoleId role) const {
  const RoleRestriction* rr = FindRole(role);
  return rr != nullptr ? *rr : TrivialRole();
}

bool NormalForm::IsThing() const {
  return !incoherent_ && atoms_.empty() && !has_enumeration_ &&
         roles_.empty() && tests_.empty() && coref().empty();
}

size_t NormalForm::Size() const {
  size_t n = 1 + atoms_.size() + tests_.size() + enumeration_.size();
  for (const auto& [role, rr] : roles_) {
    (void)role;
    n += 1 + rr.fillers.size();
    if (rr.at_least > 0) ++n;
    if (rr.at_most != kUnbounded) ++n;
    if (rr.closed) ++n;
    if (rr.value_restriction) n += rr.value_restriction->Size();
  }
  for (const auto& [p, q] : coref().pairs()) n += p.size() + q.size();
  return n;
}

bool NormalForm::Equals(const NormalForm& other) const {
  if (incoherent_ != other.incoherent_) return false;
  if (incoherent_) return true;  // all incoherent forms denote bottom
  return atoms_ == other.atoms_ &&
         has_enumeration_ == other.has_enumeration_ &&
         enumeration_ == other.enumeration_ && tests_ == other.tests_ &&
         roles_ == other.roles_ && coref().EquivalentTo(other.coref());
}

size_t NormalForm::Hash() const {
  if (incoherent_) return 0xDEAD;
  size_t h = 0x811C9DC5;
  auto mix = [&h](size_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (AtomId a : atoms_) mix(a + 1);
  mix(0xA);
  if (has_enumeration_) {
    for (IndId i : enumeration_) mix(i + 1);
    mix(0xE);
  }
  for (const auto& [role, rr] : roles_) {
    mix(role + 1);
    mix(rr.at_least);
    mix(rr.at_most);
    mix(rr.closed ? 7 : 3);
    for (IndId f : rr.fillers) mix(f + 1);
    if (rr.value_restriction && !rr.value_restriction->IsThing()) {
      mix(rr.value_restriction->Hash());
    }
  }
  for (Symbol t : tests_) mix(t + 1);
  mix(coref().Hash());
  return h;
}

void NormalForm::MarkIncoherent(std::string reason) {
  MarkIncoherent(IncoherenceKind::kOther, std::move(reason));
}

void NormalForm::MarkIncoherent(IncoherenceKind kind, std::string reason) {
  if (incoherent_) return;
  incoherent_ = true;
  incoherence_kind_ = kind;
  incoherence_reason_ = std::make_shared<const std::string>(std::move(reason));
}

void NormalForm::AddAtom(AtomId atom, const Vocabulary& vocab) {
  auto insert_one = [&](AtomId a) {
    if (atoms_.count(a) > 0) return;
    for (AtomId existing : atoms_) {
      if (vocab.AtomsDisjoint(existing, a)) {
        MarkIncoherent(IncoherenceKind::kDisjointAtoms, StrCat(
            "disjoint primitives conflict: ",
            vocab.symbols().Name(vocab.atom(existing).name), " vs ",
            vocab.symbols().Name(vocab.atom(a).name)));
        return;
      }
    }
    atoms_.insert(a);
  };
  insert_one(atom);
  for (AtomId implied : vocab.atom(atom).implies) insert_one(implied);
}

void NormalForm::IntersectEnumeration(const IdSet<IndId>& members) {
  if (!has_enumeration_) {
    has_enumeration_ = true;
    enumeration_ = members;
    return;
  }
  enumeration_.erase_if([&](IndId i) { return members.count(i) == 0; });
}

RoleRestriction* NormalForm::MutableRole(RoleId role, const Vocabulary& vocab) {
  auto it = LowerBoundById(roles_, role);
  if (it != roles_.end() && it->first == role) return &it->second;
  // Grow by exactly one: a stored form keeps no spare 64-byte records.
  if (roles_.size() == roles_.capacity()) {
    const size_t at = static_cast<size_t>(it - roles_.begin());
    roles_.reserve(roles_.size() + 1);
    it = roles_.begin() + static_cast<std::ptrdiff_t>(at);
  }
  it = roles_.emplace(it, role, RoleRestriction{});
  if (vocab.role(role).attribute) it->second.at_most = 1;
  return &it->second;
}

void NormalForm::AddTest(Symbol fn) { tests_.insert(fn); }

CorefGraph* NormalForm::mutable_coref() {
  if (!coref_) {
    coref_ = std::make_shared<CorefGraph>();
  } else if (coref_.use_count() > 1) {
    coref_ = std::make_shared<CorefGraph>(*coref_);
  }
  return coref_.get();
}

void NormalForm::Tighten(const Vocabulary& vocab) {
  // Each pass only moves monotonically (bounds tighten, sets grow/shrink
  // one way), so the fixed point is reached quickly; iteration count is
  // bounded by the total number of constraints.
  while (TightenOnce(vocab)) {
    if (incoherent_) break;
  }
  if (!incoherent_) {
    // Drop records that constrain nothing, for canonicality. For
    // attributes, the implicit AT-MOST 1 clamp alone is not a constraint
    // (every attribute is single-valued by declaration).
    std::erase_if(roles_, [&vocab](const auto& record) {
      const RoleRestriction& rr = record.second;
      if (rr.IsTrivial()) return true;
      return vocab.role(record.first).attribute && rr.at_least == 0 &&
             rr.at_most == 1 && !rr.closed && rr.fillers.empty() &&
             (rr.value_restriction == nullptr ||
              rr.value_restriction->IsThing());
    });
  }
  if (coref_ && coref_->empty()) coref_.reset();
}

bool NormalForm::TightenOnce(const Vocabulary& vocab) {
  if (incoherent_) return false;
  bool changed = false;

  // An enumeration implies every atom shared intrinsically by all its
  // members: (ONE-OF 1 2) is an INTEGER (hence NUMBER, HOST-THING).
  if (has_enumeration_ && !enumeration_.empty()) {
    const std::vector<AtomId> first = vocab.IntrinsicAtoms(enumeration_[0]);
    IdSet<AtomId> shared(first.begin(), first.end());
    for (IndId i : enumeration_) {
      const std::vector<AtomId> intr = vocab.IntrinsicAtoms(i);
      shared.erase_if([&intr](AtomId a) {
        return std::find(intr.begin(), intr.end(), a) == intr.end();
      });
    }
    for (AtomId a : shared) {
      if (atoms_.count(a) == 0) {
        AddAtom(a, vocab);
        changed = true;
        if (incoherent_) return true;
      }
    }
  }

  // Enumeration members must be intrinsically compatible with every atom.
  if (has_enumeration_) {
    if (enumeration_.erase_if([&](IndId i) {
          return std::any_of(atoms_.begin(), atoms_.end(), [&](AtomId a) {
            return !vocab.AtomCompatibleWithInd(a, i);
          });
        }) > 0) {
      changed = true;
    }
    if (enumeration_.empty()) {
      MarkIncoherent(IncoherenceKind::kEmptyEnumeration,
                     "enumeration is empty");
      return true;
    }
  }

  for (auto& [role_id, rr] : roles_) {
    const std::string& role_name =
        vocab.symbols().Name(vocab.role(role_id).name);
    // Attribute roles are single-valued by declaration.
    if (vocab.role(role_id).attribute && rr.at_most > 1) {
      rr.at_most = 1;
      changed = true;
    }
    // A vacuous value restriction is represented as null.
    if (rr.value_restriction && rr.value_restriction->IsThing()) {
      rr.value_restriction = nullptr;
      changed = true;
    }
    // An incoherent value restriction forbids any filler.
    if (rr.value_restriction && rr.value_restriction->incoherent() &&
        rr.at_most > 0) {
      rr.at_most = 0;
      changed = true;
    }
    // An enumerated value restriction bounds the number of distinct
    // fillers (paper Section 2.2's ONE-OF/AT-MOST interaction).
    if (rr.value_restriction && rr.value_restriction->enumeration()) {
      uint32_t n =
          static_cast<uint32_t>(rr.value_restriction->enumeration()->size());
      if (rr.at_most > n) {
        rr.at_most = n;
        changed = true;
      }
    }
    // Known fillers give a lower bound (unique-name assumption).
    if (rr.fillers.size() > rr.at_least) {
      rr.at_least = static_cast<uint32_t>(rr.fillers.size());
      changed = true;
    }
    // A closed role's fillers are all of them.
    if (rr.closed && rr.at_most > rr.fillers.size()) {
      rr.at_most = static_cast<uint32_t>(rr.fillers.size());
      changed = true;
    }
    // Cardinality consistency.
    if (rr.at_least > rr.at_most) {
      MarkIncoherent(IncoherenceKind::kCardinality,
                     StrCat("role ", role_name, ": at-least ", rr.at_least,
                            " exceeds at-most ", rr.at_most));
      return true;
    }
    // Reaching the upper bound closes the role (paper Section 3.3).
    if (!rr.closed && rr.at_most != kUnbounded &&
        rr.fillers.size() >= rr.at_most) {
      rr.closed = true;
      changed = true;
    }
    // When nothing can fill the role, the value restriction is vacuous.
    if (rr.at_most == 0 && rr.value_restriction) {
      rr.value_restriction = nullptr;
      changed = true;
    }
    // Intrinsic checks of known fillers against the value restriction.
    if (rr.value_restriction) {
      const NormalForm& vr = *rr.value_restriction;
      for (IndId f : rr.fillers) {
        if (vr.enumeration() && vr.enumeration()->count(f) == 0) {
          MarkIncoherent(IncoherenceKind::kFillerClash,
                         StrCat("role ", role_name, ": filler ",
                                vocab.IndividualName(f),
                                " outside the enumerated value restriction"));
          return true;
        }
        for (AtomId a : vr.atoms()) {
          if (!vocab.AtomCompatibleWithInd(a, f)) {
            MarkIncoherent(IncoherenceKind::kFillerClash, StrCat(
                "role ", role_name, ": filler ", vocab.IndividualName(f),
                " is intrinsically incompatible with the value restriction"));
            return true;
          }
        }
      }
    }
  }

  // Co-referent length-1 paths denote the same individual, so their role
  // records must agree: merge them (this yields the paper's deduction that
  // (SAME-AS (likes) (thing-driven)) fills likes with Volvo-17).
  if (coref_ && !coref_->empty()) {
    // Any role heading a co-reference path is single-valued here: the
    // constraint speaks of "the" filler.
    for (const auto& [p, q] : coref_->pairs()) {
      for (RoleId head : {p[0], q[0]}) {
        RoleRestriction* rr = MutableRole(head, vocab);
        if (rr->at_most > 1) {
          rr->at_most = 1;
          changed = true;
        }
      }
    }
    for (const auto& cls : coref_->CanonicalClasses()) {
      std::vector<RoleId> single;
      for (const auto& path : cls) {
        if (path.size() == 1) single.push_back(path[0]);
      }
      if (single.size() < 2) continue;
      // Build the meet of all records in the class.
      RoleRestriction merged;
      merged.at_most = kUnbounded;
      bool any = false;
      for (RoleId r : single) {
        const RoleRestriction* found = FindRole(r);
        if (found == nullptr) continue;
        any = true;
        const RoleRestriction& rr = *found;
        merged.at_least = std::max(merged.at_least, rr.at_least);
        merged.at_most = std::min(merged.at_most, rr.at_most);
        merged.closed = merged.closed || rr.closed;
        merged.fillers.insert(rr.fillers.begin(), rr.fillers.end());
        if (rr.value_restriction) {
          merged.value_restriction =
              merged.value_restriction
                  ? MeetNormalForms(*merged.value_restriction,
                                    *rr.value_restriction, vocab)
                  : rr.value_restriction;
        }
      }
      if (!any) continue;
      merged.at_most = std::min<uint32_t>(merged.at_most, 1);
      for (RoleId r : single) {
        RoleRestriction* rr = MutableRole(r, vocab);
        if (!(*rr == merged)) {
          *rr = merged;
          changed = true;
        }
      }
      if (merged.value_restriction && merged.value_restriction->incoherent()) {
        MarkIncoherent(IncoherenceKind::kCorefClash,
                       "co-referent attributes have incompatible restrictions");
        return true;
      }
    }
  }

  return changed;
}

const char* IncoherenceKindName(IncoherenceKind kind) {
  switch (kind) {
    case IncoherenceKind::kNone:
      return "none";
    case IncoherenceKind::kNothing:
      return "nothing";
    case IncoherenceKind::kCardinality:
      return "cardinality";
    case IncoherenceKind::kDisjointAtoms:
      return "disjoint-atoms";
    case IncoherenceKind::kEmptyEnumeration:
      return "empty-enumeration";
    case IncoherenceKind::kFillerClash:
      return "filler-clash";
    case IncoherenceKind::kCorefClash:
      return "coref-clash";
    case IncoherenceKind::kOther:
      return "other";
  }
  return "other";
}

const NormalForm& ThingNormalForm() {
  static const NormalForm kThing;
  return kThing;
}

NormalFormPtr ThingNormalFormPtr() {
  static const NormalFormPtr kThing = std::make_shared<NormalForm>();
  return kThing;
}

void MergeNormalFormInto(NormalForm* dst, const NormalForm& src,
                         const Vocabulary& vocab) {
  if (src.incoherent()) {
    dst->MarkIncoherent(src.incoherence_kind(), src.incoherence_reason());
  }
  for (AtomId atom : src.atoms()) dst->AddAtom(atom, vocab);
  if (src.enumeration()) dst->IntersectEnumeration(*src.enumeration());
  for (const auto& [role, rb] : src.roles()) {
    RoleRestriction* rr = dst->MutableRole(role, vocab);
    rr->at_least = std::max(rr->at_least, rb.at_least);
    rr->at_most = std::min(rr->at_most, rb.at_most);
    rr->closed = rr->closed || rb.closed;
    rr->fillers.insert(rb.fillers.begin(), rb.fillers.end());
    if (rb.value_restriction) {
      rr->value_restriction =
          rr->value_restriction
              ? MeetNormalForms(*rr->value_restriction, *rb.value_restriction,
                                vocab)
              : rb.value_restriction;
    }
  }
  for (Symbol t : src.tests()) dst->AddTest(t);
  if (!src.coref().empty()) dst->mutable_coref()->MergeFrom(src.coref());
}

NormalFormPtr MeetNormalForms(const NormalForm& a, const NormalForm& b,
                              const Vocabulary& vocab) {
  return std::make_shared<const NormalForm>(
      MeetNormalFormsValue(a, b, vocab));
}

NormalForm MeetNormalFormsValue(const NormalForm& a, const NormalForm& b,
                                const Vocabulary& vocab) {
  NormalForm out(a);
  MergeNormalFormInto(&out, b, vocab);
  out.Tighten(vocab);
  return out;
}

NormalFormPtr JoinNormalForms(const NormalForm& a, const NormalForm& b,
                              const Vocabulary& vocab) {
  // Bottom is the unit of join.
  if (a.incoherent()) return std::make_shared<const NormalForm>(b);
  if (b.incoherent()) return std::make_shared<const NormalForm>(a);

  auto out = std::make_shared<NormalForm>();

  for (AtomId atom : a.atoms()) {
    if (b.atoms().count(atom) > 0) out->AddAtom(atom, vocab);
  }

  if (a.enumeration() && b.enumeration()) {
    IdSet<IndId> both = *a.enumeration();
    both.insert(b.enumeration()->begin(), b.enumeration()->end());
    out->IntersectEnumeration(both);
  }

  for (Symbol t : a.tests()) {
    if (b.tests().count(t) > 0) out->AddTest(t);
  }

  IdSet<RoleId> roles;
  for (const auto& record : a.roles()) roles.insert(record.first);
  for (const auto& record : b.roles()) roles.insert(record.first);
  for (RoleId r : roles) {
    const RoleRestriction& ra = a.role(r);
    const RoleRestriction& rb = b.role(r);
    RoleRestriction joined;
    joined.at_least = std::min(ra.at_least, rb.at_least);
    joined.at_most = (ra.at_most == kUnbounded || rb.at_most == kUnbounded)
                         ? kUnbounded
                         : std::max(ra.at_most, rb.at_most);
    std::set_intersection(ra.fillers.begin(), ra.fillers.end(),
                          rb.fillers.begin(), rb.fillers.end(),
                          std::inserter(joined.fillers,
                                        joined.fillers.begin()));
    joined.closed = false;  // completeness of one side says nothing joint
    // A side with no possible fillers satisfies every (ALL r C)
    // vacuously, so the join's restriction comes from the other side.
    const bool a_vacuous = ra.at_most == 0;
    const bool b_vacuous = rb.at_most == 0;
    if (a_vacuous && !b_vacuous) {
      joined.value_restriction = rb.value_restriction;
    } else if (b_vacuous && !a_vacuous) {
      joined.value_restriction = ra.value_restriction;
    } else if (ra.value_restriction && rb.value_restriction) {
      joined.value_restriction =
          JoinNormalForms(*ra.value_restriction, *rb.value_restriction,
                          vocab);
    }
    if (!joined.IsTrivial()) {
      *out->MutableRole(r, vocab) = std::move(joined);
    }
  }

  for (const auto& [p, q] : a.coref().pairs()) {
    if (b.coref().Entails(p, q)) out->mutable_coref()->Equate(p, q);
  }

  out->Tighten(vocab);
  return out;
}

// --- Rendering back to descriptions ---------------------------------------
//
// ToDescription builds the Description of a form; ToString writes that
// Description's text straight into one buffer. Both emit the same parts in
// the same order: the atoms no other atom of the form implies, the
// enumeration, per role (ascending RoleId) AT-LEAST, AT-MOST, FILLS and
// ALL, the tests, then one SAME-AS per non-leading path of each
// co-reference class; no part is THING, one part stands alone, and two or
// more are wrapped in (AND ...).

namespace {

/// Implications re-derive an implied atom, so only the others are printed.
bool ImpliedByAnother(const IdSet<AtomId>& atoms, AtomId a,
                      const Vocabulary& vocab) {
  return std::any_of(atoms.begin(), atoms.end(), [&](AtomId b) {
    const auto& imp = vocab.atom(b).implies;
    return b != a && std::find(imp.begin(), imp.end(), a) != imp.end();
  });
}

/// The built-in concept that `a` stands for, if any.
std::optional<BuiltinConcept> BuiltinOf(const Vocabulary& vocab, AtomId a) {
  for (BuiltinConcept b :
       {BuiltinConcept::kInteger, BuiltinConcept::kReal,
        BuiltinConcept::kNumber, BuiltinConcept::kString,
        BuiltinConcept::kBoolean}) {
    if (vocab.builtin_atom(b) == a) return b;
  }
  return std::nullopt;
}

/// Known fillers imply their own count (unique names), so FILLS states it.
bool PrintsAtLeast(const RoleRestriction& rr) {
  return rr.at_least > rr.fillers.size();
}

/// Closure is always re-derivable from AT-MOST + FILLS (Tighten closes a
/// role whose bound is reached), so CLOSE never needs printing — it is not
/// a concept constructor. An attribute's AT-MOST 1 is declared, not stated.
bool PrintsAtMost(const RoleRestriction& rr, bool attribute) {
  return rr.at_most != kUnbounded && !(attribute && rr.at_most == 1);
}

bool PrintsAll(const RoleRestriction& rr) {
  return rr.value_restriction && !rr.value_restriction->IsThing();
}

IndRef IndRefOf(const Vocabulary& vocab, IndId id) {
  const IndInfo& info = vocab.individual(id);
  if (info.kind == IndKind::kHost) return IndRef::Host(*info.host);
  return IndRef::Named(info.name);
}

DescPtr AtomToDescription(const Vocabulary& vocab, AtomId a) {
  if (a == vocab.classic_thing_atom()) return Description::ClassicThing();
  if (a == vocab.host_thing_atom()) return Description::HostThing();
  if (std::optional<BuiltinConcept> b = BuiltinOf(vocab, a)) {
    return Description::Builtin(*b);
  }
  const AtomInfo& info = vocab.atom(a);
  if (info.group != kNoSymbol) {
    return Description::DisjointPrimitive(Description::Thing(), info.group,
                                          info.name);
  }
  return Description::Primitive(Description::Thing(), info.name);
}

void AppendIndividual(const Vocabulary& vocab, IndId id, std::string* out) {
  const IndInfo& info = vocab.individual(id);
  if (info.kind == IndKind::kHost) {
    out->append(info.host->ToString());
  } else {
    out->append(vocab.symbols().Name(info.name));
  }
}

void AppendAtom(const Vocabulary& vocab, AtomId a, std::string* out) {
  if (a == vocab.classic_thing_atom()) {
    out->append("CLASSIC-THING");
    return;
  }
  if (a == vocab.host_thing_atom()) {
    out->append("HOST-THING");
    return;
  }
  if (std::optional<BuiltinConcept> b = BuiltinOf(vocab, a)) {
    out->append(BuiltinConceptName(*b));
    return;
  }
  const AtomInfo& info = vocab.atom(a);
  if (info.group != kNoSymbol) {
    out->append("(DISJOINT-PRIMITIVE THING ");
    out->append(vocab.symbols().Name(info.group));
  } else {
    out->append("(PRIMITIVE THING");
  }
  out->push_back(' ');
  out->append(vocab.symbols().Name(info.name));
  out->push_back(')');
}

void AppendRolePath(const Vocabulary& vocab, const RolePath& path,
                    std::string* out) {
  out->push_back('(');
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out->push_back(' ');
    out->append(vocab.symbols().Name(vocab.role(path[i]).name));
  }
  out->push_back(')');
}

void AppendForm(const NormalForm& nf, const Vocabulary& vocab,
                std::string* out) {
  if (nf.incoherent()) {
    out->append("NOTHING");
    return;
  }
  const SymbolTable& symbols = vocab.symbols();
  // Every part follows a space behind an "(AND" written up front; the end
  // takes the frame off again when fewer than two parts were written.
  const size_t start = out->size();
  size_t parts = 0;
  out->append("(AND");
  auto part = [&](const char* opening) {
    ++parts;
    out->push_back(' ');
    out->append(opening);
  };

  for (AtomId a : nf.atoms()) {
    if (ImpliedByAnother(nf.atoms(), a, vocab)) continue;
    ++parts;
    out->push_back(' ');
    AppendAtom(vocab, a, out);
  }

  if (const IdSet<IndId>* members = nf.enumeration()) {
    part("(ONE-OF");
    for (IndId i : *members) {
      out->push_back(' ');
      AppendIndividual(vocab, i, out);
    }
    out->push_back(')');
  }

  for (const auto& [role_id, rr] : nf.roles()) {
    const RoleInfo& role = vocab.role(role_id);
    const std::string& name = symbols.Name(role.name);
    if (PrintsAtLeast(rr)) {
      part("(AT-LEAST ");
      AppendInteger(rr.at_least, out);
      out->push_back(' ');
      out->append(name);
      out->push_back(')');
    }
    if (PrintsAtMost(rr, role.attribute)) {
      part("(AT-MOST ");
      AppendInteger(rr.at_most, out);
      out->push_back(' ');
      out->append(name);
      out->push_back(')');
    }
    if (!rr.fillers.empty()) {
      part("(FILLS ");
      out->append(name);
      for (IndId f : rr.fillers) {
        out->push_back(' ');
        AppendIndividual(vocab, f, out);
      }
      out->push_back(')');
    }
    if (PrintsAll(rr)) {
      part("(ALL ");
      out->append(name);
      out->push_back(' ');
      AppendForm(*rr.value_restriction, vocab, out);
      out->push_back(')');
    }
  }

  for (Symbol t : nf.tests()) {
    part("(TEST ");
    out->append(symbols.Name(t));
    out->push_back(')');
  }

  if (!nf.coref().empty()) {
    for (const auto& cls : nf.coref().CanonicalClasses()) {
      for (size_t i = 1; i < cls.size(); ++i) {
        part("(SAME-AS ");
        AppendRolePath(vocab, cls[0], out);
        out->push_back(' ');
        AppendRolePath(vocab, cls[i], out);
        out->push_back(')');
      }
    }
  }

  if (parts == 0) {
    out->resize(start);
    out->append("THING");
  } else if (parts == 1) {
    out->erase(start, 5);  // "(AND "
  } else {
    out->push_back(')');
  }
}

}  // namespace

DescPtr NormalForm::ToDescription(const Vocabulary& vocab) const {
  if (incoherent_) {
    return Description::Nothing();
  }
  std::vector<DescPtr> parts;

  for (AtomId a : atoms_) {
    if (!ImpliedByAnother(atoms_, a, vocab)) {
      parts.push_back(AtomToDescription(vocab, a));
    }
  }

  if (has_enumeration_) {
    std::vector<IndRef> members;
    for (IndId i : enumeration_) members.push_back(IndRefOf(vocab, i));
    parts.push_back(Description::OneOf(std::move(members)));
  }

  for (const auto& [role_id, rr] : roles_) {
    Symbol role = vocab.role(role_id).name;
    if (PrintsAtLeast(rr)) {
      parts.push_back(Description::AtLeast(rr.at_least, role));
    }
    if (PrintsAtMost(rr, vocab.role(role_id).attribute)) {
      parts.push_back(Description::AtMost(rr.at_most, role));
    }
    if (!rr.fillers.empty()) {
      std::vector<IndRef> fillers;
      for (IndId f : rr.fillers) fillers.push_back(IndRefOf(vocab, f));
      parts.push_back(Description::Fills(role, std::move(fillers)));
    }
    if (PrintsAll(rr)) {
      parts.push_back(Description::All(
          role, rr.value_restriction->ToDescription(vocab)));
    }
  }

  for (Symbol t : tests_) parts.push_back(Description::Test(t));

  for (const auto& cls : coref().CanonicalClasses()) {
    auto to_syms = [&](const RolePath& p) {
      std::vector<Symbol> out;
      for (RoleId r : p) out.push_back(vocab.role(r).name);
      return out;
    };
    for (size_t i = 1; i < cls.size(); ++i) {
      parts.push_back(
          Description::SameAs(to_syms(cls[0]), to_syms(cls[i])));
    }
  }

  if (parts.empty()) return Description::Thing();
  if (parts.size() == 1) return parts[0];
  return Description::And(std::move(parts));
}

std::string NormalForm::ToString(const Vocabulary& vocab) const {
  std::string out;
  AppendForm(*this, vocab, &out);
  return out;
}

}  // namespace classic
