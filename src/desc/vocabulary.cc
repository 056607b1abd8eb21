#include "desc/vocabulary.h"

#include "sexpr/sexpr.h"
#include "util/string_util.h"

namespace classic {

Vocabulary::Vocabulary() {
  // Built-in atom structure. Two disjointness groups:
  //   __thing-kind: CLASSIC-THING vs HOST-THING,
  //   __host-leaf:  INTEGER vs REAL vs STRING vs BOOLEAN.
  // NUMBER sits between INTEGER/REAL and HOST-THING without a group.
  Symbol thing_kind = symbols_.Intern("__thing-kind");
  Symbol host_leaf = symbols_.Intern("__host-leaf");

  classic_thing_atom_ = AddAtom(
      {symbols_.Intern("CLASSIC-THING"), thing_kind, {}, /*builtin=*/true});
  host_thing_atom_ = AddAtom(
      {symbols_.Intern("HOST-THING"), thing_kind, {}, /*builtin=*/true});
  number_atom_ = AddAtom({symbols_.Intern("NUMBER"),
                          kNoSymbol,
                          {host_thing_atom_},
                          /*builtin=*/true});
  integer_atom_ = AddAtom({symbols_.Intern("INTEGER"),
                           host_leaf,
                           {number_atom_, host_thing_atom_},
                           /*builtin=*/true});
  real_atom_ = AddAtom({symbols_.Intern("REAL"),
                        host_leaf,
                        {number_atom_, host_thing_atom_},
                        /*builtin=*/true});
  string_atom_ = AddAtom({symbols_.Intern("STRING"),
                          host_leaf,
                          {host_thing_atom_},
                          /*builtin=*/true});
  boolean_atom_ = AddAtom({symbols_.Intern("BOOLEAN"),
                           host_leaf,
                           {host_thing_atom_},
                           /*builtin=*/true});
}

AtomId Vocabulary::AddAtom(AtomInfo info) const {
  AtomId id = static_cast<AtomId>(atoms_.size());
  atoms_.push_back(std::move(info));
  return id;
}

Result<RoleId> Vocabulary::DefineRole(std::string_view name, bool attribute) {
  Symbol sym = symbols_.Intern(name);
  std::lock_guard<std::mutex> lock(role_mutex_);
  auto it = role_by_name_.find(sym);
  if (it != role_by_name_.end()) {
    if (roles_[it->second].attribute == attribute) return it->second;
    return Status::AlreadyExists(
        StrCat("role ", name, " already declared with different kind"));
  }
  RoleId id = static_cast<RoleId>(roles_.size());
  roles_.push_back({sym, attribute});
  role_by_name_.emplace(sym, id);
  return id;
}

Result<RoleId> Vocabulary::FindRole(Symbol name) const {
  std::lock_guard<std::mutex> lock(role_mutex_);
  auto it = role_by_name_.find(name);
  if (it == role_by_name_.end()) {
    return Status::NotFound(
        StrCat("undeclared role: ", symbols_.Name(name)));
  }
  return it->second;
}

AtomId Vocabulary::PrimitiveAtom(Symbol index) const {
  std::lock_guard<std::mutex> lock(atom_mutex_);
  auto it = plain_atom_by_index_.find(index);
  if (it != plain_atom_by_index_.end()) return it->second;
  AtomId id = AddAtom({index, kNoSymbol, {}, /*builtin=*/false});
  plain_atom_by_index_.emplace(index, id);
  return id;
}

Result<AtomId> Vocabulary::DisjointPrimitiveAtom(Symbol group,
                                                 Symbol index) const {
  std::lock_guard<std::mutex> lock(atom_mutex_);
  auto git = group_of_index_.find(index);
  if (git != group_of_index_.end() && git->second != group) {
    return Status::InvalidArgument(
        StrCat("disjoint-primitive index ", symbols_.Name(index),
               " already used in group ", symbols_.Name(git->second)));
  }
  if (plain_atom_by_index_.count(index) > 0) {
    return Status::InvalidArgument(
        StrCat("index ", symbols_.Name(index),
               " already used by a plain primitive"));
  }
  auto key = std::make_pair(group, index);
  auto it = disjoint_atom_by_key_.find(key);
  if (it != disjoint_atom_by_key_.end()) return it->second;
  AtomId id = AddAtom({index, group, {}, /*builtin=*/false});
  disjoint_atom_by_key_.emplace(key, id);
  group_of_index_.emplace(index, group);
  return id;
}

AtomId Vocabulary::builtin_atom(BuiltinConcept b) const {
  switch (b) {
    case BuiltinConcept::kInteger:
      return integer_atom_;
    case BuiltinConcept::kReal:
      return real_atom_;
    case BuiltinConcept::kNumber:
      return number_atom_;
    case BuiltinConcept::kString:
      return string_atom_;
    case BuiltinConcept::kBoolean:
      return boolean_atom_;
  }
  return kNoId;
}

bool Vocabulary::AtomsDisjoint(AtomId a, AtomId b) const {
  if (a == b) return false;
  const AtomInfo& ia = atoms_[a];
  const AtomInfo& ib = atoms_[b];
  return ia.group != kNoSymbol && ia.group == ib.group;
}

bool Vocabulary::AtomCompatibleWithInd(AtomId a, IndId i) const {
  const AtomInfo& info = atoms_[a];
  const IndInfo& ind = inds_[i];
  if (!info.builtin) {
    // User primitives can never be derived for host individuals (they carry
    // no assertional state); for CLASSIC individuals the open-world
    // assumption keeps them possible.
    return ind.kind == IndKind::kClassic;
  }
  // Built-in atoms apply intrinsically: the same table as IntrinsicAtoms,
  // read without materializing it (this runs per filler and per atom in
  // every Tighten and Disjoint).
  if (ind.kind == IndKind::kClassic) return a == classic_thing_atom_;
  if (a == host_thing_atom_) return true;
  switch (ind.host->type()) {
    case HostType::kInteger:
      return a == integer_atom_ || a == number_atom_;
    case HostType::kReal:
      return a == real_atom_ || a == number_atom_;
    case HostType::kString:
      return a == string_atom_;
    case HostType::kBoolean:
      return a == boolean_atom_;
  }
  return false;
}

std::vector<AtomId> Vocabulary::IntrinsicAtoms(IndId i) const {
  const IndInfo& ind = inds_[i];
  if (ind.kind == IndKind::kClassic) return {classic_thing_atom_};
  switch (ind.host->type()) {
    case HostType::kInteger:
      return {integer_atom_, number_atom_, host_thing_atom_};
    case HostType::kReal:
      return {real_atom_, number_atom_, host_thing_atom_};
    case HostType::kString:
      return {string_atom_, host_thing_atom_};
    case HostType::kBoolean:
      return {boolean_atom_, host_thing_atom_};
  }
  return {host_thing_atom_};
}

Result<IndId> Vocabulary::CreateIndividual(std::string_view name) {
  Symbol sym = symbols_.Intern(name);
  std::lock_guard<std::mutex> lock(ind_mutex_);
  if (ind_by_name_.count(sym) > 0) {
    return Status::AlreadyExists(StrCat("individual ", name,
                                        " already exists"));
  }
  IndId id = static_cast<IndId>(inds_.size());
  IndInfo info{IndKind::kClassic, sym, nullptr, {}};
  sexpr::AppendQuoted(name, &info.wire_name);
  inds_.push_back(std::move(info));
  ind_by_name_.emplace(sym, id);
  return id;
}

IndId Vocabulary::InternHostValue(const HostValue& v) const {
  std::lock_guard<std::mutex> lock(ind_mutex_);
  auto it = host_ind_by_value_.find(v);
  if (it != host_ind_by_value_.end()) return it->second;
  IndId id = static_cast<IndId>(inds_.size());
  // Listed before the id is published: any individual bound a reader
  // observes then covers no host missing from the list.
  host_ids_.push_back(id);
  IndInfo info{IndKind::kHost, kNoSymbol, std::make_unique<HostValue>(v), {}};
  sexpr::AppendQuoted(v.ToString(), &info.wire_name);
  inds_.push_back(std::move(info));
  host_ind_by_value_.emplace(v, id);
  return id;
}

Result<IndId> Vocabulary::FindIndividual(Symbol name) const {
  std::lock_guard<std::mutex> lock(ind_mutex_);
  auto it = ind_by_name_.find(name);
  if (it == ind_by_name_.end()) {
    return Status::NotFound(
        StrCat("unknown individual: ", symbols_.Name(name)));
  }
  return it->second;
}

std::string Vocabulary::IndividualName(IndId id) const {
  const IndInfo& info = inds_[id];
  if (info.kind == IndKind::kHost) return info.host->ToString();
  if (info.name != kNoSymbol) return symbols_.Name(info.name);
  return StrCat("__anon", id);
}

Result<ConceptId> Vocabulary::DefineConcept(Symbol name, DescPtr source,
                                            NormalFormPtr nf) {
  std::lock_guard<std::mutex> lock(concept_mutex_);
  if (concept_by_name_.count(name) > 0) {
    return Status::AlreadyExists(
        StrCat("concept ", symbols_.Name(name), " already defined"));
  }
  ConceptId id = static_cast<ConceptId>(concepts_.size());
  concepts_.push_back({name, std::move(source), std::move(nf)});
  concept_by_name_.emplace(name, id);
  return id;
}

Result<ConceptId> Vocabulary::FindConcept(Symbol name) const {
  std::lock_guard<std::mutex> lock(concept_mutex_);
  auto it = concept_by_name_.find(name);
  if (it == concept_by_name_.end()) {
    return Status::NotFound(
        StrCat("unknown concept: ", symbols_.Name(name)));
  }
  return it->second;
}

bool Vocabulary::HasConcept(Symbol name) const {
  std::lock_guard<std::mutex> lock(concept_mutex_);
  return concept_by_name_.count(name) > 0;
}

bool Vocabulary::HasTest(Symbol name) const {
  std::lock_guard<std::mutex> lock(test_mutex_);
  return tests_.count(name) > 0;
}

Result<Symbol> Vocabulary::RegisterTest(std::string_view name, TestFn fn) {
  Symbol sym = symbols_.Intern(name);
  std::lock_guard<std::mutex> lock(test_mutex_);
  if (tests_.count(sym) > 0) {
    return Status::AlreadyExists(StrCat("test ", name, " already registered"));
  }
  tests_.emplace(sym, std::move(fn));
  return sym;
}

Result<const TestFn*> Vocabulary::FindTest(Symbol name) const {
  std::lock_guard<std::mutex> lock(test_mutex_);
  auto it = tests_.find(name);
  if (it == tests_.end()) {
    return Status::NotFound(
        StrCat("unregistered test function: ", symbols_.Name(name)));
  }
  return &it->second;
}

}  // namespace classic
