// The Vocabulary: the shared name spaces of a CLASSIC database.
//
// A CLASSIC schema is "an extended vocabulary of identifiers used in
// descriptions" (Section 2). The Vocabulary owns:
//
//  - the symbol table,
//  - declared roles (with the attribute / single-valued flag required for
//    SAME-AS chains),
//  - primitive atoms (the indices of PRIMITIVE / DISJOINT-PRIMITIVE plus
//    the built-in atoms such as CLASSIC-THING and INTEGER, including their
//    built-in implication and disjointness structure),
//  - individuals, both regular CLASSIC individuals and interned host
//    values,
//  - named concepts with their cached normal forms,
//  - registered TEST functions.
//
// The Vocabulary is purely terminological: assertional state about
// individuals lives in kb::KnowledgeBase.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "desc/description.h"
#include "desc/host_value.h"
#include "desc/ids.h"
#include "util/intern.h"
#include "util/stable_vector.h"
#include "util/result.h"

namespace classic {

class NormalForm;
using NormalFormPtr = std::shared_ptr<const NormalForm>;

/// \brief Argument handed to a TEST function: the individual id plus its
/// host value when it is a host individual (null for CLASSIC individuals).
struct TestArg {
  IndId ind = kNoId;
  const HostValue* host = nullptr;
};

/// A registered host-language test function (paper Section 2.1.4).
using TestFn = std::function<bool(const TestArg&)>;

/// \brief Declared role metadata.
struct RoleInfo {
  Symbol name = kNoSymbol;
  /// Attributes are single-valued roles (AT-MOST 1 enforced); only
  /// attributes may appear in SAME-AS chains.
  bool attribute = false;
};

/// \brief A primitive atom: one "unspecified differentia" marker.
struct AtomInfo {
  /// Display name (the primitive's index, or the built-in's name).
  Symbol name = kNoSymbol;
  /// Disjointness grouping; atoms sharing a group (!= kNoSymbol) with
  /// different ids denote disjoint primitives.
  Symbol group = kNoSymbol;
  /// Atoms implied by this one (transitively closed), e.g. INTEGER implies
  /// NUMBER and HOST-THING. Used to expand atom sets in normal forms.
  std::vector<AtomId> implies;
  /// True for the built-in atoms (which only apply intrinsically).
  bool builtin = false;
};

/// Kind of an individual.
enum class IndKind { kClassic, kHost };

/// \brief Individual metadata (terminological part only).
struct IndInfo {
  IndKind kind = IndKind::kClassic;
  /// Name symbol; kNoSymbol for anonymous / host individuals.
  Symbol name = kNoSymbol;
  /// Host value; set for kHost only (boxed: a CLASSIC individual pays one
  /// pointer for it).
  std::unique_ptr<const HostValue> host;
  /// IndividualName(id) as a string literal, quoted and escaped exactly as
  /// sexpr::AppendQuoted writes it, so an answer copies it verbatim. Set
  /// once, before the id is published.
  std::string wire_name;
};

/// \brief Named schema concept.
struct ConceptInfo {
  Symbol name = kNoSymbol;
  /// The definition as written (for concept-aspect and printing).
  DescPtr source;
  /// Cached canonical normal form.
  NormalFormPtr normal_form;
};

/// \brief All name spaces of one database.
///
/// Thread-safety: schema mutations (DefineRole/DefineConcept/
/// CreateIndividual/RegisterTest) follow the database's single-writer
/// discipline. Since epoch publication went copy-on-write, ONE Vocabulary
/// object is shared by the master and every published snapshot (that is
/// what keeps Symbols/IndIds/NfIds consistent across epochs at zero
/// publish cost), so the single writer may run DDL *while* reader threads
/// serve queries from snapshots. Every store is therefore safe for
/// one-writer/many-reader use: entry storage is append-only StableVector
/// (stable addresses, release-published sizes; id-indexed reads are
/// lock-free) and every by-name directory lookup takes its store's
/// mutex. The interning caches (symbol table, primitive-atom pool,
/// host-value pool) additionally support concurrent *interning* from
/// reader threads, as before. Readers never see a half-defined entry:
/// ids are published only after the entry is complete.
class Vocabulary {
 public:
  Vocabulary();

  Vocabulary(const Vocabulary&) = delete;
  Vocabulary& operator=(const Vocabulary&) = delete;

  /// The symbol table is a logically-const interning cache: reading a
  /// description may intern new names without changing database meaning.
  SymbolTable& symbols() const { return symbols_; }

  // --- Roles -------------------------------------------------------------

  /// \brief Declares a role (paper: define-role). Fails with AlreadyExists
  /// if the name is taken; redeclaring with identical attributes is OK.
  Result<RoleId> DefineRole(std::string_view name, bool attribute = false);

  /// \brief Returns the role id for `name`, or NotFound.
  Result<RoleId> FindRole(Symbol name) const;

  const RoleInfo& role(RoleId id) const { return roles_[id]; }
  size_t num_roles() const { return roles_.size(); }

  // --- Atoms -------------------------------------------------------------

  /// \brief Interns the plain primitive atom with index `index`.
  /// Logically const (thread-safe): normalizing a query may reach this.
  AtomId PrimitiveAtom(Symbol index) const;

  /// \brief Interns the disjoint primitive atom (`group`, `index`).
  ///
  /// Atoms with equal group and different index are pairwise disjoint.
  /// Interning the same index under two different groups is an error.
  /// Logically const (thread-safe), like PrimitiveAtom.
  Result<AtomId> DisjointPrimitiveAtom(Symbol group, Symbol index) const;

  const AtomInfo& atom(AtomId id) const { return atoms_[id]; }
  size_t num_atoms() const { return atoms_.size(); }

  /// Built-in atoms.
  AtomId classic_thing_atom() const { return classic_thing_atom_; }
  AtomId host_thing_atom() const { return host_thing_atom_; }
  AtomId builtin_atom(BuiltinConcept b) const;

  /// \brief True if two atoms are declared disjoint (same group, different
  /// index).
  bool AtomsDisjoint(AtomId a, AtomId b) const;

  /// \brief True if atom `a` can apply to individual `i`.
  ///
  /// Built-in atoms are checked against the individual's intrinsic type.
  /// User atoms can never apply to host individuals (host individuals
  /// carry no assertions), and may apply to any CLASSIC individual.
  bool AtomCompatibleWithInd(AtomId a, IndId i) const;

  /// \brief Intrinsic atoms of an individual: {CLASSIC-THING} for regular
  /// individuals; the built-in type chain for host values (e.g. an int64
  /// yields {INTEGER, NUMBER, HOST-THING}).
  std::vector<AtomId> IntrinsicAtoms(IndId i) const;

  // --- Individuals -------------------------------------------------------

  /// \brief Creates a named CLASSIC individual (paper: create-ind).
  Result<IndId> CreateIndividual(std::string_view name);

  /// \brief Interns a host value as an individual (idempotent).
  /// Logically const (thread-safe): normalizing a query that mentions a
  /// literal interns it without changing database meaning.
  IndId InternHostValue(const HostValue& v) const;

  /// \brief Calls fn(id) for every interned host individual with id below
  /// `limit` (a bound read from num_individuals()), ascending. Lock-free:
  /// InternHostValue lists each id, in id order, before publishing it. A
  /// host value a snapshot reader interns is listed here though
  /// propagation never sees it.
  template <typename Fn>
  void ForEachHostIndividual(IndId limit, Fn&& fn) const {
    const size_t n = host_ids_.size();
    for (size_t k = 0; k < n && host_ids_[k] < limit; ++k) fn(host_ids_[k]);
  }

  /// \brief Looks up a named individual.
  Result<IndId> FindIndividual(Symbol name) const;

  const IndInfo& individual(IndId id) const { return inds_[id]; }
  size_t num_individuals() const { return inds_.size(); }

  /// \brief Display string for an individual (its name, or its host value,
  /// or an anonymous marker).
  std::string IndividualName(IndId id) const;

  // --- Named concepts ----------------------------------------------------

  /// \brief Registers a named concept with its normal form.
  Result<ConceptId> DefineConcept(Symbol name, DescPtr source,
                                  NormalFormPtr nf);

  Result<ConceptId> FindConcept(Symbol name) const;
  bool HasConcept(Symbol name) const;

  const ConceptInfo& concept_info(ConceptId id) const { return concepts_[id]; }
  size_t num_concepts() const { return concepts_.size(); }

  // --- Test functions ----------------------------------------------------

  /// \brief Registers a host test function under `name`.
  Result<Symbol> RegisterTest(std::string_view name, TestFn fn);

  /// \brief Returns the test function registered under `name`.
  Result<const TestFn*> FindTest(Symbol name) const;
  bool HasTest(Symbol name) const;

 private:
  /// Caller holds atom_mutex_ (or is the constructor / a copy).
  AtomId AddAtom(AtomInfo info) const;

  mutable SymbolTable symbols_;

  /// Role/concept storage is stable append-only so id-indexed accessors
  /// stay lock-free while the writer defines more; the name directories
  /// are mutex-guarded (snapshot queries resolve names while DDL runs).
  StableVector<RoleInfo> roles_;
  std::map<Symbol, RoleId> role_by_name_;
  mutable std::mutex role_mutex_;

  /// Atom storage is stable and its directory maps are guarded:
  /// PrimitiveAtom / DisjointPrimitiveAtom are reachable from read-only
  /// query normalization on a shared snapshot.
  mutable StableVector<AtomInfo> atoms_;
  mutable std::map<Symbol, AtomId> plain_atom_by_index_;
  mutable std::map<std::pair<Symbol, Symbol>, AtomId> disjoint_atom_by_key_;
  mutable std::map<Symbol, Symbol> group_of_index_;
  mutable std::mutex atom_mutex_;

  /// Same story for individuals: host-value interning is reachable from
  /// query normalization, and with a shared vocabulary the by-name
  /// directory is read by snapshot queries while the writer creates
  /// individuals — so FindIndividual locks too.
  mutable StableVector<IndInfo> inds_;
  std::map<Symbol, IndId> ind_by_name_;
  mutable std::map<HostValue, IndId> host_ind_by_value_;
  /// The ids of host individuals, ascending (appended under ind_mutex_).
  mutable StableVector<IndId> host_ids_;
  mutable std::mutex ind_mutex_;

  StableVector<ConceptInfo> concepts_;
  std::map<Symbol, ConceptId> concept_by_name_;
  mutable std::mutex concept_mutex_;

  /// Node-based map: TestFn addresses handed out by FindTest stay valid
  /// while the writer registers more tests.
  std::map<Symbol, TestFn> tests_;
  mutable std::mutex test_mutex_;

  AtomId classic_thing_atom_ = kNoId;
  AtomId host_thing_atom_ = kNoId;
  AtomId integer_atom_ = kNoId;
  AtomId real_atom_ = kNoId;
  AtomId number_atom_ = kNoId;
  AtomId string_atom_ = kNoId;
  AtomId boolean_atom_ = kNoId;
};

}  // namespace classic
