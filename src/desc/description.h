// The description AST: CLASSIC's language of structured concepts.
//
// Grammar (paper, Appendix A), with one constructor per node kind:
//
//   <concept> ::= THING | CLASSIC-THING | HOST-THING
//               | <concept-name>
//               | (PRIMITIVE <concept> <index>)
//               | (DISJOINT-PRIMITIVE <concept> <group> <index>)
//               | (ONE-OF <ind>...)
//               | (ALL <role> <concept>)
//               | (AT-LEAST <n> <role>) | (AT-MOST <n> <role>)
//               | (SAME-AS (<attr>...) (<attr>...))
//               | (FILLS <role> <ind>...)
//               | (TEST <fn-name>)
//               | (AND <concept>...)
//
//   <ind-expression> additionally allows (CLOSE <role>).
//
// Descriptions are immutable trees shared by shared_ptr. Names (concepts,
// roles, individuals, primitive indices, test functions) are kept as
// interned Symbols and resolved against a Vocabulary at normalization time.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "desc/host_value.h"
#include "desc/ids.h"
#include "util/intern.h"
#include "util/status.h"

namespace classic {

class Description;
using DescPtr = std::shared_ptr<const Description>;

/// \brief Reference to an individual inside a description: either a named
/// CLASSIC individual or a host value. Resolved to an IndId at
/// normalization time.
///
/// Most references are names, so a host literal lives behind a pointer
/// and a reference takes 24 bytes, not a HostValue's 40 plus a tag.
class IndRef {
 public:
  static IndRef Named(Symbol s) {
    IndRef r;
    r.name_ = s;
    return r;
  }
  static IndRef Host(HostValue v) {
    IndRef r;
    r.host_ = std::make_shared<const HostValue>(std::move(v));
    return r;
  }

  bool is_named() const { return host_ == nullptr; }
  Symbol name() const { return name_; }
  const HostValue& host() const { return *host_; }

  bool operator==(const IndRef& other) const {
    if (is_named() != other.is_named()) return false;
    return is_named() ? name_ == other.name_ : *host_ == *other.host_;
  }

 private:
  Symbol name_ = kNoSymbol;
  std::shared_ptr<const HostValue> host_;
};

enum class DescKind : uint8_t {
  kThing,              // the universal concept
  kNothing,            // the bottom (incoherent) concept, printed NOTHING
  kClassicThing,       // all regular CLASSIC individuals
  kHostThing,          // all host individuals
  kBuiltin,            // built-in host concepts: INTEGER, REAL, NUMBER, ...
  kConceptName,        // reference to a named schema concept
  kPrimitive,          // (PRIMITIVE parent index)
  kDisjointPrimitive,  // (DISJOINT-PRIMITIVE parent group index)
  kOneOf,              // (ONE-OF i1 ... in)
  kAll,                // (ALL role concept)
  kAtLeast,            // (AT-LEAST n role)
  kAtMost,             // (AT-MOST n role)
  kSameAs,             // (SAME-AS path1 path2)
  kFills,              // (FILLS role i1 ... in)
  kClose,              // (CLOSE role) -- individual expressions only
  kAnd,                // (AND c1 ... cn)
  kTest,               // (TEST fn-name)
};

/// Built-in host concepts (beyond HOST-THING itself).
enum class BuiltinConcept : uint8_t {
  kInteger,
  kReal,
  kNumber,
  kString,
  kBoolean,
};

/// \brief Returns the canonical surface name of a built-in concept.
const char* BuiltinConceptName(BuiltinConcept b);

/// \brief Immutable description node.
///
/// Construct with the static factory functions; they validate nothing
/// beyond shape (semantic validation happens during normalization, against
/// a Vocabulary).
///
/// A node is sized for the kinds it serves: the scalar fields, then one
/// payload holding whichever of child, conjuncts, members or SAME-AS paths
/// its kind uses (56 bytes; 72 with make_shared's control block). A parsed
/// assertion such as (AT-MOST 6 r) is one such node, and the base log
/// keeps one per told assertion.
class Description {
 public:
  static DescPtr Thing();
  static DescPtr Nothing();
  static DescPtr ClassicThing();
  static DescPtr HostThing();
  static DescPtr Builtin(BuiltinConcept b);
  static DescPtr ConceptName(Symbol name);
  static DescPtr Primitive(DescPtr parent, Symbol index);
  static DescPtr DisjointPrimitive(DescPtr parent, Symbol group, Symbol index);
  static DescPtr OneOf(std::vector<IndRef> members);
  static DescPtr All(Symbol role, DescPtr restriction);
  static DescPtr AtLeast(uint32_t n, Symbol role);
  static DescPtr AtMost(uint32_t n, Symbol role);
  static DescPtr SameAs(std::vector<Symbol> path1, std::vector<Symbol> path2);
  static DescPtr Fills(Symbol role, std::vector<IndRef> fillers);
  static DescPtr Close(Symbol role);
  static DescPtr And(std::vector<DescPtr> conjuncts);
  static DescPtr Test(Symbol fn);

  DescKind kind() const { return kind_; }

  /// Role name; valid for kAll / kAtLeast / kAtMost / kFills / kClose.
  Symbol role() const { return role_; }
  /// Cardinality bound; valid for kAtLeast / kAtMost.
  uint32_t bound() const { return kind_ == DescKind::kSameAs ? 0 : bound_; }
  /// Concept / index / group / test-fn name, depending on kind.
  Symbol name() const { return name_; }
  Symbol group() const { return group_; }
  BuiltinConcept builtin() const { return builtin_; }

  /// Parent description (kPrimitive / kDisjointPrimitive) or ALL
  /// restriction (kAll); null for every other kind.
  const DescPtr& child() const {
    const DescPtr* c = std::get_if<DescPtr>(&payload_);
    return c != nullptr ? *c : kNoChild;
  }
  /// Conjuncts; valid for kAnd, empty otherwise.
  const std::vector<DescPtr>& conjuncts() const {
    const auto* c = std::get_if<std::vector<DescPtr>>(&payload_);
    return c != nullptr ? *c : kNoConjuncts;
  }
  /// Enumeration members / fillers; valid for kOneOf / kFills, empty
  /// otherwise.
  const std::vector<IndRef>& members() const {
    const auto* m = std::get_if<std::vector<IndRef>>(&payload_);
    return m != nullptr ? *m : kNoMembers;
  }
  /// SAME-AS paths (role name symbols); valid for kSameAs, empty
  /// otherwise. Both live in one vector, path1 first.
  std::span<const Symbol> path1() const {
    const auto* p = std::get_if<std::vector<Symbol>>(&payload_);
    return p != nullptr ? std::span<const Symbol>(*p).first(bound_)
                        : std::span<const Symbol>();
  }
  std::span<const Symbol> path2() const {
    const auto* p = std::get_if<std::vector<Symbol>>(&payload_);
    return p != nullptr ? std::span<const Symbol>(*p).subspan(bound_)
                        : std::span<const Symbol>();
  }

  /// \brief Size of the expression tree (number of constructor
  /// applications); the measure in the paper's "time proportional to the
  /// sizes of the two concepts".
  size_t TreeSize() const;

  /// \brief Renders to concrete syntax using `symbols` for names.
  std::string ToString(const SymbolTable& symbols) const;
  /// \brief ToString, appended to `*out`: one buffer for the whole tree.
  void AppendTo(const SymbolTable& symbols, std::string* out) const;

 protected:
  explicit Description(DescKind kind) : kind_(kind) {}

 private:
  static const DescPtr kNoChild;
  static const std::vector<DescPtr> kNoConjuncts;
  static const std::vector<IndRef> kNoMembers;

  DescKind kind_;
  BuiltinConcept builtin_ = BuiltinConcept::kInteger;
  Symbol role_ = kNoSymbol;
  uint32_t bound_ = 0;  // kAtLeast / kAtMost: n; kSameAs: path1's length
  Symbol name_ = kNoSymbol;
  Symbol group_ = kNoSymbol;
  std::variant<std::monostate, DescPtr, std::vector<DescPtr>,
               std::vector<IndRef>, std::vector<Symbol>>
      payload_;
};

}  // namespace classic
