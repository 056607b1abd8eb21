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
struct IndRef {
  std::variant<Symbol, HostValue> ref;

  static IndRef Named(Symbol s) { return IndRef{s}; }
  static IndRef Host(HostValue v) { return IndRef{std::move(v)}; }

  bool is_named() const { return std::holds_alternative<Symbol>(ref); }
  Symbol name() const { return std::get<Symbol>(ref); }
  const HostValue& host() const { return std::get<HostValue>(ref); }

  bool operator==(const IndRef& other) const { return ref == other.ref; }
};

enum class DescKind {
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
enum class BuiltinConcept {
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
  uint32_t bound() const { return bound_; }
  /// Concept / index / group / test-fn name, depending on kind.
  Symbol name() const { return name_; }
  Symbol group() const { return group_; }
  BuiltinConcept builtin() const { return builtin_; }

  /// Parent description (kPrimitive / kDisjointPrimitive) or ALL
  /// restriction (kAll).
  const DescPtr& child() const { return child_; }
  /// Conjuncts; valid for kAnd.
  const std::vector<DescPtr>& conjuncts() const { return conjuncts_; }
  /// Enumeration members / fillers; valid for kOneOf / kFills.
  const std::vector<IndRef>& members() const { return members_; }
  /// SAME-AS paths (role name symbols); valid for kSameAs.
  const std::vector<Symbol>& path1() const { return path1_; }
  const std::vector<Symbol>& path2() const { return path2_; }

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

  DescKind kind_;
  Symbol role_ = kNoSymbol;
  uint32_t bound_ = 0;
  Symbol name_ = kNoSymbol;
  Symbol group_ = kNoSymbol;
  BuiltinConcept builtin_ = BuiltinConcept::kInteger;
  DescPtr child_;
  std::vector<DescPtr> conjuncts_;
  std::vector<IndRef> members_;
  std::vector<Symbol> path1_;
  std::vector<Symbol> path2_;
};

}  // namespace classic
