#include "desc/description.h"

#include "util/string_util.h"

namespace classic {

// Every node of a parsed knowledge base is one of these, so a byte here is
// a byte per told assertion.
static_assert(sizeof(Description) <= 56);

const DescPtr Description::kNoChild;
const std::vector<DescPtr> Description::kNoConjuncts;
const std::vector<IndRef> Description::kNoMembers;

namespace {
DescPtr Make(DescKind kind) {
  struct Access : Description {
    explicit Access(DescKind k) : Description(k) {}
  };
  return std::make_shared<Access>(kind);
}

Description* Mutable(const DescPtr& p) {
  return const_cast<Description*>(p.get());
}
}  // namespace

const char* BuiltinConceptName(BuiltinConcept b) {
  switch (b) {
    case BuiltinConcept::kInteger:
      return "INTEGER";
    case BuiltinConcept::kReal:
      return "REAL";
    case BuiltinConcept::kNumber:
      return "NUMBER";
    case BuiltinConcept::kString:
      return "STRING";
    case BuiltinConcept::kBoolean:
      return "BOOLEAN";
  }
  return "?";
}

DescPtr Description::Thing() { return Make(DescKind::kThing); }
DescPtr Description::Nothing() { return Make(DescKind::kNothing); }
DescPtr Description::ClassicThing() { return Make(DescKind::kClassicThing); }
DescPtr Description::HostThing() { return Make(DescKind::kHostThing); }

DescPtr Description::Builtin(BuiltinConcept b) {
  DescPtr p = Make(DescKind::kBuiltin);
  Mutable(p)->builtin_ = b;
  return p;
}

DescPtr Description::ConceptName(Symbol name) {
  DescPtr p = Make(DescKind::kConceptName);
  Mutable(p)->name_ = name;
  return p;
}

DescPtr Description::Primitive(DescPtr parent, Symbol index) {
  DescPtr p = Make(DescKind::kPrimitive);
  Mutable(p)->payload_ = std::move(parent);
  Mutable(p)->name_ = index;
  return p;
}

DescPtr Description::DisjointPrimitive(DescPtr parent, Symbol group,
                                       Symbol index) {
  DescPtr p = Make(DescKind::kDisjointPrimitive);
  Mutable(p)->payload_ = std::move(parent);
  Mutable(p)->group_ = group;
  Mutable(p)->name_ = index;
  return p;
}

DescPtr Description::OneOf(std::vector<IndRef> members) {
  DescPtr p = Make(DescKind::kOneOf);
  Mutable(p)->payload_ = std::move(members);
  return p;
}

DescPtr Description::All(Symbol role, DescPtr restriction) {
  DescPtr p = Make(DescKind::kAll);
  Mutable(p)->role_ = role;
  Mutable(p)->payload_ = std::move(restriction);
  return p;
}

DescPtr Description::AtLeast(uint32_t n, Symbol role) {
  DescPtr p = Make(DescKind::kAtLeast);
  Mutable(p)->bound_ = n;
  Mutable(p)->role_ = role;
  return p;
}

DescPtr Description::AtMost(uint32_t n, Symbol role) {
  DescPtr p = Make(DescKind::kAtMost);
  Mutable(p)->bound_ = n;
  Mutable(p)->role_ = role;
  return p;
}

DescPtr Description::SameAs(std::vector<Symbol> path1,
                            std::vector<Symbol> path2) {
  DescPtr p = Make(DescKind::kSameAs);
  Mutable(p)->bound_ = static_cast<uint32_t>(path1.size());
  path1.insert(path1.end(), path2.begin(), path2.end());
  Mutable(p)->payload_ = std::move(path1);
  return p;
}

DescPtr Description::Fills(Symbol role, std::vector<IndRef> fillers) {
  DescPtr p = Make(DescKind::kFills);
  Mutable(p)->role_ = role;
  Mutable(p)->payload_ = std::move(fillers);
  return p;
}

DescPtr Description::Close(Symbol role) {
  DescPtr p = Make(DescKind::kClose);
  Mutable(p)->role_ = role;
  return p;
}

DescPtr Description::And(std::vector<DescPtr> conjuncts) {
  DescPtr p = Make(DescKind::kAnd);
  Mutable(p)->payload_ = std::move(conjuncts);
  return p;
}

DescPtr Description::Test(Symbol fn) {
  DescPtr p = Make(DescKind::kTest);
  Mutable(p)->name_ = fn;
  return p;
}

size_t Description::TreeSize() const {
  size_t n = 1;
  if (const DescPtr& c = child()) n += c->TreeSize();
  for (const auto& c : conjuncts()) n += c->TreeSize();
  n += members().size();
  n += path1().size() + path2().size();
  return n;
}

namespace {

void AppendIndRef(const IndRef& r, const SymbolTable& symbols,
                  std::string* out) {
  if (r.is_named()) {
    out->append(symbols.Name(r.name()));
  } else {
    out->append(r.host().ToString());
  }
}

void AppendPath(std::span<const Symbol> path, const SymbolTable& symbols,
                std::string* out) {
  out->push_back('(');
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out->push_back(' ');
    out->append(symbols.Name(path[i]));
  }
  out->push_back(')');
}

}  // namespace

std::string Description::ToString(const SymbolTable& symbols) const {
  std::string out;
  AppendTo(symbols, &out);
  return out;
}

void Description::AppendTo(const SymbolTable& symbols,
                           std::string* out) const {
  switch (kind_) {
    case DescKind::kThing:
      out->append("THING");
      return;
    case DescKind::kNothing:
      out->append("NOTHING");
      return;
    case DescKind::kClassicThing:
      out->append("CLASSIC-THING");
      return;
    case DescKind::kHostThing:
      out->append("HOST-THING");
      return;
    case DescKind::kBuiltin:
      out->append(BuiltinConceptName(builtin_));
      return;
    case DescKind::kConceptName:
      out->append(symbols.Name(name_));
      return;
    case DescKind::kPrimitive:
      out->append("(PRIMITIVE ");
      child()->AppendTo(symbols, out);
      out->push_back(' ');
      out->append(symbols.Name(name_));
      out->push_back(')');
      return;
    case DescKind::kDisjointPrimitive:
      out->append("(DISJOINT-PRIMITIVE ");
      child()->AppendTo(symbols, out);
      out->push_back(' ');
      out->append(symbols.Name(group_));
      out->push_back(' ');
      out->append(symbols.Name(name_));
      out->push_back(')');
      return;
    case DescKind::kOneOf:
      out->append("(ONE-OF");
      for (const auto& m : members()) {
        out->push_back(' ');
        AppendIndRef(m, symbols, out);
      }
      out->push_back(')');
      return;
    case DescKind::kAll:
      out->append("(ALL ");
      out->append(symbols.Name(role_));
      out->push_back(' ');
      child()->AppendTo(symbols, out);
      out->push_back(')');
      return;
    case DescKind::kAtLeast:
    case DescKind::kAtMost:
      out->append(kind_ == DescKind::kAtLeast ? "(AT-LEAST " : "(AT-MOST ");
      AppendInteger(bound_, out);
      out->push_back(' ');
      out->append(symbols.Name(role_));
      out->push_back(')');
      return;
    case DescKind::kSameAs:
      out->append("(SAME-AS ");
      AppendPath(path1(), symbols, out);
      out->push_back(' ');
      AppendPath(path2(), symbols, out);
      out->push_back(')');
      return;
    case DescKind::kFills:
      out->append("(FILLS ");
      out->append(symbols.Name(role_));
      for (const auto& m : members()) {
        out->push_back(' ');
        AppendIndRef(m, symbols, out);
      }
      out->push_back(')');
      return;
    case DescKind::kClose:
      out->append("(CLOSE ");
      out->append(symbols.Name(role_));
      out->push_back(')');
      return;
    case DescKind::kAnd:
      out->append("(AND");
      for (const auto& c : conjuncts()) {
        out->push_back(' ');
        c->AppendTo(symbols, out);
      }
      out->push_back(')');
      return;
    case DescKind::kTest:
      out->append("(TEST ");
      out->append(symbols.Name(name_));
      out->push_back(')');
      return;
  }
  out->push_back('?');
}

}  // namespace classic
