#include "desc/parser.h"

#include "util/string_util.h"

namespace classic {

namespace {

Status Arity(const sexpr::Value& v, size_t min, size_t max,
             const char* form) {
  size_t args = v.size() - 1;
  if (args < min || args > max) {
    return Status::InvalidArgument(StrCat("bad arity for ", form, ": ",
                                          v.ToString(),
                                          sexpr::LocationSuffix(v)));
  }
  return Status::OK();
}

Result<uint32_t> ParseBound(const sexpr::Value& v, const char* form) {
  if (!v.IsInteger() || v.integer() < 0) {
    return Status::InvalidArgument(
        StrCat(form, " expects a non-negative integer bound, got ",
               v.ToString(), sexpr::LocationSuffix(v)));
  }
  return static_cast<uint32_t>(v.integer());
}

Result<Symbol> ParseName(const sexpr::Value& v, SymbolTable* symbols,
                         const char* what) {
  if (!v.IsSymbol()) {
    return Status::InvalidArgument(StrCat("expected ", what, ", got ",
                                          v.ToString(),
                                          sexpr::LocationSuffix(v)));
  }
  return symbols->Intern(v.text());
}

Result<std::vector<Symbol>> ParsePath(const sexpr::Value& v,
                                      SymbolTable* symbols) {
  if (!v.IsList() || v.size() == 0) {
    return Status::InvalidArgument(
        StrCat("SAME-AS path must be a non-empty list of roles, got ",
               v.ToString(), sexpr::LocationSuffix(v)));
  }
  std::vector<Symbol> path;
  for (const auto& item : v.items()) {
    CLASSIC_ASSIGN_OR_RETURN(Symbol s, ParseName(item, symbols, "role name"));
    path.push_back(s);
  }
  return path;
}

}  // namespace

Result<IndRef> ParseIndRef(const sexpr::Value& v, SymbolTable* symbols) {
  switch (v.kind()) {
    case sexpr::Kind::kInteger:
      return IndRef::Host(HostValue::Integer(v.integer()));
    case sexpr::Kind::kReal:
      return IndRef::Host(HostValue::Real(v.real()));
    case sexpr::Kind::kString:
      return IndRef::Host(HostValue::String(v.text()));
    case sexpr::Kind::kSymbol:
      if (v.text() == "#t") return IndRef::Host(HostValue::Boolean(true));
      if (v.text() == "#f") return IndRef::Host(HostValue::Boolean(false));
      return IndRef::Named(symbols->Intern(v.text()));
    case sexpr::Kind::kList:
      return Status::InvalidArgument(
          StrCat("expected an individual, got a list: ", v.ToString(),
                 sexpr::LocationSuffix(v)));
  }
  return Status::Internal("unhandled sexpr kind");
}

Result<DescPtr> ParseDescription(const sexpr::Value& v,
                                 SymbolTable* symbols) {
  if (v.IsSymbol()) {
    const std::string& name = v.text();
    if (name == "THING") return Description::Thing();
    if (name == "NOTHING") return Description::Nothing();
    if (name == "CLASSIC-THING") return Description::ClassicThing();
    if (name == "HOST-THING") return Description::HostThing();
    if (name == "INTEGER")
      return Description::Builtin(BuiltinConcept::kInteger);
    if (name == "REAL") return Description::Builtin(BuiltinConcept::kReal);
    if (name == "NUMBER")
      return Description::Builtin(BuiltinConcept::kNumber);
    if (name == "STRING")
      return Description::Builtin(BuiltinConcept::kString);
    if (name == "BOOLEAN")
      return Description::Builtin(BuiltinConcept::kBoolean);
    return Description::ConceptName(symbols->Intern(name));
  }
  if (!v.IsList() || v.size() == 0 || !v.at(0).IsSymbol()) {
    return Status::InvalidArgument(StrCat("not a concept expression: ",
                                          v.ToString(),
                                          sexpr::LocationSuffix(v)));
  }
  const std::string& head = v.at(0).text();

  if (head == "PRIMITIVE") {
    CLASSIC_RETURN_NOT_OK(Arity(v, 2, 2, "PRIMITIVE"));
    CLASSIC_ASSIGN_OR_RETURN(DescPtr parent,
                             ParseDescription(v.at(1), symbols));
    CLASSIC_ASSIGN_OR_RETURN(Symbol index,
                             ParseName(v.at(2), symbols, "primitive index"));
    return Description::Primitive(std::move(parent), index);
  }

  if (head == "DISJOINT-PRIMITIVE") {
    CLASSIC_RETURN_NOT_OK(Arity(v, 3, 3, "DISJOINT-PRIMITIVE"));
    CLASSIC_ASSIGN_OR_RETURN(DescPtr parent,
                             ParseDescription(v.at(1), symbols));
    CLASSIC_ASSIGN_OR_RETURN(Symbol group,
                             ParseName(v.at(2), symbols, "grouping name"));
    CLASSIC_ASSIGN_OR_RETURN(Symbol index,
                             ParseName(v.at(3), symbols, "primitive index"));
    return Description::DisjointPrimitive(std::move(parent), group, index);
  }

  if (head == "ONE-OF") {
    std::vector<IndRef> members;
    members.reserve(v.size() - 1);
    for (size_t i = 1; i < v.size(); ++i) {
      CLASSIC_ASSIGN_OR_RETURN(IndRef ref, ParseIndRef(v.at(i), symbols));
      members.push_back(std::move(ref));
    }
    return Description::OneOf(std::move(members));
  }

  if (head == "ALL") {
    CLASSIC_RETURN_NOT_OK(Arity(v, 2, 2, "ALL"));
    CLASSIC_ASSIGN_OR_RETURN(Symbol role,
                             ParseName(v.at(1), symbols, "role name"));
    CLASSIC_ASSIGN_OR_RETURN(DescPtr c, ParseDescription(v.at(2), symbols));
    return Description::All(role, std::move(c));
  }

  if (head == "AT-LEAST" || head == "AT-MOST") {
    CLASSIC_RETURN_NOT_OK(Arity(v, 2, 2, head.c_str()));
    CLASSIC_ASSIGN_OR_RETURN(uint32_t n, ParseBound(v.at(1), head.c_str()));
    CLASSIC_ASSIGN_OR_RETURN(Symbol role,
                             ParseName(v.at(2), symbols, "role name"));
    return head == "AT-LEAST" ? Description::AtLeast(n, role)
                              : Description::AtMost(n, role);
  }

  if (head == "SAME-AS") {
    CLASSIC_RETURN_NOT_OK(Arity(v, 2, 2, "SAME-AS"));
    CLASSIC_ASSIGN_OR_RETURN(std::vector<Symbol> p1,
                             ParsePath(v.at(1), symbols));
    CLASSIC_ASSIGN_OR_RETURN(std::vector<Symbol> p2,
                             ParsePath(v.at(2), symbols));
    return Description::SameAs(std::move(p1), std::move(p2));
  }

  if (head == "FILLS") {
    if (v.size() < 3) {
      return Status::InvalidArgument(
          StrCat("FILLS needs a role and at least one filler: ", v.ToString(),
                 sexpr::LocationSuffix(v)));
    }
    CLASSIC_ASSIGN_OR_RETURN(Symbol role,
                             ParseName(v.at(1), symbols, "role name"));
    std::vector<IndRef> fillers;
    fillers.reserve(v.size() - 2);
    for (size_t i = 2; i < v.size(); ++i) {
      CLASSIC_ASSIGN_OR_RETURN(IndRef ref, ParseIndRef(v.at(i), symbols));
      fillers.push_back(std::move(ref));
    }
    return Description::Fills(role, std::move(fillers));
  }

  if (head == "CLOSE") {
    CLASSIC_RETURN_NOT_OK(Arity(v, 1, 1, "CLOSE"));
    CLASSIC_ASSIGN_OR_RETURN(Symbol role,
                             ParseName(v.at(1), symbols, "role name"));
    return Description::Close(role);
  }

  if (head == "AND") {
    std::vector<DescPtr> conjuncts;
    conjuncts.reserve(v.size() - 1);
    for (size_t i = 1; i < v.size(); ++i) {
      CLASSIC_ASSIGN_OR_RETURN(DescPtr c, ParseDescription(v.at(i), symbols));
      conjuncts.push_back(std::move(c));
    }
    if (conjuncts.empty()) return Description::Thing();
    if (conjuncts.size() == 1) return conjuncts[0];
    return Description::And(std::move(conjuncts));
  }

  if (head == "TEST") {
    CLASSIC_RETURN_NOT_OK(Arity(v, 1, 1, "TEST"));
    CLASSIC_ASSIGN_OR_RETURN(
        Symbol fn, ParseName(v.at(1), symbols, "test function name"));
    return Description::Test(fn);
  }

  // Macros (the paper's planned syntactic-extension facility).
  if (head == "EXACTLY") {
    CLASSIC_RETURN_NOT_OK(Arity(v, 2, 2, "EXACTLY"));
    CLASSIC_ASSIGN_OR_RETURN(uint32_t n, ParseBound(v.at(1), "EXACTLY"));
    CLASSIC_ASSIGN_OR_RETURN(Symbol role,
                             ParseName(v.at(2), symbols, "role name"));
    return Description::And(
        {Description::AtLeast(n, role), Description::AtMost(n, role)});
  }
  if (head == "EXACTLY-ONE") {
    CLASSIC_RETURN_NOT_OK(Arity(v, 1, 1, "EXACTLY-ONE"));
    CLASSIC_ASSIGN_OR_RETURN(Symbol role,
                             ParseName(v.at(1), symbols, "role name"));
    return Description::And(
        {Description::AtLeast(1, role), Description::AtMost(1, role)});
  }

  return Status::InvalidArgument(StrCat("unknown constructor: ", head,
                                        sexpr::LocationSuffix(v)));
}

Result<DescPtr> ParseDescriptionString(const std::string& text,
                                       SymbolTable* symbols) {
  CLASSIC_ASSIGN_OR_RETURN(sexpr::Value v, sexpr::Parse(text));
  return ParseDescription(v, symbols);
}

}  // namespace classic
