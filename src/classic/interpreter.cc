#include "classic/interpreter.h"

#include <fstream>
#include <sstream>

#include "desc/parser.h"
#include "kb/explain.h"
#include "obs/registry.h"
#include "relational/relational.h"
#include "query/taxonomy_printer.h"
#include "storage/log.h"
#include "util/string_util.h"

namespace classic {

namespace {

Result<std::string> SymbolArg(const sexpr::Value& op, size_t i,
                              const char* what) {
  if (op.size() <= i || !op.at(i).IsSymbol()) {
    return Status::InvalidArgument(
        StrCat("expected ", what, " in ", op.ToString()));
  }
  return op.at(i).text();
}

std::string FormatNames(const std::vector<std::string>& names) {
  if (names.empty()) return "()";
  return "(" + Join(names, " ") + ")";
}

std::string Rest(const sexpr::Value& op, size_t from) {
  // Renders arguments from index `from` as one expression string
  // (queries may be a single form).
  std::string out;
  for (size_t i = from; i < op.size(); ++i) {
    if (i > from) out += ' ';
    out += op.at(i).ToString();
  }
  return out;
}

/// Renders a QueryAnswer the way the equivalent live interpreter op
/// would: descriptions joined by newlines, path-query rows
/// re-parenthesized, everything else as a name list.
std::string FormatAnswer(QueryRequest::Kind kind,
                         const std::vector<std::string>& values) {
  if (kind == QueryRequest::Kind::kAskDescription ||
      kind == QueryRequest::Kind::kDescribeIndividual) {
    return Join(values, "\n");
  }
  if (kind == QueryRequest::Kind::kPathQuery) {
    std::string out = "(";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ' ';
      out += "(" + values[i] + ")";
    }
    out += ")";
    return out;
  }
  return FormatNames(values);
}

}  // namespace

Result<std::string> Interpreter::Execute(const sexpr::Value& op) {
  if (!op.IsList() || op.size() == 0 || !op.at(0).IsSymbol()) {
    return Status::InvalidArgument(
        StrCat("not an operation: ", op.ToString()));
  }
  const std::string& head = op.at(0).text();

  if (head == "define-role" || head == "define-attribute") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "role name"));
    Status st = head == "define-role" ? db_->DefineRole(name)
                                      : db_->DefineAttribute(name);
    CLASSIC_RETURN_NOT_OK(st);
    return std::string("ok");
  }

  if (head == "define-concept") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "concept name"));
    if (op.size() != 3) {
      return Status::InvalidArgument(
          StrCat("define-concept needs a definition: ", op.ToString()));
    }
    CLASSIC_RETURN_NOT_OK(db_->DefineConcept(name, op.at(2).ToString()));
    return std::string("ok");
  }

  if (head == "assert-rule") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "antecedent concept"));
    if (op.size() != 3) {
      return Status::InvalidArgument(
          StrCat("assert-rule needs a consequent: ", op.ToString()));
    }
    CLASSIC_RETURN_NOT_OK(db_->AssertRule(name, op.at(2).ToString()));
    return std::string("ok");
  }

  if (head == "create-ind") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "individual name"));
    if (op.size() == 2) {
      CLASSIC_RETURN_NOT_OK(db_->CreateIndividual(name));
    } else if (op.size() == 3) {
      CLASSIC_RETURN_NOT_OK(
          db_->CreateIndividual(name, op.at(2).ToString()));
    } else {
      return Status::InvalidArgument(StrCat("bad create-ind: ",
                                            op.ToString()));
    }
    return std::string("ok");
  }

  if (head == "assert-ind" || head == "retract-ind") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "individual name"));
    if (op.size() != 3) {
      return Status::InvalidArgument(
          StrCat(head, " needs an expression: ", op.ToString()));
    }
    Status st = head == "assert-ind"
                    ? db_->AssertInd(name, op.at(2).ToString())
                    : db_->RetractInd(name, op.at(2).ToString());
    CLASSIC_RETURN_NOT_OK(st);
    return std::string("ok");
  }

  if (head == "summarize") {
    auto& symbols = db_->kb().vocab().symbols();
    CLASSIC_ASSIGN_OR_RETURN(Query q,
                             ParseQueryString(Rest(op, 1), &symbols));
    CLASSIC_ASSIGN_OR_RETURN(DescriptionAnswer a,
                             SummarizeExtension(db_->kb(), q));
    return a.description->ToString(symbols);
  }

  if (head == "subsumes" || head == "equivalent") {
    if (op.size() != 3) {
      return Status::InvalidArgument(
          StrCat(head, " needs two concepts: ", op.ToString()));
    }
    Result<bool> r = head == "subsumes"
                         ? db_->Subsumes(op.at(1).ToString(),
                                         op.at(2).ToString())
                         : db_->Equivalent(op.at(1).ToString(),
                                           op.at(2).ToString());
    CLASSIC_ASSIGN_OR_RETURN(bool b, std::move(r));
    return std::string(b ? "yes" : "no");
  }

  if (head == "coherent") {
    CLASSIC_ASSIGN_OR_RETURN(bool b, db_->Coherent(Rest(op, 1)));
    return std::string(b ? "yes" : "no");
  }

  if (head == "fillers") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "individual name"));
    CLASSIC_ASSIGN_OR_RETURN(std::string role, SymbolArg(op, 2, "role"));
    CLASSIC_ASSIGN_OR_RETURN(std::vector<std::string> names,
                             db_->Fillers(name, role));
    return FormatNames(names);
  }
  if (head == "closed?") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "individual name"));
    CLASSIC_ASSIGN_OR_RETURN(std::string role, SymbolArg(op, 2, "role"));
    CLASSIC_ASSIGN_OR_RETURN(bool b, db_->RoleClosed(name, role));
    return std::string(b ? "yes" : "no");
  }

  if (head == "parents" || head == "children" || head == "ancestors" ||
      head == "descendants") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "concept name"));
    Result<std::vector<std::string>> r =
        head == "parents"    ? db_->Parents(name)
        : head == "children" ? db_->Children(name)
        : head == "ancestors" ? db_->Ancestors(name)
                              : db_->Descendants(name);
    CLASSIC_ASSIGN_OR_RETURN(std::vector<std::string> names, std::move(r));
    return FormatNames(names);
  }

  if (head == "concept-aspect") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "concept name"));
    CLASSIC_ASSIGN_OR_RETURN(std::string aspect_name,
                             SymbolArg(op, 2, "aspect"));
    CLASSIC_ASSIGN_OR_RETURN(Aspect aspect, ParseAspect(aspect_name));
    const KnowledgeBase& kb = db_->kb();
    if (op.size() == 3) {
      if (aspect == Aspect::kOneOf) {
        CLASSIC_ASSIGN_OR_RETURN(auto e, ConceptEnumeration(kb, name));
        if (!e) return std::string("(no enumeration)");
        std::vector<std::string> names;
        for (IndId i : *e) names.push_back(kb.vocab().IndividualName(i));
        return FormatNames(names);
      }
      if (aspect == Aspect::kTest) {
        CLASSIC_ASSIGN_OR_RETURN(std::vector<std::string> tests,
                                 ConceptTests(kb, name));
        return FormatNames(tests);
      }
      if (aspect == Aspect::kSameAs) {
        CLASSIC_ASSIGN_OR_RETURN(std::vector<std::string> corefs,
                                 ConceptCorefs(kb, name));
        return FormatNames(corefs);
      }
      CLASSIC_ASSIGN_OR_RETURN(std::vector<std::string> roles,
                               ConceptRestrictedRoles(kb, name, aspect));
      return FormatNames(roles);
    }
    CLASSIC_ASSIGN_OR_RETURN(std::string role, SymbolArg(op, 3, "role"));
    switch (aspect) {
      case Aspect::kAll: {
        CLASSIC_ASSIGN_OR_RETURN(DescPtr d,
                                 ConceptValueRestriction(kb, name, role));
        return d->ToString(kb.vocab().symbols());
      }
      case Aspect::kAtLeast:
      case Aspect::kAtMost: {
        CLASSIC_ASSIGN_OR_RETURN(uint32_t n,
                                 ConceptBound(kb, name, aspect, role));
        if (n == kUnbounded) return std::string("unbounded");
        return std::to_string(n);
      }
      default:
        return Status::InvalidArgument(
            StrCat("aspect ", aspect_name, " takes no role argument"));
    }
  }

  if (head == "ind-aspect") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "individual name"));
    CLASSIC_ASSIGN_OR_RETURN(std::string aspect_name,
                             SymbolArg(op, 2, "aspect"));
    CLASSIC_ASSIGN_OR_RETURN(Aspect aspect, ParseAspect(aspect_name));
    CLASSIC_ASSIGN_OR_RETURN(std::string role, SymbolArg(op, 3, "role"));
    switch (aspect) {
      case Aspect::kFills: {
        CLASSIC_ASSIGN_OR_RETURN(std::vector<std::string> names,
                                 db_->Fillers(name, role));
        return FormatNames(names);
      }
      case Aspect::kClose: {
        CLASSIC_ASSIGN_OR_RETURN(bool b, db_->RoleClosed(name, role));
        return std::string(b ? "yes" : "no");
      }
      case Aspect::kAll: {
        CLASSIC_ASSIGN_OR_RETURN(IndId ind, db_->FindIndividual(name));
        CLASSIC_ASSIGN_OR_RETURN(DescPtr d,
                                 IndValueRestriction(db_->kb(), ind, role));
        return d->ToString(db_->kb().vocab().symbols());
      }
      default:
        return Status::InvalidArgument(
            StrCat("unsupported ind-aspect: ", aspect_name));
    }
  }

  if (head == "stats") {
    const KbStats& s = db_->kb().stats();
    return StrCat("propagation-steps=", s.propagation_steps,
                  " rule-firings=", s.rule_firings,
                  " realizations=", s.realizations,
                  " rejected-updates=", s.rejected_updates,
                  " concepts=", db_->kb().vocab().num_concepts(),
                  " individuals=", db_->kb().vocab().num_individuals(),
                  " rules=", db_->kb().rules().size());
  }

  if (head == "metrics") {
    // Process-wide inference metrics (obs registry), as the text table.
    return obs::SnapshotMetrics().ToText();
  }

  if (head == "subsumed-concepts" || head == "subsuming-concepts") {
    if (op.size() != 2) {
      return Status::InvalidArgument(
          StrCat(head, " needs one concept expression"));
    }
    auto d = ParseDescriptionString(op.at(1).ToString(),
                                    &db_->kb().vocab().symbols());
    if (!d.ok()) return d.status();
    Result<std::vector<std::string>> r =
        head == "subsumed-concepts"
            ? NamedConceptsSubsumedBy(db_->kb(), *d)
            : NamedConceptsSubsuming(db_->kb(), *d);
    CLASSIC_ASSIGN_OR_RETURN(std::vector<std::string> names, std::move(r));
    return FormatNames(names);
  }

  if (head == "describe-told") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "individual name"));
    CLASSIC_ASSIGN_OR_RETURN(IndId ind, db_->FindIndividual(name));
    CLASSIC_ASSIGN_OR_RETURN(DescPtr d, IndTold(db_->kb(), ind));
    return d->ToString(db_->kb().vocab().symbols());
  }

  if (head == "taxonomy") {
    return RenderTaxonomyTree(db_->kb());
  }
  if (head == "taxonomy-dot") {
    return RenderTaxonomyDot(db_->kb());
  }

  if (head == "why") {
    // (why IndName <concept>) — explain the instance judgment.
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(op, 1, "individual name"));
    if (op.size() != 3) {
      return Status::InvalidArgument("why needs an individual and a concept");
    }
    CLASSIC_ASSIGN_OR_RETURN(IndId ind, db_->FindIndividual(name));
    auto d = ParseDescriptionString(op.at(2).ToString(),
                                    &db_->kb().vocab().symbols());
    if (!d.ok()) return d.status();
    CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr nf,
                             db_->kb().normalizer().NormalizeConcept(*d));
    return ExplainSatisfies(db_->kb(), ind, *nf).ToString();
  }

  if (head == "why-subsumes") {
    if (op.size() != 3) {
      return Status::InvalidArgument("why-subsumes needs two concepts");
    }
    auto& symbols = db_->kb().vocab().symbols();
    auto d1 = ParseDescriptionString(op.at(1).ToString(), &symbols);
    auto d2 = ParseDescriptionString(op.at(2).ToString(), &symbols);
    if (!d1.ok()) return d1.status();
    if (!d2.ok()) return d2.status();
    CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr n1,
                             db_->kb().normalizer().NormalizeConcept(*d1));
    CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr n2,
                             db_->kb().normalizer().NormalizeConcept(*d2));
    return ExplainSubsumes(db_->kb(), *n1, *n2).ToString();
  }

  if (head == "export-csv") {
    if (op.size() != 2 || !op.at(1).IsString()) {
      return Status::InvalidArgument("export-csv needs a directory string");
    }
    auto view = relational::BuildRelationalView(db_->kb());
    CLASSIC_RETURN_NOT_OK(relational::WriteCsv(view, op.at(1).text()));
    return StrCat("wrote ", view.roles.size() + view.concepts.size(),
                  " relations (", view.total_tuples(), " tuples)");
  }

  if (head == "save-snapshot") {
    if (op.size() != 2 || !op.at(1).IsString()) {
      return Status::InvalidArgument("save-snapshot needs a path string");
    }
    CLASSIC_RETURN_NOT_OK(db_->SaveSnapshot(op.at(1).text()));
    return std::string("ok");
  }
  if (head == "checkpoint") {
    if (op.size() != 2 || !op.at(1).IsString()) {
      return Status::InvalidArgument("checkpoint needs a snapshot path");
    }
    CLASSIC_RETURN_NOT_OK(db_->Checkpoint(op.at(1).text()));
    return std::string("ok");
  }
  if (head == "load") {
    if (op.size() != 2 || !op.at(1).IsString()) {
      return Status::InvalidArgument("load needs a path string");
    }
    CLASSIC_RETURN_NOT_OK(db_->LoadFile(op.at(1).text()));
    return std::string("ok");
  }

  if (head == "publish") {
    CLASSIC_ASSIGN_OR_RETURN(uint64_t epoch, TheSession().Publish(db_->kb()));
    return StrCat("epoch ", epoch);
  }

  if (head == "epochs") {
    if (session_ == nullptr) return std::string("()");
    std::vector<std::string> names;
    for (uint64_t e : session_->RetainedEpochs()) {
      names.push_back(StrCat(e));
    }
    return FormatNames(names);
  }

  // Every read form is served by one path: Session::RequestFromForm
  // parses it (the wire's parser), KbEngine::ServeQuery answers it (the
  // wire's dispatch), FormatAnswer prints it. (as-of E F) is F routed to
  // retained epoch E. This branch comes after every writer and
  // introspection head, so replaying a program (Database::LoadFile)
  // never builds a read request for them.
  const bool as_of = head == "as-of";
  if (as_of && (op.size() != 3 || !op.at(1).IsInteger())) {
    return Status::InvalidArgument(
        StrCat("as-of needs an epoch number and a query form: ",
               op.ToString()));
  }
  CLASSIC_ASSIGN_OR_RETURN(QueryRequest req,
                           Session::RequestFromForm(as_of ? op.at(2) : op));
  if (as_of) {
    if (op.at(1).integer() <= 0) {
      return Status::NotFound(StrCat("epoch ", op.at(1).integer(),
                                     " is not retained; see (epochs)"));
    }
    req.as_of_epoch = static_cast<uint64_t>(op.at(1).integer());
  }
  QueryAnswer ans;
  if (req.as_of_epoch == 0) {
    // The live database: ServeQuery is a pure read, so this works before
    // any (publish).
    ans = KbEngine::ServeQuery(db_->kb(), req);
  } else if (session_ == nullptr) {
    return Status::NotFound("no epoch published yet; run (publish) first");
  } else {
    ans = session_->Serve(req);
  }
  CLASSIC_RETURN_NOT_OK(ans.status);
  if (!req.explain) return FormatAnswer(req.kind, ans.values);
  // values[0] is the rendered plan; the rest is the ordinary answer.
  std::vector<std::string> rest(ans.values.begin() + 1, ans.values.end());
  return StrCat(ans.values[0], "\n", FormatAnswer(req.kind, rest));
}

Session& Interpreter::TheSession() {
  if (session_ == nullptr) {
    engine_ = std::make_unique<KbEngine>(KbEngine::Options{.num_threads = 1});
    session_ = std::make_unique<Session>(engine_.get());
  }
  return *session_;
}

Result<std::string> Interpreter::ExecuteString(const std::string& text) {
  CLASSIC_ASSIGN_OR_RETURN(sexpr::Value v, sexpr::Parse(text));
  return Execute(v);
}

Result<std::vector<std::string>> Interpreter::ExecuteProgram(
    const std::string& text) {
  CLASSIC_ASSIGN_OR_RETURN(std::vector<sexpr::Value> forms,
                           sexpr::ParseAll(text));
  std::vector<std::string> out;
  for (const auto& form : forms) {
    CLASSIC_ASSIGN_OR_RETURN(std::string result, Execute(form));
    out.push_back(std::move(result));
  }
  return out;
}

Status Database::LoadFile(const std::string& path) {
  CLASSIC_ASSIGN_OR_RETURN(std::string text, storage::ReadFileText(path));
  // The reader checks the whole text before the first form runs, so a
  // syntax error anywhere applies nothing. The forms are then read again
  // and applied one at a time: only one form's tree is alive at once.
  CLASSIC_RETURN_NOT_OK(
      sexpr::ForEachForm(text, [](sexpr::Value) { return Status::OK(); }));
  Interpreter interp(this);
  replaying_ = true;
  Status st = sexpr::ForEachForm(text, [&](sexpr::Value op) {
    auto r = interp.Execute(op);
    if (r.ok()) return Status::OK();
    return r.status().WithContext(
        StrCat("replaying ", path, " at: ", op.ToString()));
  });
  replaying_ = false;
  return st;
}

}  // namespace classic
