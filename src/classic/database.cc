#include "classic/database.h"

#include "desc/parser.h"
#include "kb/explain.h"
#include "kb/kb_engine.h"
#include "storage/snapshot.h"
#include "util/string_util.h"

namespace classic {

Database::Database() = default;

Result<DescPtr> Database::Parse(const std::string& text) const {
  auto& symbols = kb_.vocab().symbols();
  return ParseDescriptionString(text, &symbols);
}

Status Database::LogOp(const std::string& line) {
  if (replaying_ || !log_.is_open()) return Status::OK();
  // A failing disk must not corrupt the in-memory DB (which stays
  // authoritative), but it must be *reported*: the operation took effect
  // yet is not durable, and the caller decides what to do about that.
  Status st = log_.AppendLine(line);
  if (!st.ok()) {
    return st.WithContext("operation applied but not durably logged");
  }
  return Status::OK();
}

// --- Schema ------------------------------------------------------------------

Status Database::DefineRole(const std::string& name) {
  auto r = kb_.DefineRole(name, /*attribute=*/false);
  if (!r.ok()) return r.status();
  return LogOp(StrCat("(define-role ", name, ")"));
}

Status Database::DefineAttribute(const std::string& name) {
  auto r = kb_.DefineRole(name, /*attribute=*/true);
  if (!r.ok()) return r.status();
  return LogOp(StrCat("(define-attribute ", name, ")"));
}

Status Database::DefineConcept(const std::string& name,
                               const std::string& definition) {
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d, Parse(definition));
  return DefineConcept(name, std::move(d));
}

Status Database::DefineConcept(const std::string& name, DescPtr definition) {
  std::string rendered = definition->ToString(kb_.vocab().symbols());
  auto r = kb_.DefineConcept(name, std::move(definition));
  if (!r.ok()) return r.status();
  return LogOp(StrCat("(define-concept ", name, " ", rendered, ")"));
}

Status Database::RegisterTest(const std::string& name, TestFn fn) {
  auto r = kb_.vocab().RegisterTest(name, std::move(fn));
  if (!r.ok()) return r.status();
  return Status::OK();
}

Status Database::AssertRule(const std::string& antecedent,
                            const std::string& consequent) {
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d, Parse(consequent));
  std::string rendered = d->ToString(kb_.vocab().symbols());
  auto r = kb_.AssertRule(antecedent, std::move(d));
  if (!r.ok()) return r.status();
  return LogOp(StrCat("(assert-rule ", antecedent, " ", rendered, ")"));
}

// --- Updates -----------------------------------------------------------------

Status Database::CreateIndividual(const std::string& name) {
  auto r = kb_.CreateIndividual(name);
  if (!r.ok()) return r.status();
  return LogOp(StrCat("(create-ind ", name, ")"));
}

Status Database::CreateIndividual(const std::string& name,
                                  const std::string& description) {
  CLASSIC_RETURN_NOT_OK(CreateIndividual(name));
  return AssertInd(name, description);
}

Status Database::AssertInd(const std::string& name,
                           const std::string& expression) {
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d, Parse(expression));
  return AssertInd(name, std::move(d));
}

Status Database::BulkAssert(
    const std::vector<std::pair<std::string, std::string>>& assertions) {
  std::vector<std::pair<IndId, DescPtr>> batch;
  std::vector<std::string> log_lines;
  batch.reserve(assertions.size());
  log_lines.reserve(assertions.size());
  for (const auto& [name, expression] : assertions) {
    CLASSIC_ASSIGN_OR_RETURN(IndId ind, FindIndividual(name));
    CLASSIC_ASSIGN_OR_RETURN(DescPtr d, Parse(expression));
    log_lines.push_back(StrCat("(assert-ind ", name, " ",
                               d->ToString(kb_.vocab().symbols()), ")"));
    batch.emplace_back(ind, std::move(d));
  }
  CLASSIC_RETURN_NOT_OK(kb_.AssertIndBatch(batch));
  for (const std::string& line : log_lines) {
    CLASSIC_RETURN_NOT_OK(LogOp(line));
  }
  return Status::OK();
}

Status Database::AssertInd(const std::string& name, DescPtr expression) {
  CLASSIC_ASSIGN_OR_RETURN(IndId ind, FindIndividual(name));
  std::string rendered = expression->ToString(kb_.vocab().symbols());
  CLASSIC_RETURN_NOT_OK(kb_.AssertInd(ind, std::move(expression)));
  return LogOp(StrCat("(assert-ind ", name, " ", rendered, ")"));
}

Status Database::RetractInd(const std::string& name,
                            const std::string& expression) {
  CLASSIC_ASSIGN_OR_RETURN(IndId ind, FindIndividual(name));
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d, Parse(expression));
  CLASSIC_RETURN_NOT_OK(kb_.RetractInd(ind, d));
  return LogOp(StrCat("(retract-ind ", name, " ",
                      d->ToString(kb_.vocab().symbols()), ")"));
}

// --- Queries -----------------------------------------------------------------

namespace {
std::vector<std::string> Names(const KnowledgeBase& kb,
                               const std::vector<IndId>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (IndId i : ids) out.push_back(kb.vocab().IndividualName(i));
  return out;
}
}  // namespace

Result<std::vector<std::string>> Database::ServeQuery(
    const QueryRequest& request) const {
  QueryAnswer answer = KbEngine::ServeQuery(kb_, request);
  if (!answer.status.ok()) return answer.status;
  return answer.values.ToVector();
}

Result<RetrievalResult> Database::AskWithStats(const std::string& query)
    const {
  auto& symbols = kb_.vocab().symbols();
  CLASSIC_ASSIGN_OR_RETURN(Query q, ParseQueryString(query, &symbols));
  return Retrieve(kb_, q);
}

Result<std::vector<std::string>> Database::Ask(const std::string& query)
    const {
  return ServeQuery(QueryRequest::Ask(query));
}

Result<std::vector<std::string>> Database::AskPossible(
    const std::string& query) const {
  return ServeQuery(QueryRequest::AskPossible(query));
}

Result<DescriptionAnswer> Database::AskDescriptionFull(
    const std::string& query) const {
  auto& symbols = kb_.vocab().symbols();
  CLASSIC_ASSIGN_OR_RETURN(Query q, ParseQueryString(query, &symbols));
  return classic::AskDescription(kb_, q);
}

Result<std::string> Database::AskDescription(const std::string& query) const {
  // values: the rendered description, then the most specific names.
  CLASSIC_ASSIGN_OR_RETURN(std::vector<std::string> values,
                           ServeQuery(QueryRequest::AskDescription(query)));
  return std::move(values.front());
}

Result<bool> Database::Subsumes(const std::string& c1,
                                const std::string& c2) const {
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d1, Parse(c1));
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d2, Parse(c2));
  return ConceptSubsumes(kb_, d1, d2);
}

Result<bool> Database::Equivalent(const std::string& c1,
                                  const std::string& c2) const {
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d1, Parse(c1));
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d2, Parse(c2));
  return ConceptEquivalent(kb_, d1, d2);
}

Result<bool> Database::Coherent(const std::string& c) const {
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d, Parse(c));
  return ConceptCoherent(kb_, d);
}

// --- Introspection -----------------------------------------------------------

Result<std::vector<std::string>> Database::InstancesOf(
    const std::string& concept_name) const {
  return ServeQuery(QueryRequest::InstancesOf(concept_name));
}

Result<std::vector<std::string>> Database::MostSpecificConcepts(
    const std::string& ind_name) const {
  return ServeQuery(QueryRequest::MostSpecificConcepts(ind_name));
}

Result<std::string> Database::DescribeIndividual(
    const std::string& ind_name) const {
  CLASSIC_ASSIGN_OR_RETURN(
      std::vector<std::string> values,
      ServeQuery(QueryRequest::DescribeIndividual(ind_name)));
  return std::move(values.front());
}

Result<std::vector<std::string>> Database::Fillers(
    const std::string& ind_name, const std::string& role) const {
  CLASSIC_ASSIGN_OR_RETURN(IndId ind, FindIndividual(ind_name));
  CLASSIC_ASSIGN_OR_RETURN(std::vector<IndId> ids,
                           IndFillers(kb_, ind, role));
  return Names(kb_, ids);
}

Result<bool> Database::RoleClosed(const std::string& ind_name,
                                  const std::string& role) const {
  CLASSIC_ASSIGN_OR_RETURN(IndId ind, FindIndividual(ind_name));
  return IndRoleClosed(kb_, ind, role);
}

Result<std::string> Database::WhyInstance(
    const std::string& ind_name, const std::string& concept_expr) const {
  CLASSIC_ASSIGN_OR_RETURN(IndId ind, FindIndividual(ind_name));
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d, Parse(concept_expr));
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr nf,
                           kb_.normalizer().NormalizeConcept(d));
  return ExplainSatisfies(kb_, ind, *nf).ToString();
}

Result<std::string> Database::WhySubsumes(const std::string& c1,
                                          const std::string& c2) const {
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d1, Parse(c1));
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d2, Parse(c2));
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr n1,
                           kb_.normalizer().NormalizeConcept(d1));
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr n2,
                           kb_.normalizer().NormalizeConcept(d2));
  return ExplainSubsumes(kb_, *n1, *n2).ToString();
}

Result<std::vector<std::string>> Database::Parents(
    const std::string& concept_name) const {
  return ConceptParents(kb_, concept_name);
}
Result<std::vector<std::string>> Database::Children(
    const std::string& concept_name) const {
  return ConceptChildren(kb_, concept_name);
}
Result<std::vector<std::string>> Database::Ancestors(
    const std::string& concept_name) const {
  return ConceptAncestors(kb_, concept_name);
}
Result<std::vector<std::string>> Database::Descendants(
    const std::string& concept_name) const {
  return ConceptDescendants(kb_, concept_name);
}

Result<IndId> Database::FindIndividual(const std::string& name) const {
  Symbol sym = kb_.vocab().symbols().Lookup(name);
  if (sym == kNoSymbol) {
    return Status::NotFound(StrCat("unknown individual: ", name));
  }
  return kb_.vocab().FindIndividual(sym);
}

// --- Persistence --------------------------------------------------------------

Status Database::OpenLog(const std::string& path) { return log_.Open(path); }

Status Database::SaveSnapshot(const std::string& path) const {
  return storage::WriteSnapshotFile(kb_, path);
}

Status Database::Checkpoint(const std::string& snapshot_path) {
  if (!log_.is_open()) {
    return Status::InvalidArgument(
        "no operation log is open; use SaveSnapshot directly");
  }
  CLASSIC_RETURN_NOT_OK(SaveSnapshot(snapshot_path));
  return log_.Truncate();
}

}  // namespace classic
