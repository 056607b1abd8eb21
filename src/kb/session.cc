#include "kb/session.h"

#include <utility>

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

/// Renders arguments from index `from` as one expression string (queries
/// may be a single form).
std::string Rest(const sexpr::Value& op, size_t from) {
  std::string out;
  for (size_t i = from; i < op.size(); ++i) {
    if (i > from) out += ' ';
    out += op.at(i).ToString();
  }
  return out;
}

}  // namespace

Session::Session(KbEngine* engine)
    : engine_(engine), pinned_(engine->snapshot()) {}

Result<uint64_t> Session::Sync() {
  SnapshotPtr snap = engine_->snapshot();
  if (snap == nullptr) {
    return Status::NotFound("no epoch published yet; run (publish) first");
  }
  pinned_ = std::move(snap);
  return pinned_->epoch();
}

Result<uint64_t> Session::PinEpoch(uint64_t epoch) {
  SnapshotPtr snap = engine_->SnapshotAt(epoch);
  if (snap == nullptr) {
    return Status::NotFound(
        StrCat("epoch ", epoch, " is not retained; see (epochs)"));
  }
  pinned_ = std::move(snap);
  return pinned_->epoch();
}

Result<uint64_t> Session::Publish(KnowledgeBase& source) {
  pinned_ = engine_->PublishFrom(source);
  return pinned_->epoch();
}

std::vector<uint64_t> Session::RetainedEpochs() const {
  return engine_->RetainedEpochs();
}

QueryAnswer Session::Serve(const QueryRequest& request) const {
  return ServeBatch({request})[0];
}

std::vector<QueryAnswer> Session::ServeBatch(
    const std::vector<QueryRequest>& requests) const {
  if (pinned_ == nullptr) {
    std::vector<QueryAnswer> out(requests.size());
    for (QueryAnswer& a : out) {
      a.status =
          Status::NotFound("no epoch published yet; run (publish) first");
    }
    return out;
  }
  return engine_->QueryBatchOn(*pinned_, requests, /*num_threads=*/1);
}

Result<QueryRequest> Session::RequestFromForm(const sexpr::Value& form) {
  if (!form.IsList() || form.size() == 0 || !form.at(0).IsSymbol()) {
    return Status::InvalidArgument(
        StrCat("expected a query form, got: ", form.ToString()));
  }
  const std::string& head = form.at(0).text();
  // The query-taking heads need at least one operand; an empty query
  // text would only fail later and less legibly.
  const auto query_rest = [&form]() -> Result<std::string> {
    if (form.size() < 2) {
      return Status::InvalidArgument(
          StrCat("expected a query in ", form.ToString()));
    }
    return Rest(form, 1);
  };
  if (head == "request") return QueryRequest::FromSexpr(form);
  if (head == "explain") {
    // (explain <query-form>) wraps any other read-only form; the answer
    // leads with the rendered plan.
    if (form.size() != 2) {
      return Status::InvalidArgument(
          StrCat("expected (explain <query-form>), got: ", form.ToString()));
    }
    CLASSIC_ASSIGN_OR_RETURN(QueryRequest inner, RequestFromForm(form.at(1)));
    return std::move(inner).Explain();
  }
  if (head == "ask") {
    CLASSIC_ASSIGN_OR_RETURN(std::string q, query_rest());
    return QueryRequest::Ask(std::move(q));
  }
  if (head == "ask-possible") {
    CLASSIC_ASSIGN_OR_RETURN(std::string q, query_rest());
    return QueryRequest::AskPossible(std::move(q));
  }
  if (head == "ask-description") {
    CLASSIC_ASSIGN_OR_RETURN(std::string q, query_rest());
    return QueryRequest::AskDescription(std::move(q));
  }
  if (head == "select") return QueryRequest::PathQuery(form.ToString());
  if (head == "instances") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(form, 1, "concept name"));
    return QueryRequest::InstancesOf(std::move(name));
  }
  if (head == "msc") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(form, 1, "individual name"));
    return QueryRequest::MostSpecificConcepts(std::move(name));
  }
  if (head == "describe") {
    CLASSIC_ASSIGN_OR_RETURN(std::string name,
                             SymbolArg(form, 1, "individual name"));
    return QueryRequest::DescribeIndividual(std::move(name));
  }
  return Status::InvalidArgument(
      StrCat("cannot serve ", head,
             " (read-only query forms only: ask, ask-possible, "
             "ask-description, select, instances, msc, describe, "
             "explain)"));
}

Result<QueryRequest> Session::ParseRequest(const std::string& text) {
  CLASSIC_ASSIGN_OR_RETURN(sexpr::Value v, sexpr::Parse(text));
  return RequestFromForm(v);
}

}  // namespace classic
