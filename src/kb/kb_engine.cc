#include "kb/kb_engine.h"

#include <cstring>
#include <thread>
#include <utility>

#include "obs/histogram.h"
#include "obs/trace.h"
#include "query/describe.h"
#include "query/introspect.h"
#include "query/path_query.h"
#include "query/planner.h"
#include "query/query.h"
#include "util/string_util.h"

namespace classic {

namespace {

std::vector<std::string> Names(const KnowledgeBase& kb,
                               const std::vector<IndId>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (IndId i : ids) out.push_back(kb.vocab().IndividualName(i));
  return out;
}

Result<IndId> FindIndByName(const KnowledgeBase& kb, const std::string& name) {
  Symbol sym = kb.vocab().symbols().Lookup(name);
  if (sym == kNoSymbol) {
    return Status::NotFound(StrCat("unknown individual: ", name));
  }
  Result<IndId> ind = kb.vocab().FindIndividual(sym);
  // The vocabulary is shared across epochs (COW publication), so a name
  // interned by the live master after this epoch froze still resolves
  // here. Visibility is the epoch's frozen bound, not the directory.
  if (ind.ok() && *ind >= kb.num_visible_individuals()) {
    return Status::NotFound(StrCat("unknown individual: ", name));
  }
  return ind;
}

/// Total worker-thread count backing a serving concurrency of `total`
/// threads (the batch caller participates, so the pool holds one fewer).
size_t PoolWorkers(size_t total) { return total > 0 ? total - 1 : 0; }

size_t ResolveTotalThreads(size_t requested) {
  if (requested > 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Escapes the canonical-form separator (0x1f) and the escape character
/// itself, so a value that happens to contain either byte cannot fake a
/// value boundary. Rendered names never contain 0x1f today, but host
/// values and error messages are arbitrary strings.
void AppendEscaped(const std::string& v, std::string* out) {
  for (char c : v) {
    if (c == '\\') {
      out->append("\\\\");
    } else if (c == '\x1f') {
      out->append("\\u001f");
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

QueryRequest QueryRequest::Ask(std::string query) {
  return {Kind::kAsk, std::move(query)};
}
QueryRequest QueryRequest::AskPossible(std::string query) {
  return {Kind::kAskPossible, std::move(query)};
}
QueryRequest QueryRequest::AskDescription(std::string query) {
  return {Kind::kAskDescription, std::move(query)};
}
QueryRequest QueryRequest::PathQuery(std::string select_expr) {
  return {Kind::kPathQuery, std::move(select_expr)};
}
QueryRequest QueryRequest::DescribeIndividual(std::string individual) {
  return {Kind::kDescribeIndividual, std::move(individual)};
}
QueryRequest QueryRequest::MostSpecificConcepts(std::string individual) {
  return {Kind::kMostSpecificConcepts, std::move(individual)};
}
QueryRequest QueryRequest::InstancesOf(std::string concept_name) {
  return {Kind::kInstancesOf, std::move(concept_name)};
}

sexpr::Value QueryRequest::ToSexpr() const {
  std::vector<sexpr::Value> items;
  items.push_back(sexpr::Value::MakeSymbol("request"));
  items.push_back(sexpr::Value::MakeSymbol(QueryKindName(kind)));
  items.push_back(sexpr::Value::MakeString(text));
  if (as_of_epoch != 0) {
    items.push_back(
        sexpr::Value::MakeInteger(static_cast<int64_t>(as_of_epoch)));
  }
  if (explain) {
    items.push_back(sexpr::Value::MakeSymbol("explain"));
  }
  return sexpr::Value::MakeList(std::move(items));
}

std::string QueryRequest::ToWire() const {
  // ToSexpr().ToString(), byte for byte, rendered straight into one buffer.
  std::string out;
  out.reserve(40 + text.size());
  out += "(request ";
  out += QueryKindName(kind);
  out += ' ';
  sexpr::AppendQuoted(text, &out);
  if (as_of_epoch != 0) {
    out += ' ';
    AppendInteger(static_cast<int64_t>(as_of_epoch), &out);
  }
  if (explain) out += " explain";
  out += ')';
  return out;
}

Result<QueryRequest> QueryRequest::FromSexpr(const sexpr::Value& v) {
  if (!v.HasHead("request") || v.size() < 3 || v.size() > 5) {
    return Status::InvalidArgument(
        StrCat("not a request form: ", v.ToString()));
  }
  if (!v.at(1).IsSymbol()) {
    return Status::InvalidArgument(
        StrCat("request kind must be a symbol: ", v.ToString()));
  }
  std::optional<Kind> kind = QueryKindFromName(v.at(1).text());
  if (!kind) {
    return Status::InvalidArgument(
        StrCat("unknown request kind: ", v.at(1).text()));
  }
  if (!v.at(2).IsString()) {
    return Status::InvalidArgument(
        StrCat("request text must be a string: ", v.ToString()));
  }
  QueryRequest out{*kind, v.at(2).text()};
  // Optional trailing arguments: a positive-integer epoch, then the
  // `explain` symbol — in that order only.
  size_t next = 3;
  if (next < v.size() && v.at(next).IsInteger()) {
    if (v.at(next).integer() <= 0) {
      return Status::InvalidArgument(
          StrCat("request epoch must be a positive integer: ", v.ToString()));
    }
    out.as_of_epoch = static_cast<uint64_t>(v.at(next).integer());
    ++next;
  }
  if (next < v.size() && v.at(next).IsSymbolNamed("explain")) {
    out.explain = true;
    ++next;
  }
  if (next != v.size()) {
    return Status::InvalidArgument(StrCat(
        "request tail must be [<epoch>] [explain]: ", v.ToString()));
  }
  return out;
}

Result<QueryRequest> QueryRequest::FromWire(const std::string& text) {
  CLASSIC_ASSIGN_OR_RETURN(sexpr::Value v, sexpr::Parse(text));
  return FromSexpr(v);
}

sexpr::Value QueryAnswer::ToSexpr() const {
  std::vector<sexpr::Value> values_list;
  values_list.reserve(values.size());
  for (const std::string& v : values) {
    values_list.push_back(sexpr::Value::MakeString(v));
  }
  std::vector<sexpr::Value> items;
  items.push_back(sexpr::Value::MakeSymbol("answer"));
  items.push_back(sexpr::Value::MakeSymbol(StatusCodeName(status.code())));
  items.push_back(sexpr::Value::MakeString(status.message()));
  items.push_back(sexpr::Value::MakeList(std::move(values_list)));
  return sexpr::Value::MakeList(std::move(items));
}

std::string QueryAnswer::ToWire() const {
  // ToSexpr().ToString(), byte for byte, rendered straight into one buffer:
  // no Value per answer string and no escaped temporaries.
  const char* code = StatusCodeName(status.code());
  size_t size = 16 + std::strlen(code) + status.message().size();
  for (const std::string& v : values) size += v.size() + 3;
  std::string out;
  out.reserve(size);
  out += "(answer ";
  out += code;
  out += ' ';
  sexpr::AppendQuoted(status.message(), &out);
  out += " (";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ' ';
    sexpr::AppendQuoted(values[i], &out);
  }
  out += "))";
  return out;
}

Result<QueryAnswer> QueryAnswer::FromSexpr(const sexpr::Value& v) {
  if (!v.HasHead("answer") || v.size() != 4 || !v.at(1).IsSymbol() ||
      !v.at(2).IsString() || !v.at(3).IsList()) {
    return Status::InvalidArgument(
        StrCat("not an answer form: ", v.ToString()));
  }
  QueryAnswer out;
  const StatusCode code = StatusCodeFromName(v.at(1).text());
  if (code != StatusCode::kOk) {
    out.status = Status(code, v.at(2).text());
  }
  out.values.reserve(v.at(3).size());
  for (const sexpr::Value& item : v.at(3).items()) {
    if (!item.IsString()) {
      return Status::InvalidArgument(
          StrCat("answer values must be strings: ", v.ToString()));
    }
    out.values.push_back(item.text());
  }
  return out;
}

Result<QueryAnswer> QueryAnswer::FromWire(const std::string& text) {
  // FromSexpr(Parse(text)) without the Value tree: the reader's own
  // lexer, walked through the one shape an answer has, with each value
  // unescaped straight into `values`. Any other token sequence is one
  // the tree reader rejects or FromSexpr refuses.
  using Token = sexpr::Lexer::Token;
  sexpr::Lexer lex(text);
  // True if the next token is `want`; a parenthesis is also consumed.
  auto expect = [&lex](Token want) {
    if (lex.Peek() != want) return false;
    if (want == Token::kOpen || want == Token::kClose) lex.ConsumeParen();
    return true;
  };
  auto malformed = [&lex]() {
    return Status::InvalidArgument(
        StrCat("not an answer form", lex.Here()));
  };
  if (!expect(Token::kOpen) || !expect(Token::kAtom) ||
      !lex.ReadAtom().IsSymbolNamed("answer") || !expect(Token::kAtom)) {
    return malformed();
  }
  const sexpr::Value code = lex.ReadAtom();
  std::string message;
  if (!code.IsSymbol() || !expect(Token::kString)) return malformed();
  CLASSIC_RETURN_NOT_OK(lex.ReadString(&message));
  if (!expect(Token::kOpen)) return malformed();
  QueryAnswer out;
  // A value with its quotes and separator rarely takes under 8 bytes, so
  // a large answer's list is allocated once.
  out.values.reserve(text.size() / 8);
  for (Token t = lex.Peek(); t != Token::kClose; t = lex.Peek()) {
    if (t != Token::kString) return malformed();
    CLASSIC_RETURN_NOT_OK(lex.ReadString(&out.values.emplace_back()));
  }
  lex.ConsumeParen();
  if (!expect(Token::kClose) || !expect(Token::kEnd)) return malformed();
  const StatusCode status_code = StatusCodeFromName(code.text());
  if (status_code != StatusCode::kOk) {
    out.status = Status(status_code, std::move(message));
  }
  return out;
}

obs::Op ToObsOp(QueryRequest::Kind kind) {
  // The first seven Op values mirror Kind, in order (static_asserts keep
  // the two enums aligned).
  static_assert(static_cast<uint32_t>(QueryRequest::Kind::kAsk) ==
                static_cast<uint32_t>(obs::Op::kAsk));
  static_assert(static_cast<uint32_t>(QueryRequest::Kind::kInstancesOf) ==
                static_cast<uint32_t>(obs::Op::kInstancesOf));
  return static_cast<obs::Op>(static_cast<uint32_t>(kind));
}

const char* QueryKindName(QueryRequest::Kind kind) {
  return obs::OpName(ToObsOp(kind));
}

std::optional<QueryRequest::Kind> QueryKindFromName(std::string_view name) {
  std::optional<obs::Op> op = obs::OpFromName(name);
  if (!op || *op > obs::Op::kInstancesOf) return std::nullopt;
  return static_cast<QueryRequest::Kind>(static_cast<uint32_t>(*op));
}

std::string QueryAnswer::Canonical() const {
  std::string out = status.ok()
                        ? std::string("OK")
                        : StrCat(StatusCodeName(status.code()), ": ",
                                 status.message());
  for (const std::string& v : values) {
    out.push_back('\x1f');  // unit separator marks each value boundary
    AppendEscaped(v, &out);
  }
  return out;
}

KbEngine::KbEngine() : KbEngine(Options()) {}

KbEngine::KbEngine(Options options)
    : pool_(PoolWorkers(ResolveTotalThreads(options.num_threads))) {}

KbEngine::~KbEngine() = default;

SnapshotPtr KbEngine::PublishFrom(KnowledgeBase& source) {
#if CLASSIC_OBS
  obs::TraceSpan span("publish");
  const uint64_t start = obs::MonotonicNanos();
#endif
  CLASSIC_OBS_COUNT(kEpochPublishes);
  // Drain the copy counters the writer's mutations accumulated since the
  // last publish BEFORE copying, so the count reported for this epoch is
  // exactly the chunks and values copied to assemble its delta.
  CLASSIC_OBS_COUNT_N(kPublishChunksCopied, source.TakeCowCopyCount());
  std::unique_ptr<KnowledgeBase> clone = source.Clone();
  clone->FreezeVisibleIndividuals();
  CLASSIC_OBS_COUNT_N(kPublishBytesShared, clone->ApproxSharedCowBytes());
  const uint64_t e = epoch_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto snap = std::make_shared<const KbSnapshot>(
      std::unique_ptr<const KnowledgeBase>(std::move(clone)), e);
  SnapshotPtr evicted;
  {
    std::lock_guard<std::mutex> lock(current_mutex_);
    current_ = snap;
    retained_.push_back(snap);
    if (retained_.size() > kRetainedEpochs) {
      evicted = std::move(retained_.front());
      retained_.erase(retained_.begin());
    }
  }
  // Freeing an epoch releases every chunk and value only it still holds;
  // doing that after unlocking keeps snapshot() and SnapshotAt() from
  // ever waiting on the destructor. (A reader still holding the epoch
  // frees it instead, when it lets go.)
  evicted.reset();
#if CLASSIC_OBS
  obs::RecordLatency(obs::Op::kPublish, obs::MonotonicNanos() - start);
  obs::FlushLocalCounters();
#endif
  return snap;
}

SnapshotPtr KbEngine::snapshot() const {
  CLASSIC_OBS_COUNT(kSnapshotAcquisitions);
  std::lock_guard<std::mutex> lock(current_mutex_);
  return current_;
}

uint64_t KbEngine::epoch() const {
  SnapshotPtr s = snapshot();
  return s ? s->epoch() : 0;
}

SnapshotPtr KbEngine::SnapshotAt(uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(current_mutex_);
  for (const SnapshotPtr& s : retained_) {
    if (s->epoch() == epoch) return s;
  }
  return nullptr;
}

std::vector<uint64_t> KbEngine::RetainedEpochs() const {
  std::lock_guard<std::mutex> lock(current_mutex_);
  std::vector<uint64_t> out;
  out.reserve(retained_.size());
  for (const SnapshotPtr& s : retained_) out.push_back(s->epoch());
  return out;
}

QueryAnswer KbEngine::ServeQuery(const KnowledgeBase& kb,
                                 const QueryRequest& request) {
#if CLASSIC_OBS
  obs::TraceSpan span(QueryKindName(request.kind));
  obs::CounterDeltaScope window;
  const uint64_t start = obs::MonotonicNanos();
#endif
  QueryAnswer out = ServeQueryImpl(kb, request);
#if CLASSIC_OBS
  CLASSIC_OBS_COUNT(kQueriesServed);
  out.stats.counters = window.Deltas();
  out.stats.wall_nanos = obs::MonotonicNanos() - start;
  obs::RecordLatency(ToObsOp(request.kind), out.stats.wall_nanos);
#endif
  return out;
}

obs::MetricsSnapshot KbEngine::MetricsSnapshot() const {
  return obs::SnapshotMetrics();
}

QueryAnswer KbEngine::ServeQueryImpl(const KnowledgeBase& kb,
                                     const QueryRequest& request) {
  QueryAnswer out;
  // Filled per kind when the request asks for an explanation. Requests
  // that fail (parse errors, unknown names) return before the plan is
  // prepended — a failed query has no plan.
  planner::PlanNode plan;
  switch (request.kind) {
    case QueryRequest::Kind::kAsk: {
      Result<Query> q = ParseQueryString(request.text, &kb.vocab().symbols());
      if (!q.ok()) {
        out.status = q.status();
        return out;
      }
      Result<RetrievalResult> r = planner::RetrieveQuery(
          kb, *q, request.explain ? &plan : nullptr);
      if (!r.ok()) {
        out.status = r.status();
        return out;
      }
      out.values = Names(kb, r->answers);
      break;
    }
    case QueryRequest::Kind::kAskPossible: {
      Result<Query> q = ParseQueryString(request.text, &kb.vocab().symbols());
      if (!q.ok()) {
        out.status = q.status();
        return out;
      }
      Result<std::vector<IndId>> ids = planner::RetrievePossible(
          kb, *q, request.explain ? &plan : nullptr);
      if (!ids.ok()) {
        out.status = ids.status();
        return out;
      }
      out.values = Names(kb, *ids);
      break;
    }
    case QueryRequest::Kind::kAskDescription: {
      Result<Query> q = ParseQueryString(request.text, &kb.vocab().symbols());
      if (!q.ok()) {
        out.status = q.status();
        return out;
      }
      Result<DescriptionAnswer> a = AskDescription(kb, *q);
      if (!a.ok()) {
        out.status = a.status();
        return out;
      }
      out.values.push_back(a->normal_form->ToString(kb.vocab()));
      for (const std::string& m : a->msc_names) out.values.push_back(m);
      if (request.explain) {
        // The intensional answer classifies the query concept; the child
        // shows the access path an extensional retrieval would take.
        plan = planner::Node("ask-description", {}, 1);
        plan.act = 1;
        Result<NormalFormPtr> nf =
            kb.normalizer().NormalizeConcept(q->level_constraints[0]);
        if (nf.ok()) plan.children.push_back(planner::PlanConcept(kb, **nf));
      }
      break;
    }
    case QueryRequest::Kind::kPathQuery: {
      Result<PathQuery> q = ParsePathQueryString(request.text, kb);
      if (!q.ok()) {
        out.status = q.status();
        return out;
      }
      Result<PathQueryResult> r = EvaluatePathQuery(kb, *q);
      if (!r.ok()) {
        out.status = r.status();
        return out;
      }
      for (const auto& row : PathQueryRowNames(kb, *r)) {
        std::string line;
        for (size_t c = 0; c < row.size(); ++c) {
          if (c > 0) line.push_back(' ');
          line.append(row[c]);
        }
        out.values.push_back(std::move(line));
      }
      if (request.explain) {
        // One child per conjunct: concept atoms carry the access path the
        // planner would choose to seed their variable's domain; role
        // atoms are joined over the known filler graph.
        plan = planner::Node("path-query");
        plan.act = r->rows.size();
        for (const PathAtom& atom : q->atoms) {
          if (atom.kind == PathAtom::Kind::kConcept) {
            plan.children.push_back(
                planner::PlanConcept(kb, *atom.concept_nf));
          } else {
            plan.children.push_back(planner::Node(
                "role-join",
                {kb.vocab().symbols().Name(kb.vocab().role(atom.role).name)}));
          }
        }
      }
      break;
    }
    case QueryRequest::Kind::kDescribeIndividual: {
      Result<IndId> ind = FindIndByName(kb, request.text);
      if (!ind.ok()) {
        out.status = ind.status();
        return out;
      }
      out.values.push_back(kb.state(*ind).derived->ToString(kb.vocab()));
      if (request.explain) {
        plan = planner::Node("describe-individual", {request.text}, 1);
        plan.act = 1;
      }
      break;
    }
    case QueryRequest::Kind::kMostSpecificConcepts: {
      Result<IndId> ind = FindIndByName(kb, request.text);
      if (!ind.ok()) {
        out.status = ind.status();
        return out;
      }
      Result<std::vector<std::string>> msc = IndMostSpecificConcepts(kb, *ind);
      if (!msc.ok()) {
        out.status = msc.status();
        return out;
      }
      out.values = std::move(*msc);
      if (request.explain) {
        plan = planner::Node("most-specific-concepts", {request.text}, 1);
        plan.act = out.values.size();
      }
      break;
    }
    case QueryRequest::Kind::kInstancesOf: {
      Symbol sym = kb.vocab().symbols().Lookup(request.text);
      if (sym == kNoSymbol) {
        out.status = Status::NotFound(
            StrCat("unknown concept: ", request.text));
        return out;
      }
      Result<ConceptId> cid = kb.vocab().FindConcept(sym);
      if (!cid.ok()) {
        out.status = cid.status();
        return out;
      }
      Result<NodeId> node = kb.taxonomy().NodeOf(*cid);
      if (!node.ok()) {
        out.status = node.status();
        return out;
      }
      const DynamicBitset& inst = kb.Instances(*node);
      out.values = Names(kb, inst.ToVector());
      if (request.explain) {
        // The extension of a named concept is maintained incrementally;
        // answering is a direct read of the taxonomy node's instance set.
        plan = planner::Node("instances-of", {request.text}, inst.Count());
        plan.act = inst.Count();
      }
      break;
    }
    default:
      out.status = Status::InvalidArgument("unknown query kind");
      return out;
  }
  if (request.explain) {
    out.values.insert(out.values.begin(),
                      planner::RenderPlan(QueryKindName(request.kind), plan));
  }
  return out;
}

std::vector<QueryAnswer> KbEngine::QueryBatch(
    const std::vector<QueryRequest>& requests, size_t num_threads) {
  SnapshotPtr snap = snapshot();
  if (!snap) {
    std::vector<QueryAnswer> out(requests.size());
    for (QueryAnswer& a : out) {
      a.status = Status::NotFound("no epoch published yet");
    }
    return out;
  }
  return QueryBatchOn(*snap, requests, num_threads);
}

std::vector<QueryAnswer> KbEngine::QueryBatchOn(
    const KbSnapshot& snap, const std::vector<QueryRequest>& requests,
    size_t num_threads) {
  std::vector<QueryAnswer> out(requests.size());
  auto serve = [&](size_t i) {
    const QueryRequest& req = requests[i];
    if (req.as_of_epoch != 0 && req.as_of_epoch != snap.epoch()) {
      SnapshotPtr old = SnapshotAt(req.as_of_epoch);
      if (!old) {
        out[i].status = Status::NotFound(
            StrCat("epoch ", req.as_of_epoch,
                   " is not retained (as-of window is the last ",
                   kRetainedEpochs, " epochs)"));
        return;
      }
      out[i] = ServeQuery(old->kb(), req);  // `old` keeps the epoch alive
      return;
    }
    out[i] = ServeQuery(snap.kb(), req);
  };
  if (num_threads == 1) {
    for (size_t i = 0; i < requests.size(); ++i) serve(i);
  } else {
    pool_.ParallelFor(requests.size(), serve);
  }
  return out;
}

}  // namespace classic
