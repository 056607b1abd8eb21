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

/// The values naming `ids`: one copy of each stored wire name.
ValueList IdValues(const KnowledgeBase& kb, const std::vector<IndId>& ids) {
  const Vocabulary& vocab = kb.vocab();
  size_t bytes = 0;
  for (IndId i : ids) bytes += vocab.individual(i).wire_name.size() + 1;
  ValueList out;
  out.Reserve(bytes);
  for (IndId i : ids) out.AppendQuoted(vocab.individual(i).wire_name);
  return out;
}

/// The length of the string literal, as sexpr::AppendQuoted writes it, at
/// the start of `s`; 0 if `s` does not start with one.
size_t QuotedLength(std::string_view s) {
  if (s.empty() || s[0] != '"') return 0;
  for (size_t i = 1; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"') return i + 1;
    if (c == '\n' || c == '\t') return 0;  // written as escapes
    if (c != '\\') continue;
    const char e = ++i < s.size() ? s[i] : '\0';
    if (e != 'n' && e != 't' && e != '"' && e != '\\') return 0;
  }
  return 0;
}

/// Decodes the literal QuotedLength accepted at wire[pos] into `out`;
/// returns the position just past its closing quote.
size_t DecodeQuoted(std::string_view wire, size_t pos, std::string* out) {
  out->clear();
  size_t run = pos + 1;
  for (size_t i = run;; ++i) {
    const char c = wire[i];
    if (c != '"' && c != '\\') continue;
    out->append(wire.data() + run, i - run);
    if (c == '"') return i + 1;
    const char e = wire[++i];
    out->push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
    run = i + 1;
  }
}

/// Decodes `text` into `out` if it is exactly what QueryAnswer::ToWire
/// writes, checking every byte once; false, `out` untouched, otherwise.
bool DecodeCanonical(std::string_view text, QueryAnswer* out) {
  constexpr std::string_view kHead = "(answer ";
  if (!text.starts_with(kHead)) return false;
  text.remove_prefix(kHead.size());
  const size_t space = text.find(' ');
  if (space == std::string_view::npos) return false;
  const std::string name(text.substr(0, space));
  const StatusCode code = StatusCodeFromName(name);
  if (name != StatusCodeName(code)) return false;
  text.remove_prefix(space + 1);
  const size_t message = QuotedLength(text);
  // An OK answer's message is empty.
  if (message == 0 || (code == StatusCode::kOk && message != 2)) return false;
  const std::string_view list = text.substr(message);
  if (list.size() < 4 || !list.starts_with(" (") || !list.ends_with("))") ||
      !out->values.AssignWire(list.substr(2, list.size() - 4))) {
    return false;
  }
  if (code != StatusCode::kOk) {
    std::string m;
    DecodeQuoted(text, 0, &m);
    out->status = Status(code, std::move(m));
  }
  return true;
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

std::string QueryRequest::ToWire() const {
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

ValueList::Iterator::Iterator(std::string_view wire, size_t pos)
    : wire_(wire), pos_(pos) {
  if (pos_ < wire_.size()) next_ = DecodeQuoted(wire_, pos_, &value_);
}

ValueList::Iterator& ValueList::Iterator::operator++() {
  pos_ = next_ < wire_.size() ? next_ + 1 : next_;  // past the separator
  if (pos_ < wire_.size()) next_ = DecodeQuoted(wire_, pos_, &value_);
  return *this;
}

void ValueList::Append(std::string_view value) {
  if (count_++ > 0) wire_ += ' ';
  sexpr::AppendQuoted(value, &wire_);
}

void ValueList::AppendQuoted(std::string_view literal) {
  if (count_++ > 0) wire_ += ' ';
  wire_.append(literal);
}

void ValueList::Prepend(std::string_view value) {
  std::string head;
  sexpr::AppendQuoted(value, &head);
  if (count_++ > 0) head += ' ';
  wire_.insert(0, head);
}

bool ValueList::AssignWire(std::string_view wire) {
  size_t count = 0;
  for (size_t i = 0; i < wire.size(); ++count) {
    if (count > 0 && wire[i++] != ' ') return false;
    const size_t n = QuotedLength(wire.substr(i));
    if (n == 0) return false;
    i += n;
  }
  wire_.assign(wire);
  count_ = count;
  return true;
}

std::string QueryAnswer::ToWire() const {
  const char* code = StatusCodeName(status.code());
  std::string out;
  out.reserve(16 + std::strlen(code) + 2 * status.message().size() +
              values.wire().size());
  out += "(answer ";
  out += code;
  out += ' ';
  sexpr::AppendQuoted(status.message(), &out);
  out += " (";
  out += values.wire();
  out += "))";
  return out;
}

Result<QueryAnswer> QueryAnswer::FromWire(const std::string& text) {
  QueryAnswer out;
  if (DecodeCanonical(text, &out)) return out;
  // Any other spelling: the tree reader, with each value re-encoded.
  CLASSIC_ASSIGN_OR_RETURN(sexpr::Value v, sexpr::Parse(text));
  if (!v.HasHead("answer") || v.size() != 4 || !v.at(1).IsSymbol() ||
      !v.at(2).IsString() || !v.at(3).IsList()) {
    return Status::InvalidArgument(
        StrCat("not an answer form: ", v.ToString()));
  }
  for (const sexpr::Value& item : v.at(3).items()) {
    if (!item.IsString()) {
      return Status::InvalidArgument(
          StrCat("answer values must be strings: ", v.ToString()));
    }
    out.values.Append(item.text());
  }
  const StatusCode code = StatusCodeFromName(v.at(1).text());
  if (code != StatusCode::kOk) out.status = Status(code, v.at(2).text());
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
  QueryAnswer out;
  out.status = ServeQueryImpl(kb, request, &out.values);
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

Status KbEngine::ServeQueryImpl(const KnowledgeBase& kb,
                                const QueryRequest& request, ValueList* out) {
  // Filled per kind when the request asks for an explanation. Requests
  // that fail (parse errors, unknown names) return before any value or
  // the plan is written — a failed query has no plan.
  planner::PlanNode plan;
  planner::PlanNode* const explain = request.explain ? &plan : nullptr;
  switch (request.kind) {
    case QueryRequest::Kind::kAsk: {
      CLASSIC_ASSIGN_OR_RETURN(
          const Query q, ParseQueryString(request.text, &kb.vocab().symbols()));
      CLASSIC_ASSIGN_OR_RETURN(const RetrievalResult r,
                               planner::RetrieveQuery(kb, q, explain));
      *out = IdValues(kb, r.answers);
      break;
    }
    case QueryRequest::Kind::kAskPossible: {
      CLASSIC_ASSIGN_OR_RETURN(
          const Query q, ParseQueryString(request.text, &kb.vocab().symbols()));
      CLASSIC_ASSIGN_OR_RETURN(const std::vector<IndId> ids,
                               planner::RetrievePossible(kb, q, explain));
      *out = IdValues(kb, ids);
      break;
    }
    case QueryRequest::Kind::kAskDescription: {
      CLASSIC_ASSIGN_OR_RETURN(
          const Query q, ParseQueryString(request.text, &kb.vocab().symbols()));
      CLASSIC_ASSIGN_OR_RETURN(const DescriptionAnswer a,
                               AskDescription(kb, q));
      out->Append(a.normal_form->ToString(kb.vocab()));
      for (const std::string& m : a.msc_names) out->Append(m);
      if (request.explain) {
        // The intensional answer classifies the query concept; the child
        // shows the access path an extensional retrieval would take.
        plan = planner::Node("ask-description", {}, 1);
        plan.act = 1;
        Result<NormalFormPtr> nf =
            kb.normalizer().NormalizeConcept(q.level_constraints[0]);
        if (nf.ok()) plan.children.push_back(planner::PlanConcept(kb, **nf));
      }
      break;
    }
    case QueryRequest::Kind::kPathQuery: {
      CLASSIC_ASSIGN_OR_RETURN(const PathQuery q,
                               ParsePathQueryString(request.text, kb));
      CLASSIC_ASSIGN_OR_RETURN(const PathQueryResult r,
                               EvaluatePathQuery(kb, q));
      for (const auto& row : PathQueryRowNames(kb, r)) {
        std::string line;
        for (size_t c = 0; c < row.size(); ++c) {
          if (c > 0) line.push_back(' ');
          line.append(row[c]);
        }
        out->Append(line);
      }
      if (request.explain) {
        // One child per conjunct: concept atoms carry the access path the
        // planner would choose to seed their variable's domain; role
        // atoms are joined over the known filler graph.
        plan = planner::Node("path-query");
        plan.act = r.rows.size();
        for (const PathAtom& atom : q.atoms) {
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
      CLASSIC_ASSIGN_OR_RETURN(const IndId ind,
                               FindIndByName(kb, request.text));
      out->Append(kb.state(ind).derived->ToString(kb.vocab()));
      if (request.explain) {
        plan = planner::Node("describe-individual", {request.text}, 1);
        plan.act = 1;
      }
      break;
    }
    case QueryRequest::Kind::kMostSpecificConcepts: {
      CLASSIC_ASSIGN_OR_RETURN(const IndId ind,
                               FindIndByName(kb, request.text));
      CLASSIC_ASSIGN_OR_RETURN(const std::vector<std::string> msc,
                               IndMostSpecificConcepts(kb, ind));
      for (const std::string& m : msc) out->Append(m);
      if (request.explain) {
        plan = planner::Node("most-specific-concepts", {request.text}, 1);
        plan.act = msc.size();
      }
      break;
    }
    case QueryRequest::Kind::kInstancesOf: {
      const Symbol sym = kb.vocab().symbols().Lookup(request.text);
      if (sym == kNoSymbol) {
        return Status::NotFound(StrCat("unknown concept: ", request.text));
      }
      CLASSIC_ASSIGN_OR_RETURN(const ConceptId cid,
                               kb.vocab().FindConcept(sym));
      CLASSIC_ASSIGN_OR_RETURN(const NodeId node, kb.taxonomy().NodeOf(cid));
      const DynamicBitset& inst = kb.Instances(node);
      *out = IdValues(kb, inst.ToVector());
      if (request.explain) {
        // The extension of a named concept is maintained incrementally;
        // answering is a direct read of the taxonomy node's instance set.
        plan = planner::Node("instances-of", {request.text}, inst.Count());
        plan.act = inst.Count();
      }
      break;
    }
    default:
      return Status::InvalidArgument("unknown query kind");
  }
  if (request.explain) {
    out->Prepend(planner::RenderPlan(QueryKindName(request.kind), plan));
  }
  return Status::OK();
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
