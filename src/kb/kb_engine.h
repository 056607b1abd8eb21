// KbEngine: snapshot-isolated parallel query serving.
//
// One engine serves the epochs of one CLASSIC database for concurrent use:
//
//   - a single writer thread owns and mutates its own KnowledgeBase and
//     hands it over with PublishFrom(); each call publishes a fresh
//     immutable epoch (kb/epoch.h). Publication copies the database's
//     copy-on-write stores (util/cow.h) without copying their contents —
//     the writer pays for what it changes, once per epoch — so the engine
//     can afford to keep a ring of recent epochs alive and serve "as of
//     epoch N" queries against them (QueryRequest::AsOf). An epoch leaving
//     the ring is freed outside the reader mutex;
//   - any number of reader threads call snapshot() / ServeQuery() /
//     QueryBatch(); readers never block the writer and never observe a
//     half-applied update — they hold whole-database snapshots;
//   - QueryBatch fans a batch of requests across the engine's one worker
//     pool, all evaluated against ONE snapshot acquired at batch start, so
//     a batch is internally consistent and its answers are byte-identical
//     to evaluating the same requests serially against that snapshot
//     (tests/parallel_diff_test.cc holds the engine to exactly that).
//
// Serving covers every read entry point of the library: extensional
// queries (ask / ask-possible), intensional answers (ask-description),
// conjunctive path queries, and introspection (describe-individual, most
// specific concepts, instances-of).

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kb/epoch.h"
#include "kb/knowledge_base.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "sexpr/sexpr.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace classic {

/// \brief What a serving request asks for. `text` is interpreted per
/// kind: a query expression for the query kinds, an individual name for
/// the individual kinds, a concept name for kInstancesOf.
///
/// Prefer the named constructors (QueryRequest::Ask(...) etc.) over
/// aggregate initialization: they read at the call site and cannot get
/// the kind/text pairing wrong.
struct QueryRequest {
  enum class Kind {
    /// ask-necessary-set: individuals known to satisfy the query.
    kAsk,
    /// ask-possible-set: individuals not provably excluded.
    kAskPossible,
    /// ask-description: the intensional answer (rendered description +
    /// most specific named concepts).
    kAskDescription,
    /// Conjunctive path query "(select (?x ...) atoms...)"; answers are
    /// rows of display names.
    kPathQuery,
    /// ind-aspect-style full description of one individual.
    kDescribeIndividual,
    /// Most specific named concepts of one individual.
    kMostSpecificConcepts,
    /// Known instances of one named concept.
    kInstancesOf,
  };

  Kind kind = Kind::kAsk;
  std::string text;
  /// Epoch to evaluate against: 0 = the batch's snapshot (current). A
  /// nonzero value routes the request to that retained epoch — O(delta)
  /// publication keeps a short ring of recent epochs alive (chunk storage
  /// is shared, so a retained epoch costs only its delta). Requests
  /// naming an unretained epoch fail with NotFound.
  uint64_t as_of_epoch = 0;
  /// When set, the answer's first value is the query plan the planner
  /// chose (query/planner.h), rendered as `(plan <kind> <tree>)` with
  /// estimated and actual per-node cardinalities. The remaining values
  /// are the ordinary answer — explain never changes them.
  bool explain = false;

  /// Fluent as-of marker: `QueryRequest::Ask("(...)").AsOf(3)`.
  QueryRequest AsOf(uint64_t epoch) && {
    as_of_epoch = epoch;
    return std::move(*this);
  }

  /// Fluent explain marker: `QueryRequest::Ask("(...)").Explain()`.
  QueryRequest Explain() && {
    explain = true;
    return std::move(*this);
  }

  // Named constructors, one per kind.
  static QueryRequest Ask(std::string query);
  static QueryRequest AskPossible(std::string query);
  static QueryRequest AskDescription(std::string query);
  static QueryRequest PathQuery(std::string select_expr);
  static QueryRequest DescribeIndividual(std::string individual);
  static QueryRequest MostSpecificConcepts(std::string individual);
  static QueryRequest InstancesOf(std::string concept_name);

  // --- Canonical serialization ---------------------------------------------
  //
  // One request surface for in-process callers, the repl's epoch ops and
  // the wire protocol (docs/PROTOCOL.md). The form is
  //
  //   (request <kind-symbol> "<text>")                   current epoch
  //   (request <kind-symbol> "<text>" <epoch>)           as-of request
  //   (request <kind-symbol> "<text>" explain)           explained
  //   (request <kind-symbol> "<text>" <epoch> explain)   both
  //
  // with <kind-symbol> the stable QueryKindName ("ask", "path-query",
  // ...). The optional positive-integer epoch always precedes the
  // optional `explain` symbol. FromSexpr(ToSexpr()) reproduces
  // kind/text/as_of_epoch/explain exactly.

  sexpr::Value ToSexpr() const;
  std::string ToWire() const;  ///< ToSexpr() rendered to concrete syntax.
  static Result<QueryRequest> FromSexpr(const sexpr::Value& v);
  static Result<QueryRequest> FromWire(const std::string& text);

  bool operator==(const QueryRequest& other) const {
    return kind == other.kind && text == other.text &&
           as_of_epoch == other.as_of_epoch && explain == other.explain;
  }
};

/// \brief Stable serialized name of a request kind ("ask", "path-query",
/// "instances-of", ...). Shared with the obs layer's Op names, so the
/// classic_stats CLI, metrics JSON and tests all speak one vocabulary.
const char* QueryKindName(QueryRequest::Kind kind);

/// \brief Inverse of QueryKindName; nullopt for unknown names (including
/// the writer-side op name "publish", which is not a request kind).
std::optional<QueryRequest::Kind> QueryKindFromName(std::string_view name);

/// \brief The obs histogram slot for a request kind.
obs::Op ToObsOp(QueryRequest::Kind kind);

/// \brief Per-query inference work: wall time plus the counter deltas
/// (subsumption tests, memo hits, instance checks, ...) attributable to
/// serving this one request. All zeros when CLASSIC_OBS is compiled out.
struct QueryStats {
  uint64_t wall_nanos = 0;
  obs::CounterArray counters{};

  uint64_t counter(obs::Counter c) const {
    return counters[static_cast<size_t>(c)];
  }
};

/// \brief Outcome of one request: an error status, or a list of rendered
/// answer values (display names, rows, or a description), plus the
/// inference work the answer cost.
struct QueryAnswer {
  Status status;
  std::vector<std::string> values;
  QueryStats stats;

  /// Canonical one-string rendering (status category + values joined
  /// with unit separators; separator and escape bytes inside a value are
  /// escaped so distinct value lists can never collide). `stats` is
  /// excluded — the differential harness compares these byte-for-byte
  /// between serial and parallel runs, and wall times differ.
  std::string Canonical() const;

  // --- Canonical serialization ---------------------------------------------
  //
  // The wire form of an answer (docs/PROTOCOL.md):
  //
  //   (answer <code-symbol> "<message>" ("<value>" ...))
  //
  // with <code-symbol> the StatusCodeName ("OK", "NotFound", ...).
  // `stats` is deliberately not serialized: it is per-process
  // measurement, not part of the answer value (Canonical() excludes it
  // for the same reason).

  /// The Value tree of the wire form; with FromSexpr, the reference the
  /// tests hold ToWire and FromWire to.
  sexpr::Value ToSexpr() const;
  /// ToSexpr() rendered to concrete syntax, written without building the
  /// Value tree (the server encodes every reply with it).
  std::string ToWire() const;
  static Result<QueryAnswer> FromSexpr(const sexpr::Value& v);
  /// FromSexpr(sexpr::Parse(text)), decoded without building the Value
  /// tree (the client decodes every reply with it): it accepts exactly
  /// the texts that pair accepts, with the same status and values.
  static Result<QueryAnswer> FromWire(const std::string& text);
};

/// \brief The concurrent serving engine (single writer, many readers).
class KbEngine {
 public:
  struct Options {
    /// Serving concurrency of QueryBatch, the calling thread included;
    /// 0 = std::thread::hardware_concurrency. Sizes the engine's one pool
    /// at construction.
    size_t num_threads = 0;
  };

  KbEngine();
  explicit KbEngine(Options options);
  ~KbEngine();

  KbEngine(const KbEngine&) = delete;
  KbEngine& operator=(const KbEngine&) = delete;

  // --- Writer side (one thread) ------------------------------------------

  /// \brief The one way to hand a database to the engine: captures a
  /// copy-on-write copy of `source` (every store shares its chunk
  /// directory; the cost is independent of database size), freezes its
  /// visible-individual bound and atomically installs it as the next
  /// epoch. Returns the new snapshot. The source stays the writer's and
  /// shares chunk storage with the epoch, so successive captures of an
  /// evolving database form one lineage queryable as-of, each publish
  /// costing only that round's delta. Readers already holding older
  /// epochs are unaffected; the engine additionally retains the last
  /// kRetainedEpochs epochs for as-of serving. An epoch leaving the ring
  /// is freed after the reader mutex is released (or by its last reader),
  /// so readers never wait on its destructor. Non-const: the source's copy
  /// counters are drained into the `publish-chunks-copied` figure for
  /// this epoch.
  SnapshotPtr PublishFrom(KnowledgeBase& source);

  /// How many recent epochs PublishFrom keeps alive for as-of queries.
  static constexpr size_t kRetainedEpochs = 8;

  // --- Reader side (any thread) ------------------------------------------

  /// \brief The current epoch (null until the first PublishFrom).
  SnapshotPtr snapshot() const;

  /// \brief Epoch number of the current snapshot (0 before any publish).
  uint64_t epoch() const;

  /// \brief The retained snapshot with epoch number `epoch`, or null if
  /// that epoch was never published or has rotated out of the ring.
  SnapshotPtr SnapshotAt(uint64_t epoch) const;

  /// \brief Epoch numbers currently retained for as-of serving (oldest
  /// first; the last entry is the current epoch).
  std::vector<uint64_t> RetainedEpochs() const;

  /// \brief Evaluates one request against an arbitrary database view.
  /// Pure read (modulo internally synchronized caches); thread-safe on a
  /// snapshot's kb().
  static QueryAnswer ServeQuery(const KnowledgeBase& kb,
                                const QueryRequest& request);

  /// \brief Serves a batch against ONE snapshot acquired on entry:
  /// `num_threads` == 1 serves it on the calling thread, any other value
  /// fans it across the engine's pool (sized by Options::num_threads).
  /// Answer i always corresponds to request i. Fails every request with
  /// NotFound if nothing has been published yet.
  std::vector<QueryAnswer> QueryBatch(const std::vector<QueryRequest>& requests,
                                      size_t num_threads = 0);

  /// \brief Same, against a caller-supplied snapshot. Requests carrying a
  /// nonzero `as_of_epoch` are routed to that retained epoch instead (and
  /// fail with NotFound if it is no longer retained).
  std::vector<QueryAnswer> QueryBatchOn(const KbSnapshot& snap,
                                        const std::vector<QueryRequest>& requests,
                                        size_t num_threads = 0);

  // --- Observability ------------------------------------------------------

  /// \brief Point-in-time copy of the process-wide metrics registry:
  /// every counter total and per-operation latency histogram. All zeros
  /// when CLASSIC_OBS is compiled out.
  obs::MetricsSnapshot MetricsSnapshot() const;

 private:
  /// The uninstrumented dispatch body behind ServeQuery.
  static QueryAnswer ServeQueryImpl(const KnowledgeBase& kb,
                                    const QueryRequest& request);

  std::atomic<uint64_t> epoch_counter_{0};
  /// Current epoch; written by PublishFrom (writer), read by everyone.
  std::shared_ptr<const KbSnapshot> current_;
  /// Ring of the last kRetainedEpochs published epochs (oldest first),
  /// kept alive for as-of queries. Guarded by current_mutex_, which
  /// PublishFrom never holds while an epoch is destroyed.
  std::vector<std::shared_ptr<const KbSnapshot>> retained_;
  mutable std::mutex current_mutex_;

  /// The engine's one worker pool, sized at construction.
  ThreadPool pool_;
};

}  // namespace classic
