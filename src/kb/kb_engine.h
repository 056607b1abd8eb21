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

#include <cstddef>
#include <cstdint>
#include <iterator>
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
  // optional `explain` symbol. FromWire(ToWire()) reproduces
  // kind/text/as_of_epoch/explain exactly.

  /// The wire form, written straight into one buffer (the client encodes
  /// every request with it).
  std::string ToWire() const;
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

/// \brief An answer's values as their wire bytes: string literals quoted
/// as sexpr::AppendQuoted writes them, one space apart. This is the
/// answer's one representation; in-process readers decode it.
class ValueList {
 public:
  /// Decodes the list one value at a time.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::string;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::string*;
    using reference = const std::string&;

    const std::string& operator*() const { return value_; }
    Iterator& operator++();
    bool operator==(const Iterator& other) const { return pos_ == other.pos_; }

   private:
    friend class ValueList;
    /// Decodes the literal at `pos`, the start of one or wire.size().
    Iterator(std::string_view wire, size_t pos);

    std::string_view wire_;
    size_t pos_;       ///< Start of the current literal, or wire_.size().
    size_t next_ = 0;  ///< Just past it.
    std::string value_;
  };

  /// Appends `value`, quoting it.
  void Append(std::string_view value);
  /// Appends a value already quoted (an IndInfo::wire_name).
  void AppendQuoted(std::string_view literal);
  /// Inserts `value`, quoted, before the first value (an explain plan).
  void Prepend(std::string_view value);
  void Reserve(size_t bytes) { wire_.reserve(bytes); }
  /// Takes `wire` if it is a list as Append writes it; false otherwise.
  bool AssignWire(std::string_view wire);

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  Iterator begin() const { return {wire_, 0}; }
  Iterator end() const { return {wire_, wire_.size()}; }
  std::vector<std::string> ToVector() const { return {begin(), end()}; }
  const std::string& wire() const { return wire_; }
  bool operator==(const ValueList& other) const = default;

 private:
  std::string wire_;
  size_t count_ = 0;
};

/// \brief Outcome of one request: an error status, or a list of rendered
/// answer values (display names, rows, or a description), plus the
/// inference work the answer cost. Its wire form (docs/PROTOCOL.md) is
///
///   (answer <code-symbol> "<message>" ("<value>" ...))
///
/// with <code-symbol> the StatusCodeName ("OK", "NotFound", ...). `stats`
/// is per-process measurement, not part of the answer, and not sent.
struct QueryAnswer {
  Status status;
  ValueList values;
  QueryStats stats;

  /// The head and status, then the value list copied once.
  std::string ToWire() const;
  /// Accepts exactly the texts the tree reader accepts in the answer's
  /// shape, and FromWire(x).ToWire() is x's canonical form: ToWire's own
  /// form is checked in one pass and its list copied whole.
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
  /// The uninstrumented dispatch body behind ServeQuery: the answer's
  /// status, with its values written to `out`.
  static Status ServeQueryImpl(const KnowledgeBase& kb,
                               const QueryRequest& request, ValueList* out);

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
