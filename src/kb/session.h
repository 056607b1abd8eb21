// Session: the epoch-pinned request surface over KbEngine.
//
// Everything that asks the engine questions — the repl's epoch ops, the
// network serving front-end (src/serve), and in-process callers — goes
// through one facade instead of three ad-hoc paths. A Session is a view
// of one engine pinned to one published epoch:
//
//   - construction pins the engine's current epoch (or stays unpinned if
//     nothing has been published yet);
//   - Sync() re-pins to the latest epoch, PinEpoch(e) re-pins to a
//     retained historical epoch — the wire protocol's (sync) / (as-of E)
//     session ops map 1:1 onto these;
//   - Serve()/ServeBatch() evaluate requests against the pinned
//     snapshot; a request carrying its own as_of_epoch is routed to that
//     retained epoch instead (per-request time travel within a pinned
//     session);
//   - Publish(source) captures the writer's database as the next epoch
//     and re-pins the session to it (the repl's (publish)).
//
// Pinning is what makes a network connection snapshot-isolated for its
// whole lifetime: the engine's writer can publish freely, and a pinned
// session keeps answering from the epoch it saw at (sync) time — the
// shared_ptr pin keeps that epoch alive even after it rotates out of the
// engine's retained ring.
//
// Thread-safety: a Session is a per-caller object (per connection, per
// repl) and is NOT internally synchronized; the engine underneath is
// safe for any number of concurrent sessions.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kb/kb_engine.h"
#include "sexpr/sexpr.h"
#include "util/result.h"

namespace classic {

class Session {
 public:
  /// Pins `engine`'s current epoch; unpinned if none is published yet.
  /// `engine` must outlive the session.
  explicit Session(KbEngine* engine);

  /// The pinned epoch number (0 = unpinned: nothing published yet).
  uint64_t epoch() const { return pinned_ ? pinned_->epoch() : 0; }

  /// True once the session has an epoch to answer from.
  bool pinned() const { return pinned_ != nullptr; }

  /// \brief Re-pins to the engine's current epoch; returns its number.
  Result<uint64_t> Sync();

  /// \brief Pins a retained historical epoch (session-level as-of).
  Result<uint64_t> PinEpoch(uint64_t epoch);

  /// \brief Captures `source`'s current state as the next epoch of the
  /// engine's lineage (KbEngine::PublishFrom) and pins it.
  Result<uint64_t> Publish(KnowledgeBase& source);

  /// Epoch numbers currently retained for as-of serving (oldest first).
  std::vector<uint64_t> RetainedEpochs() const;

  /// \brief Serves one request against the pinned epoch (or the request's
  /// own as_of_epoch). Unpinned sessions answer NotFound.
  QueryAnswer Serve(const QueryRequest& request) const;

  /// \brief Serves a batch against the pinned epoch, fanned across the
  /// engine's pool exactly like KbEngine::QueryBatch (answer i matches
  /// request i; as_of_epoch requests are routed per-request).
  std::vector<QueryAnswer> ServeBatch(const std::vector<QueryRequest>& requests,
                                      size_t num_threads = 0) const;

  KbEngine& engine() const { return *engine_; }

  /// \brief Maps one read-only operator-language form to the engine
  /// request it corresponds to. This is the one parser of every read:
  /// the repl's read forms (live, explained and as-of), classic_stats and
  /// the wire protocol's request frames. Both the canonical form
  /// `(request <kind> "<text>" [epoch] [explain])` and the human forms
  /// are accepted:
  ///
  ///   (ask <query>) (ask-possible <query>) (ask-description <query>)
  ///   (select (vars...) atoms...) (instances NAME) (msc Ind)
  ///   (describe Ind) (explain <any of the above>)
  static Result<QueryRequest> RequestFromForm(const sexpr::Value& form);

  /// \brief Parses request text (one form) and maps it via
  /// RequestFromForm.
  static Result<QueryRequest> ParseRequest(const std::string& text);

 private:
  KbEngine* engine_;
  SnapshotPtr pinned_;
};

}  // namespace classic
