// Epochs: immutable published views of a KnowledgeBase.
//
// The serving layer follows a single-writer / multi-reader snapshot
// scheme. The writer owns its KnowledgeBase and mutates it freely;
// KbEngine::PublishFrom() clones it copy-on-write into a KbSnapshot — an
// immutable view carrying the cloned database plus a monotonically
// increasing epoch number — and swaps it into the engine's current slot
// atomically. Readers grab a shared_ptr to whatever snapshot is current
// and keep using it for as long as they like: a snapshot can never change
// under them, and shared_ptr reference counting retires it exactly when
// the last reader lets go (epoch-based reclamation with the refcount as
// the epoch guard).
//
// Snapshots freeze their visible-individual bound at publish time
// (KnowledgeBase::FreezeVisibleIndividuals), so query normalization that
// interns fresh host values on the snapshot's logically-const caches
// never changes any answer set.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "kb/knowledge_base.h"

namespace classic {

/// \brief One published epoch: an immutable KnowledgeBase view.
///
/// The live-instance counter exists for the stress harness: it proves
/// that retired epochs are actually reclaimed while readers churn (bounded
/// memory), without poking at allocator internals.
class KbSnapshot {
 public:
  KbSnapshot(std::unique_ptr<const KnowledgeBase> kb, uint64_t epoch)
      : kb_(std::move(kb)), epoch_(epoch) {
    live_count_.fetch_add(1, std::memory_order_relaxed);
  }
  ~KbSnapshot() { live_count_.fetch_sub(1, std::memory_order_relaxed); }

  KbSnapshot(const KbSnapshot&) = delete;
  KbSnapshot& operator=(const KbSnapshot&) = delete;

  /// The database view. Const: all reachable mutation is the internally
  /// synchronized logically-const caching documented on KnowledgeBase.
  const KnowledgeBase& kb() const { return *kb_; }

  /// Publish sequence number (1 = first publish).
  uint64_t epoch() const { return epoch_; }

  /// Number of KbSnapshot instances currently alive in the process.
  static size_t live_count() {
    return live_count_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<const KnowledgeBase> kb_;
  uint64_t epoch_;

  inline static std::atomic<size_t> live_count_{0};
};

using SnapshotPtr = std::shared_ptr<const KbSnapshot>;

}  // namespace classic
