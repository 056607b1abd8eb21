// Persistent memo table for subsumption verdicts.
//
// Keys are (NfId general, NfId specific) pairs from one NormalFormStore.
// Interned normal forms are immutable and ids are never reused, so a
// verdict, once computed, is valid forever — the index only ever grows,
// across Classify calls, KB realizations and queries alike. This replaces
// the per-call SubsumptionCache the taxonomy used to rebuild on every
// classification.
//
// The table is open-addressing with linear probing over a power-of-two
// array of packed 64-bit keys; a lookup is one hash, one probe run, no
// allocation, no locks and no shared writes (callers count hits and
// misses in their thread-local obs counters).
//
// Concurrency: any number of threads may Lookup while others Insert.
// Readers probe the live table with acquire loads and never block; a
// slot's verdict byte is written before its key is release-published, so
// a reader that sees the key sees the verdict. Inserts serialize on a
// mutex (effectively single-writer at a time; concurrent query threads
// that miss simply recompute — verdicts are deterministic, so losing a
// race costs work, never correctness). Growth builds a doubled table
// privately and atomically swaps the live pointer; superseded tables are
// retired but kept allocated so a reader still probing one stays valid —
// geometric growth bounds the retired memory by the live table's size.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "desc/ids.h"

namespace classic {

class SubsumptionIndex {
 public:
  SubsumptionIndex() = default;

  SubsumptionIndex(const SubsumptionIndex&) = delete;
  SubsumptionIndex& operator=(const SubsumptionIndex&) = delete;

  /// \brief Cached verdict for "general subsumes specific", if known.
  /// Both ids must be valid (not kNoNfId). Lock-free; safe under any
  /// number of concurrent Lookup/Insert calls.
  std::optional<bool> Lookup(NfId general, NfId specific) const;

  /// \brief Records a verdict. Both ids must be valid. Re-inserting an
  /// existing key is a no-op (the verdict cannot change).
  void Insert(NfId general, NfId specific, bool subsumes);

  /// Number of recorded verdicts.
  size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  /// One open-addressing generation. Keys and verdicts live in parallel
  /// arrays: vals[i] is written before keys[i] is release-stored, and
  /// neither changes afterwards.
  struct Table {
    explicit Table(size_t capacity);
    const size_t mask;
    std::unique_ptr<std::atomic<uint64_t>[]> keys;
    std::unique_ptr<uint8_t[]> vals;
  };

  static uint64_t PackKey(NfId general, NfId specific) {
    return (static_cast<uint64_t>(general) << 32) |
           static_cast<uint64_t>(specific);
  }

  static size_t HashKey(uint64_t key) {
    // SplitMix64 finalizer: full-avalanche over the packed pair.
    uint64_t z = key + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<size_t>(z ^ (z >> 31));
  }

  /// Allocates (or doubles) the table and republishes. Caller holds
  /// insert_mutex_.
  Table* Grow(Table* old);

  /// The table readers probe. Null until the first insert.
  std::atomic<Table*> live_{nullptr};
  /// Every generation ever published, newest last; older generations are
  /// kept so readers that loaded them mid-growth stay valid.
  std::vector<std::unique_ptr<Table>> generations_;
  std::mutex insert_mutex_;
  std::atomic<size_t> size_{0};
};

}  // namespace classic
