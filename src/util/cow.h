// The copy-on-write container behind O(delta) epoch publication.
//
// StableVector (util/stable_vector.h) solves concurrent *growth*; this
// container solves cheap *copying*. Publishing an epoch used to deep-copy
// the whole KnowledgeBase (BM_Publish ~3 ms at 1k individuals); with
// every store on a CowVector, a publish shares structure with the
// previous epoch and copies only what the writer touched since.
//
// CowVector<T> is a chunked vector: 64-element chunks behind shared_ptr,
// the chunk directory itself behind a shared_ptr. Copying is two
// shared_ptr copies; the single writer path-copies a chunk (and, once
// per copy generation, the directory) the first time it mutates through
// shared structure. use_count() > 1 is the copy-on-write trigger: extra
// counts can only come from snapshot copies.
//
// Every index is keyed by a dense id (NodeId, IndId, ConceptId), so one
// container serves them all. A set- or map-valued slot holds its value
// behind a shared_ptr (T = std::shared_ptr<V>): a chunk copy then copies
// 64 pointers, not 64 sets, and MutableValue copies the one value it
// writes — on the same use_count() > 1 trigger, so at most once per copy
// generation.
//
// Thread-safety contract (mirrors the KB's single-writer discipline): a
// copy that is never mutated (a published snapshot) may be read from any
// number of threads; every mutating call must come from the one writer
// thread. Readers of old copies are never affected by writer mutation:
// the writer replaces shared chunks and values, it never writes through
// them.

#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace classic {

/// Writer-only: the value behind `box`, created when the box is empty and
/// copied first while a copy still shares it (use_count() > 1, the
/// copy-on-write trigger); each copy bumps `*copies`. CowVector's boxed
/// slots and a store's standalone boxed value share it.
template <typename V>
V& MutableBoxed(std::shared_ptr<V>& box, size_t* copies) {
  if (!box) {
    box = std::make_shared<V>();
  } else if (box.use_count() > 1) {
    box = std::make_shared<V>(*box);
    ++*copies;
  }
  return *box;
}

template <typename T>
class CowVector {
 public:
  static constexpr size_t kChunkShift = 6;
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;  // 64

  struct Chunk {
    std::array<T, kChunkSize> slot{};
  };

  CowVector() = default;

  /// O(1) structural-sharing copy (the publish path). The new copy reads
  /// the same chunks; whichever side mutates next pays the path copy.
  CowVector(const CowVector& other) : dir_(other.dir_), size_(other.size_) {}

  CowVector& operator=(const CowVector& other) {
    dir_ = other.dir_;
    size_ = other.size_;
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const {
    assert(i < size_);
    return dir_->chunks[i >> kChunkShift]->slot[i & (kChunkSize - 1)];
  }

  /// Writer-only: mutable access, path-copying any shared chunk (and the
  /// directory, once per copy generation) before exposing it.
  T& Mutable(size_t i) {
    assert(i < size_);
    return OwnedChunk(i >> kChunkShift).slot[i & (kChunkSize - 1)];
  }

  /// Writer-only append.
  void push_back(T value) {
    EnsureOwnedDir();
    const size_t c = size_ >> kChunkShift;
    if (c == dir_->chunks.size()) dir_->chunks.emplace_back(nullptr);
    OwnedChunk(c).slot[size_ & (kChunkSize - 1)] = std::move(value);
    ++size_;
  }

  /// Writer-only: appends copies of `fill` until the vector covers index
  /// i (a dense-id store gains a slot when its id first appears).
  void GrowTo(size_t i, const T& fill = T{}) {
    while (size_ <= i) push_back(fill);
  }

  /// Writer-only ordered erase (shift-down). O(n - i) element copies —
  /// used by the retraction path, which re-derives the database anyway.
  void EraseAt(size_t i) {
    assert(i < size_);
    for (size_t j = i; j + 1 < size_; ++j) Mutable(j) = (*this)[j + 1];
    Mutable(size_ - 1) = T{};
    --size_;
  }

  /// Writer-only: empties this copy (other copies keep their chunks).
  void Clear() {
    dir_.reset();
    size_ = 0;
  }

  // --- Boxed values (T = std::shared_ptr<V>) -------------------------------

  /// Slot i's value, or nullptr when i is past the end or the slot is
  /// empty.
  template <typename Box = T>
  const typename Box::element_type* Find(size_t i) const {
    return i < size_ ? (*this)[i].get() : nullptr;
  }

  /// Writer-only: mutable access to slot i's value, growing the vector to
  /// cover i and creating an empty value in an empty slot. A value still
  /// shared with a copy is copied first (use_count() > 1, the chunk
  /// trigger: a chunk copy shares every value it holds), so the writer
  /// copies each value at most once per copy generation and mutates it
  /// in place after that.
  template <typename Box = T>
  typename Box::element_type& MutableValue(size_t i) {
    GrowTo(i);
    return MutableBoxed(Mutable(i), &copies_);
  }

  // --- Publish instrumentation --------------------------------------------

  /// Chunk and value copies performed by the writer since the last call
  /// (the physical size of the write delta).
  size_t TakeCopies() { return std::exchange(copies_, 0); }

  /// Bytes of chunk storage this copy shares with its siblings (all of
  /// it, right after a copy): the publish "bytes not copied" figure.
  size_t ApproxChunkBytes() const {
    return dir_ ? dir_->chunks.size() * sizeof(Chunk) : 0;
  }

 private:
  struct Dir {
    std::vector<std::shared_ptr<Chunk>> chunks;
  };

  /// The writer may mutate the directory only when no snapshot shares it.
  void EnsureOwnedDir() {
    if (!dir_) {
      dir_ = std::make_shared<Dir>();
    } else if (dir_.use_count() > 1) {
      dir_ = std::make_shared<Dir>(*dir_);
    }
  }

  Chunk& OwnedChunk(size_t c) {
    EnsureOwnedDir();
    std::shared_ptr<Chunk>& p = dir_->chunks[c];
    if (!p) {
      p = std::make_shared<Chunk>();
    } else if (p.use_count() > 1) {
      p = std::make_shared<Chunk>(*p);
      ++copies_;
    }
    return *p;
  }

  std::shared_ptr<Dir> dir_;
  size_t size_ = 0;
  size_t copies_ = 0;
};

}  // namespace classic
