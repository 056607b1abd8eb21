// Append-only chunked vector with lock-free reads.
//
// This is the concurrency primitive behind the KB's logically-const
// interning caches (symbol table, host-value pool, normal-form store,
// lazily materialized individual states). Those caches grow while
// concurrent readers hold references into them, which rules out
// std::vector (reallocation moves elements) and std::deque (its internal
// chunk directory reallocates too).
//
// Elements live in geometrically growing chunks that are never moved or
// freed while the container lives, so a reference to an element stays
// valid forever. The element count is published with release semantics
// after the element is fully constructed.
//
// Contract:
//  - push_back calls must be externally serialized (each owning structure
//    appends under its own intern mutex);
//  - operator[] may run concurrently with push_back for any index below a
//    size() value the calling thread has observed;
//  - visible elements are treated as immutable by concurrent readers.
//    In-place mutation through the non-const operator[] is reserved for
//    code with exclusive ownership of the container (the single KB
//    writer on its private master copy).

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>

namespace classic {

template <typename T>
class StableVector {
 public:
  StableVector() = default;

  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;

  ~StableVector() {
    for (auto& slot : chunks_) delete[] slot.load(std::memory_order_relaxed);
  }

  /// Number of fully published elements (acquire: pairs with the release
  /// in push_back, making the elements themselves visible).
  size_t size() const { return size_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  const T& operator[](size_t i) const {
    assert(i < size_.load(std::memory_order_relaxed));
    return Slot(i);
  }
  T& operator[](size_t i) {
    assert(i < size_.load(std::memory_order_relaxed));
    return Slot(i);
  }

  T& back() { return Slot(size_.load(std::memory_order_relaxed) - 1); }

  /// Appends one element. Callers serialize externally; concurrent
  /// readers are fine.
  void push_back(T value) {
    const size_t n = size_.load(std::memory_order_relaxed);
    const size_t c = ChunkIndex(n);
    T* chunk = chunks_[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new T[ChunkCapacity(c)]();
      chunks_[c].store(chunk, std::memory_order_relaxed);
    }
    chunk[n - ChunkBase(c)] = std::move(value);
    // Publish: everything above happens-before any reader that observes
    // the new size.
    size_.store(n + 1, std::memory_order_release);
  }

 private:
  // Chunk 0 holds kBase elements, chunk k holds kBase << k, so 26 chunks
  // cover ~2^31 elements while the directory stays a fixed-size array
  // (no reallocation to race on).
  static constexpr size_t kBaseShift = 6;
  static constexpr size_t kBase = size_t{1} << kBaseShift;
  static constexpr size_t kMaxChunks = 26;

  static size_t ChunkIndex(size_t i) {
    return std::bit_width((i >> kBaseShift) + 1) - 1;
  }
  static size_t ChunkBase(size_t c) { return (kBase << c) - kBase; }
  static size_t ChunkCapacity(size_t c) { return kBase << c; }

  T& Slot(size_t i) const {
    const size_t c = ChunkIndex(i);
    T* chunk = chunks_[c].load(std::memory_order_relaxed);
    return chunk[i - ChunkBase(c)];
  }

  std::array<std::atomic<T*>, kMaxChunks> chunks_{};
  std::atomic<size_t> size_{0};
};

}  // namespace classic
