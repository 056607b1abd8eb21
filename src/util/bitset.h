// A dynamic bitset over dense integer ids.
//
// The taxonomy's transitive-ancestor index and other dense-id sets were
// originally std::set<uint32_t>: every membership test an O(log n) pointer
// chase, every union an allocation storm. Dense ids (NodeId, NfId, ...)
// make a word-vector representation strictly better: membership is one
// shift+mask, union/subset are O(words) word-parallel loops, and the whole
// set lives in one contiguous allocation.
//
// Bits auto-grow on Set(): the vector extends to cover the highest bit
// ever set, and all operations treat missing words as zero, so two bitsets
// of different lengths compare/combine correctly. The member count is
// kept alongside the words, so Count() is O(1) — the KB's concept
// extensions are bitsets, and the query planner reads their sizes on
// every query.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace classic {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  /// \brief Constructs with capacity for `nbits` bits, all clear.
  explicit DynamicBitset(size_t nbits) : words_((nbits + 63) / 64, 0) {}

  /// \brief Sets bit `i`, growing the word vector if needed. Returns
  /// true iff the bit was clear before.
  bool Set(size_t i) {
    size_t w = i >> 6;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const uint64_t bit = kOne << (i & 63);
    if ((words_[w] & bit) != 0) return false;
    words_[w] |= bit;
    ++count_;
    return true;
  }

  /// \brief Clears bit `i` (no-op if beyond the current capacity).
  void Reset(size_t i) {
    size_t w = i >> 6;
    if (w >= words_.size()) return;
    const uint64_t bit = kOne << (i & 63);
    if ((words_[w] & bit) == 0) return;
    words_[w] &= ~bit;
    --count_;
  }

  /// \brief True iff bit `i` is set. Bits beyond capacity read as 0.
  bool Test(size_t i) const {
    size_t w = i >> 6;
    return w < words_.size() && (words_[w] >> (i & 63)) & 1;
  }

  /// \brief True iff no bit is set.
  bool Empty() const { return count_ == 0; }

  /// \brief Number of set bits. O(1).
  size_t Count() const { return count_; }

  /// \brief this |= other.
  void OrWith(const DynamicBitset& other) {
    if (other.words_.size() > words_.size()) {
      words_.resize(other.words_.size(), 0);
    }
    count_ = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      if (i < other.words_.size()) words_[i] |= other.words_[i];
      count_ += static_cast<size_t>(__builtin_popcountll(words_[i]));
    }
  }

  /// \brief this &= other (bits beyond `other`'s capacity clear).
  void AndWith(const DynamicBitset& other) {
    if (words_.size() > other.words_.size()) {
      words_.resize(other.words_.size());
    }
    count_ = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= other.words_[i];
      count_ += static_cast<size_t>(__builtin_popcountll(words_[i]));
    }
  }

  /// \brief this &= ~other.
  void AndNotWith(const DynamicBitset& other) {
    const size_t n = words_.size() < other.words_.size() ? words_.size()
                                                         : other.words_.size();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t cleared = words_[i] & other.words_[i];
      words_[i] &= ~other.words_[i];
      count_ -= static_cast<size_t>(__builtin_popcountll(cleared));
    }
  }

  /// \brief The set {0, ..., nbits - 1}.
  static DynamicBitset Prefix(size_t nbits);

  /// \brief True iff every bit of this is also set in `other`.
  bool IsSubsetOf(const DynamicBitset& other) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      uint64_t theirs = i < other.words_.size() ? other.words_[i] : 0;
      if ((words_[i] & ~theirs) != 0) return false;
    }
    return true;
  }

  /// \brief True iff some bit is set in both.
  bool Intersects(const DynamicBitset& other) const {
    size_t n = words_.size() < other.words_.size() ? words_.size()
                                                   : other.words_.size();
    for (size_t i = 0; i < n; ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }

  /// \brief Calls `fn(index)` for every set bit, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(w));
        fn(wi * 64 + bit);
        w &= w - 1;
      }
    }
  }

  /// \brief The set bits as a sorted vector (for range-style callers).
  std::vector<uint32_t> ToVector() const;

  bool operator==(const DynamicBitset& other) const;

 private:
  static constexpr uint64_t kOne = 1;
  std::vector<uint64_t> words_;
  size_t count_ = 0;
};

}  // namespace classic
