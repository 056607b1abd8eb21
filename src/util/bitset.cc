#include "util/bitset.h"

namespace classic {

std::vector<uint32_t> DynamicBitset::ToVector() const {
  // Sized up front and filled by index: a push_back per member stores the
  // vector's end pointer, which the compiler must assume may alias
  // words_, so it would reload words_ on every word of the scan.
  std::vector<uint32_t> out(count_);
  size_t k = 0;
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    for (uint64_t w = words_[wi]; w != 0; w &= w - 1) {
      out[k++] = static_cast<uint32_t>(
          wi * 64 + static_cast<unsigned>(__builtin_ctzll(w)));
    }
  }
  return out;
}

DynamicBitset DynamicBitset::Prefix(size_t nbits) {
  DynamicBitset out(nbits);
  for (size_t i = 0; i < nbits / 64; ++i) out.words_[i] = ~uint64_t{0};
  if (nbits % 64 != 0) out.words_.back() = (kOne << (nbits % 64)) - 1;
  out.count_ = nbits;
  return out;
}

bool DynamicBitset::operator==(const DynamicBitset& other) const {
  if (count_ != other.count_) return false;
  size_t n = words_.size() > other.words_.size() ? words_.size()
                                                 : other.words_.size();
  for (size_t i = 0; i < n; ++i) {
    uint64_t a = i < words_.size() ? words_[i] : 0;
    uint64_t b = i < other.words_.size() ? other.words_[i] : 0;
    if (a != b) return false;
  }
  return true;
}

}  // namespace classic
