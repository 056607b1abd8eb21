#include "util/bitset.h"

namespace classic {

std::vector<uint32_t> DynamicBitset::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  ForEach([&out](size_t i) { out.push_back(static_cast<uint32_t>(i)); });
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
