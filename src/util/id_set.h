// Sorted-vector sets of dense ids.
//
// A normal form's atoms, tests, enumeration and role fillers, an
// individual's recognized taxonomy nodes and a filler's posting lists each
// hold a handful of small ids, and are read far more often than written.
// A node-based std::set spends a heap node of 40-48 bytes on each 4-byte
// id, and one dependent load per step of a walk. IdSet keeps the ids
// sorted and unique in one vector: iteration is ascending, as std::set's
// is, membership is a binary search, and merge walks (std::includes,
// std::set_intersection) run over contiguous memory. An insert in the
// middle moves the tail, which sets this small never feel.
//
// The interface is the part of std::set's the code uses (insert, count,
// find, erase, ascending iteration), plus indexed reads. Iterators and
// references do not survive an insert or an erase.

#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

namespace classic {

template <typename T>
class IdSet {
 public:
  using value_type = T;
  using const_iterator = typename std::vector<T>::const_iterator;
  using iterator = const_iterator;

  IdSet() = default;
  IdSet(std::initializer_list<T> ids) : ids_(ids) { SortUnique(); }
  template <typename It>
  IdSet(It first, It last) : ids_(first, last) {
    SortUnique();
  }

  const_iterator begin() const { return ids_.begin(); }
  const_iterator end() const { return ids_.end(); }
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  /// The i-th smallest id.
  T operator[](size_t i) const { return ids_[i]; }

  const_iterator find(T id) const {
    const_iterator it = std::lower_bound(begin(), end(), id);
    return it != end() && *it == id ? it : end();
  }
  size_t count(T id) const { return find(id) != end() ? 1 : 0; }

  std::pair<const_iterator, bool> insert(T id) {
    // Ascending inserts, the common case, append without a search.
    if (ids_.empty() || ids_.back() < id) {
      ids_.push_back(id);
      return {std::prev(end()), true};
    }
    const_iterator it = std::lower_bound(begin(), end(), id);
    if (*it == id) return {it, false};
    return {ids_.insert(it, id), true};
  }
  /// std::set's hinted insert. The hint is unused: an ascending insert
  /// appends anyway.
  const_iterator insert(const_iterator /*hint*/, T id) {
    return insert(id).first;
  }
  /// Inserts an ascending range of unique ids (another set's contents):
  /// one allocation at most, to exactly the union's size, then a merge
  /// from the back.
  template <typename It>
  void insert(It first, It last) {
    size_t missing = 0;
    for (It it = first; it != last; ++it) missing += count(*it) == 0 ? 1 : 0;
    if (missing == 0) return;
    size_t old = ids_.size();  // unmerged old ids are ids_[0, old)
    ids_.reserve(old + missing);
    ids_.resize(old + missing);
    size_t out = ids_.size();
    while (first != last) {
      const T id = *std::prev(last);
      if (old > 0 && ids_[old - 1] >= id) {
        if (ids_[old - 1] == id) --last;
        ids_[--out] = ids_[--old];
      } else {
        ids_[--out] = id;
        --last;
      }
    }
  }

  size_t erase(T id) {
    const_iterator it = find(id);
    if (it == end()) return 0;
    ids_.erase(it);
    return 1;
  }
  /// Erases every id `pred` accepts; returns how many.
  template <typename Pred>
  size_t erase_if(Pred pred) {
    const size_t before = ids_.size();
    ids_.erase(std::remove_if(ids_.begin(), ids_.end(), pred), ids_.end());
    return before - ids_.size();
  }
  void clear() { ids_.clear(); }

  friend bool operator==(const IdSet& a, const IdSet& b) {
    return a.ids_ == b.ids_;
  }

 private:
  void SortUnique() {
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  }

  std::vector<T> ids_;
};

/// In a vector of (id, value) pairs sorted by id, the first pair whose id
/// is not below `id`: the lookup of a flat id-keyed map.
template <typename Pairs, typename Id>
auto LowerBoundById(Pairs& pairs, Id id) {
  return std::lower_bound(
      pairs.begin(), pairs.end(), id,
      [](const auto& pair, Id key) { return pair.first < key; });
}

}  // namespace classic
