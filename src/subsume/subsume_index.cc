#include "subsume/subsume_index.h"

namespace classic {

SubsumptionIndex::Table::Table(size_t capacity)
    : mask(capacity - 1),
      keys(new std::atomic<uint64_t>[capacity]),
      vals(new uint8_t[capacity]()) {
  for (size_t i = 0; i < capacity; ++i) {
    keys[i].store(kEmptyKey, std::memory_order_relaxed);
  }
}

std::optional<bool> SubsumptionIndex::Lookup(NfId general,
                                             NfId specific) const {
  const Table* t = live_.load(std::memory_order_acquire);
  if (t == nullptr) return std::nullopt;
  const uint64_t key = PackKey(general, specific);
  size_t i = HashKey(key) & t->mask;
  for (;;) {
    const uint64_t k = t->keys[i].load(std::memory_order_acquire);
    if (k == key) {
      // The verdict byte was written before the key was published, so
      // the acquire above makes it visible; it never changes after.
      return t->vals[i] != 0;
    }
    if (k == kEmptyKey) return std::nullopt;
    i = (i + 1) & t->mask;
  }
}

void SubsumptionIndex::Insert(NfId general, NfId specific, bool subsumes) {
  std::lock_guard<std::mutex> lock(insert_mutex_);
  Table* t = live_.load(std::memory_order_relaxed);
  const size_t n = size_.load(std::memory_order_relaxed);
  if (t == nullptr || (n + 1) * 10 >= (t->mask + 1) * 7) t = Grow(t);

  const uint64_t key = PackKey(general, specific);
  size_t i = HashKey(key) & t->mask;
  for (;;) {
    const uint64_t k = t->keys[i].load(std::memory_order_relaxed);
    if (k == key) return;  // verdicts never change
    if (k == kEmptyKey) break;
    i = (i + 1) & t->mask;
  }
  t->vals[i] = subsumes ? 1 : 0;
  // Publish value before key: a reader that sees the key sees the value.
  t->keys[i].store(key, std::memory_order_release);
  size_.fetch_add(1, std::memory_order_relaxed);
}

SubsumptionIndex::Table* SubsumptionIndex::Grow(Table* old) {
  const size_t new_cap = old == nullptr ? 1024 : (old->mask + 1) * 2;
  auto fresh = std::make_unique<Table>(new_cap);
  if (old != nullptr) {
    for (size_t i = 0; i <= old->mask; ++i) {
      const uint64_t key = old->keys[i].load(std::memory_order_relaxed);
      if (key == kEmptyKey) continue;
      size_t j = HashKey(key) & fresh->mask;
      while (fresh->keys[j].load(std::memory_order_relaxed) != kEmptyKey) {
        j = (j + 1) & fresh->mask;
      }
      fresh->vals[j] = old->vals[i];
      fresh->keys[j].store(key, std::memory_order_relaxed);
    }
  }
  Table* published = fresh.get();
  generations_.push_back(std::move(fresh));
  // Readers still probing the old generation stay valid (it is retired,
  // not freed); new lookups see the doubled table.
  live_.store(published, std::memory_order_release);
  return published;
}

}  // namespace classic
