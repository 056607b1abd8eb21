#include "kb/fills_index.h"

#include <algorithm>

namespace classic {

std::vector<IndId> FillsIndex::Holders(IndId filler) const {
  const RolePostings* by_role = by_filler_.Find(filler);
  if (by_role == nullptr) return {};
  std::vector<IndId> out;
  for (const auto& [role, holders] : *by_role) {
    out.insert(out.end(), holders.begin(), holders.end());
  }
  if (by_role->size() > 1) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

}  // namespace classic
