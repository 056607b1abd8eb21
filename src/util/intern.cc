#include "util/intern.h"

#include <cassert>

namespace classic {

Symbol SymbolTable::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  Symbol id = static_cast<Symbol>(names_.size());
  names_.push_back(std::string(name));
  ids_.emplace(names_[id], id);
  return id;
}

Symbol SymbolTable::Lookup(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ids_.find(name);
  if (it == ids_.end()) return kNoSymbol;
  return it->second;
}

const std::string& SymbolTable::Name(Symbol sym) const {
  assert(Contains(sym));
  return names_[sym];
}

}  // namespace classic
