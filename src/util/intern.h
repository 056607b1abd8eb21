// Symbol interning.
//
// CLASSIC expressions are term graphs over a vocabulary of concept names,
// role names, individual names, primitive indices and test-function names.
// Interning every identifier once gives the rest of the system cheap
// integer identity comparison, which the normalization and subsumption
// algorithms rely on heavily.

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/stable_vector.h"

namespace classic {

/// Dense integer id of an interned string. Ids are stable for the lifetime
/// of the owning SymbolTable and start at 0.
using Symbol = uint32_t;

/// Sentinel for "no symbol".
inline constexpr Symbol kNoSymbol = static_cast<Symbol>(-1);

/// \brief Bidirectional string <-> dense-id map.
///
/// Thread-safe as a logically-const interning cache: concurrent readers
/// of a published snapshot may intern new names while parsing queries
/// (which never changes database meaning). Intern/Lookup serialize on a
/// mutex; Name/Contains/size are lock-free (ids are handed out only
/// after their string is published in the stable storage).
class SymbolTable {
 public:
  SymbolTable() = default;

  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// \brief Interns `name`, returning its stable id (existing or new).
  Symbol Intern(std::string_view name);

  /// \brief Returns the id of `name`, or kNoSymbol if never interned.
  Symbol Lookup(std::string_view name) const;

  /// \brief Returns the string for an id. `sym` must be valid. The
  /// reference stays valid for the table's lifetime.
  const std::string& Name(Symbol sym) const;

  /// \brief Returns true if `sym` is a valid id in this table.
  bool Contains(Symbol sym) const { return sym < names_.size(); }

  size_t size() const { return names_.size(); }

 private:
  /// Hashes a std::string and a std::string_view alike, so a lookup by
  /// view builds no std::string (heterogeneous lookup).
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  StableVector<std::string> names_;
  std::unordered_map<std::string, Symbol, NameHash, std::equal_to<>> ids_;
  mutable std::mutex mutex_;
};

}  // namespace classic
