// Small string helpers shared across modules.

#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace classic {

/// \brief Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// \brief Returns `s` with leading/trailing ASCII whitespace removed.
std::string_view StripWhitespace(std::string_view s);

/// \brief True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief Escapes a string for embedding in a double-quoted s-expression
/// literal (backslash-escapes `"` and `\`, encodes newline/tab).
std::string EscapeString(std::string_view s);

/// \brief EscapeString, appended to `*out` in place.
void AppendEscapedString(std::string_view s, std::string* out);

/// \brief Appends the decimal form of `v` (what StrCat writes for it).
void AppendInteger(int64_t v, std::string* out);

/// \brief Variadic string concatenation via operator<<.
template <typename... Args>
std::string StrCat(Args&&... args) {
  std::ostringstream oss;
  (oss << ... << std::forward<Args>(args));
  return oss.str();
}

}  // namespace classic
