// S-expression values: the concrete syntax of CLASSIC.
//
// The paper writes every concept, individual expression, and database
// operator in a prefix LISP-like notation, e.g.
//
//   (AND STUDENT (ALL thing-driven SPORTS-CAR) (AT-LEAST 2 thing-driven))
//
// This module provides the value type plus a reader and printer. Parsing of
// s-expressions *into* descriptions lives in desc/parser.h; this layer is
// purely syntactic.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace classic::sexpr {

enum class Kind {
  kSymbol,   // bare identifier: STUDENT, thing-driven, Rocky, ?:
  kInteger,  // host integer literal: 42
  kReal,     // host real literal: 3.14
  kString,   // host string literal: "hello"
  kList,     // parenthesized list
};

/// \brief One node of an s-expression tree.
///
/// Values are immutable after construction; lists own their children.
/// The reader stamps every node with its 1-based line/column source
/// position (0 = unknown, e.g. for programmatically built values), which
/// error messages and the static analyzer surface to the user. Locations
/// are carried alongside the value and never participate in equality.
///
/// Column convention: a column is a 1-based character count within the
/// line, with one exception — a tab advances the column to the next
/// 8-wide tab stop (so a tab at column 1 puts the next character at
/// column 9, like an editor displaying the file with 8-space tabs).
/// Every diagnostic position in the system follows this convention.
class Value {
 public:
  static Value MakeSymbol(std::string name) {
    Value v(Kind::kSymbol);
    v.text_ = std::move(name);
    return v;
  }
  static Value MakeInteger(int64_t i) {
    Value v(Kind::kInteger);
    v.int_ = i;
    return v;
  }
  static Value MakeReal(double d) {
    Value v(Kind::kReal);
    v.real_ = d;
    return v;
  }
  static Value MakeString(std::string s) {
    Value v(Kind::kString);
    v.text_ = std::move(s);
    return v;
  }
  static Value MakeList(std::vector<Value> items) {
    Value v(Kind::kList);
    v.items_ = std::move(items);
    return v;
  }

  Kind kind() const { return kind_; }
  bool IsSymbol() const { return kind_ == Kind::kSymbol; }
  bool IsInteger() const { return kind_ == Kind::kInteger; }
  bool IsReal() const { return kind_ == Kind::kReal; }
  bool IsString() const { return kind_ == Kind::kString; }
  bool IsList() const { return kind_ == Kind::kList; }

  /// \brief Symbol name or string contents; valid for kSymbol / kString.
  const std::string& text() const { return text_; }
  int64_t integer() const { return int_; }
  double real() const { return real_; }

  /// \brief List elements; valid for kList.
  const std::vector<Value>& items() const { return items_; }
  size_t size() const { return items_.size(); }
  const Value& at(size_t i) const { return items_[i]; }

  /// \brief True if this is the symbol `name` (case-sensitive).
  bool IsSymbolNamed(const std::string& name) const {
    return IsSymbol() && text_ == name;
  }

  /// \brief True if this is a list whose first element is the symbol `head`.
  bool HasHead(const std::string& head) const {
    return IsList() && !items_.empty() && items_[0].IsSymbolNamed(head);
  }

  /// \brief 1-based source position, or 0 when unknown.
  uint32_t line() const { return line_; }
  uint32_t column() const { return column_; }
  bool has_location() const { return line_ != 0; }
  void set_location(uint32_t line, uint32_t column) {
    line_ = line;
    column_ = column;
  }

  /// \brief Renders back to concrete syntax (single line).
  std::string ToString() const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

 private:
  explicit Value(Kind kind) : kind_(kind) {}

  Kind kind_;
  uint32_t line_ = 0;
  uint32_t column_ = 0;
  std::string text_;
  int64_t int_ = 0;
  double real_ = 0.0;
  std::vector<Value> items_;
};

/// \brief Appends `text` as a string literal, quoted and escaped exactly as
/// Value::ToString renders a string value. Lets a writer render a known
/// form straight into one buffer instead of building Values.
void AppendQuoted(std::string_view text, std::string* out);

/// \brief Renders a location as " (line L, column C)", or "" when unknown.
/// Appended to reader/parser error messages so they point at real input
/// positions.
std::string LocationSuffix(const Value& v);

/// \brief Parses a single s-expression from `input`.
///
/// The whole input must be consumed (trailing whitespace/comments allowed).
Result<Value> Parse(const std::string& input);

/// \brief Parses a sequence of s-expressions (a program / operation log).
///
/// Lines starting with `;` are comments. Returns all toplevel forms.
Result<std::vector<Value>> ParseAll(const std::string& input);

/// \brief The per-form reader loop behind ParseAll: reads the toplevel
/// forms of `input` one at a time and hands each to `fn` as soon as it
/// is read, so only one form's tree is alive at once. Stops at the first
/// reader error or the first non-OK status `fn` returns, and returns it.
Status ForEachForm(std::string_view input,
                   const std::function<Status(Value)>& fn);

}  // namespace classic::sexpr
