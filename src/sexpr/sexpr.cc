#include "sexpr/sexpr.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/string_util.h"

namespace classic::sexpr {

namespace {

/// Tab-stop width used for column accounting (the convention every
/// diagnostic position follows; documented in sexpr.h).
constexpr uint32_t kTabWidth = 8;

/// The reader's lexer: the tokens of `input`, one at a time, with exact
/// 1-based line/column positions (the column convention in sexpr.h).
/// Whitespace and `;` comments between tokens are skipped.
class Lexer {
 public:
  enum class Token { kEnd, kOpen, kClose, kString, kAtom };

  explicit Lexer(std::string_view input) : input_(input) {}

  /// The next token's kind, not consumed; line() and column() are then
  /// its start.
  Token Peek();
  void ConsumeParen() { Advance(); }
  /// Consumes a string literal, appending its unescaped contents.
  Status ReadString(std::string* out);
  /// Consumes an atom: an integer, a real or a symbol.
  Value ReadAtom();

  uint32_t line() const { return line_; }
  uint32_t column() const { return col_; }
  /// " (line L, column C)" for the current position.
  std::string Here() const;

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Advance();

  std::string_view input_;
  size_t pos_ = 0;
  uint32_t line_ = 1;
  uint32_t col_ = 1;
};

/// Consumes one character, keeping the line/column counters true.
/// Column convention (see sexpr.h): columns are 1-based character
/// counts, except that a tab advances to the next 8-wide tab stop
/// (columns 9, 17, 25, ...) — matching how editors display the file,
/// instead of counting the tab as one raw byte.
char Lexer::Advance() {
  char c = input_[pos_++];
  if (c == '\n') {
    ++line_;
    col_ = 1;
  } else if (c == '\t') {
    col_ = ((col_ - 1) / kTabWidth + 1) * kTabWidth + 1;
  } else {
    ++col_;
  }
  return c;
}

std::string Lexer::Here() const {
  return StrCat(" (line ", line_, ", column ", col_, ")");
}

Lexer::Token Lexer::Peek() {
  while (!AtEnd()) {
    const char c = input_[pos_];
    if (c == ';') {  // comment to end of line
      while (!AtEnd() && input_[pos_] != '\n') Advance();
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      Advance();
    } else {
      break;
    }
  }
  if (AtEnd()) return Token::kEnd;
  switch (input_[pos_]) {
    case '(':
      return Token::kOpen;
    case ')':
      return Token::kClose;
    case '"':
      return Token::kString;
    default:
      return Token::kAtom;
  }
}

Status Lexer::ReadString(std::string* out) {
  const uint32_t line = line_, col = col_;
  Advance();  // consume '"'
  while (true) {
    // The run up to the next quote or escape is copied in one append;
    // only a run holding a newline or tab is stepped through Advance().
    const size_t run = pos_;
    bool plain = true;
    size_t end = run;
    for (; end < input_.size(); ++end) {
      const char c = input_[end];
      if (c == '"' || c == '\\') break;
      plain = plain && c != '\n' && c != '\t';
    }
    if (plain) {
      col_ += static_cast<uint32_t>(end - run);
      pos_ = end;
    }
    while (pos_ < end) Advance();
    out->append(input_.data() + run, end - run);
    if (AtEnd()) {
      return Status::InvalidArgument(
          StrCat("unterminated string literal (opened at line ", line,
                 ", column ", col, ")"));
    }
    if (Advance() == '"') return Status::OK();
    if (AtEnd()) {
      return Status::InvalidArgument(StrCat("dangling escape", Here()));
    }
    const char e = Advance();
    switch (e) {
      case 'n':
        *out += '\n';
        break;
      case 't':
        *out += '\t';
        break;
      case '"':
        *out += '"';
        break;
      case '\\':
        *out += '\\';
        break;
      default:
        return Status::InvalidArgument(StrCat("bad escape: \\", e, Here()));
    }
  }
}

bool LooksNumeric(const std::string& tok) {
  if (tok.empty()) return false;
  size_t i = (tok[0] == '+' || tok[0] == '-') ? 1 : 0;
  return i < tok.size() &&
         (std::isdigit(static_cast<unsigned char>(tok[i])) || tok[i] == '.');
}

/// Classifies an atom: integer, then real, else symbol. A leading sign
/// alone is a symbol.
Value AtomValue(std::string tok) {
  if (LooksNumeric(tok)) {
    errno = 0;
    char* end = nullptr;
    long long i = std::strtoll(tok.c_str(), &end, 10);
    if (errno == 0 && end == tok.c_str() + tok.size()) {
      return Value::MakeInteger(static_cast<int64_t>(i));
    }
    errno = 0;
    double d = std::strtod(tok.c_str(), &end);
    if (errno == 0 && end == tok.c_str() + tok.size()) {
      return Value::MakeReal(d);
    }
  }
  return Value::MakeSymbol(std::move(tok));
}

// An atom is any run of characters excluding whitespace, parens, quotes
// and the comment marker. `?:` prefixes (query markers) stay attached to
// the token and are split by the description parser.
Value Lexer::ReadAtom() {
  const uint32_t line = line_, col = col_;
  const size_t start = pos_;
  while (!AtEnd()) {
    const char c = input_[pos_];
    if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
        c == ')' || c == '"' || c == ';')
      break;
    Advance();
  }
  Value v = AtomValue(std::string(input_.substr(start, pos_ - start)));
  v.set_location(line, col);
  return v;
}


/// Recursive-descent reader over the lexer's tokens. Stamps every
/// produced Value with the position of its first character.
class Reader {
 public:
  using Token = Lexer::Token;

  explicit Reader(std::string_view input) : lex_(input) {}

  Result<Value> ReadOne() {
    if (lex_.Peek() == Token::kEnd) {
      return Status::InvalidArgument("empty input");
    }
    return ReadValue();
  }

  Status ForEach(const std::function<Status(Value)>& fn) {
    while (lex_.Peek() != Token::kEnd) {
      CLASSIC_ASSIGN_OR_RETURN(Value v, ReadValue());
      CLASSIC_RETURN_NOT_OK(fn(std::move(v)));
    }
    return Status::OK();
  }

  Status ExpectEnd() {
    if (lex_.Peek() != Token::kEnd) {
      return Status::InvalidArgument(
          StrCat("trailing input after expression", lex_.Here()));
    }
    return Status::OK();
  }

 private:
  /// Reads the value whose first token the caller has peeked.
  Result<Value> ReadValue() {
    const uint32_t line = lex_.line(), col = lex_.column();
    switch (lex_.Peek()) {
      case Token::kOpen:
        return ReadList();
      case Token::kString: {
        std::string text;
        CLASSIC_RETURN_NOT_OK(lex_.ReadString(&text));
        Value v = Value::MakeString(std::move(text));
        v.set_location(line, col);
        return v;
      }
      case Token::kAtom:
        return lex_.ReadAtom();
      case Token::kClose:
      case Token::kEnd:
        break;
    }
    return Status::InvalidArgument(StrCat("unexpected ')'", lex_.Here()));
  }

  Result<Value> ReadList() {
    const uint32_t line = lex_.line(), col = lex_.column();
    lex_.ConsumeParen();
    std::vector<Value> items;
    while (true) {
      const Token t = lex_.Peek();
      if (t == Token::kEnd) {
        return Status::InvalidArgument(StrCat(
            "unterminated list (opened at line ", line, ", column ", col, ")"));
      }
      if (t == Token::kClose) {
        lex_.ConsumeParen();
        Value v = Value::MakeList(std::move(items));
        v.set_location(line, col);
        return v;
      }
      CLASSIC_ASSIGN_OR_RETURN(Value v, ReadValue());
      items.push_back(std::move(v));
    }
  }

  Lexer lex_;
};

void Render(const Value& v, std::string* out) {
  switch (v.kind()) {
    case Kind::kSymbol:
      *out += v.text();
      break;
    case Kind::kInteger:
      *out += std::to_string(v.integer());
      break;
    case Kind::kReal: {
      double d = v.real();
      std::string s = std::to_string(d);
      // Trim trailing zeros but keep one digit after the point.
      size_t dot = s.find('.');
      if (dot != std::string::npos) {
        size_t last = s.find_last_not_of('0');
        if (last == dot) last = dot + 1;
        s.erase(last + 1);
      }
      *out += s;
      break;
    }
    case Kind::kString:
      AppendQuoted(v.text(), out);
      break;
    case Kind::kList: {
      *out += '(';
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) *out += ' ';
        Render(v.at(i), out);
      }
      *out += ')';
      break;
    }
  }
}

}  // namespace

void AppendQuoted(std::string_view text, std::string* out) {
  *out += '"';
  AppendEscapedString(text, out);
  *out += '"';
}

std::string Value::ToString() const {
  std::string out;
  Render(*this, &out);
  return out;
}

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kSymbol:
    case Kind::kString:
      return text_ == other.text_;
    case Kind::kInteger:
      return int_ == other.int_;
    case Kind::kReal:
      return real_ == other.real_;
    case Kind::kList:
      return items_ == other.items_;
  }
  return false;
}

std::string LocationSuffix(const Value& v) {
  if (!v.has_location()) return "";
  return StrCat(" (line ", v.line(), ", column ", v.column(), ")");
}

Result<Value> Parse(const std::string& input) {
  Reader reader(input);
  CLASSIC_ASSIGN_OR_RETURN(Value v, reader.ReadOne());
  CLASSIC_RETURN_NOT_OK(reader.ExpectEnd());
  return v;
}

Result<std::vector<Value>> ParseAll(const std::string& input) {
  std::vector<Value> out;
  CLASSIC_RETURN_NOT_OK(ForEachForm(input, [&out](Value v) {
    out.push_back(std::move(v));
    return Status::OK();
  }));
  return out;
}

Status ForEachForm(std::string_view input,
                   const std::function<Status(Value)>& fn) {
  Reader reader(input);
  return reader.ForEach(fn);
}

}  // namespace classic::sexpr
