#include "sexpr/sexpr.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/string_util.h"

namespace classic::sexpr {

namespace {

/// Recursive-descent reader over a raw character buffer. Tracks 1-based
/// line/column positions and stamps every produced Value with the
/// position of its first character.
class Reader {
 public:
  /// Tab-stop width used for column accounting (the convention every
  /// diagnostic position follows; documented in sexpr.h).
  static constexpr uint32_t kTabWidth = 8;

  explicit Reader(const std::string& input) : input_(input) {}

  Result<Value> ReadOne() {
    SkipSpace();
    if (AtEnd()) return Status::InvalidArgument("empty input");
    return ReadValue();
  }

  Result<std::vector<Value>> ReadMany() {
    std::vector<Value> out;
    while (true) {
      SkipSpace();
      if (AtEnd()) break;
      CLASSIC_ASSIGN_OR_RETURN(Value v, ReadValue());
      out.push_back(std::move(v));
    }
    return out;
  }

  Status ExpectEnd() {
    SkipSpace();
    if (!AtEnd()) {
      return Status::InvalidArgument(
          StrCat("trailing input after expression", Here()));
    }
    return Status::OK();
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }

  /// Consumes one character, keeping the line/column counters true.
  /// Column convention (see sexpr.h): columns are 1-based character
  /// counts, except that a tab advances to the next 8-wide tab stop
  /// (columns 9, 17, 25, ...) — matching how editors display the file,
  /// instead of counting the tab as one raw byte.
  char Advance() {
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

  /// " (line L, column C)" for the current position.
  std::string Here() const {
    return StrCat(" (line ", line_, ", column ", col_, ")");
  }

  /// Stamps `v` with a recorded start position and returns it.
  static Value At(Value v, uint32_t line, uint32_t col) {
    v.set_location(line, col);
    return v;
  }

  void SkipSpace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c == ';') {  // comment to end of line
        while (!AtEnd() && Peek() != '\n') Advance();
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else {
        break;
      }
    }
  }

  Result<Value> ReadValue() {
    char c = Peek();
    if (c == '(') return ReadList();
    if (c == ')') {
      return Status::InvalidArgument(StrCat("unexpected ')'", Here()));
    }
    if (c == '"') return ReadString();
    return ReadAtom();
  }

  Result<Value> ReadList() {
    uint32_t line = line_, col = col_;
    Advance();  // consume '('
    std::vector<Value> items;
    while (true) {
      SkipSpace();
      if (AtEnd()) {
        return Status::InvalidArgument(StrCat(
            "unterminated list (opened at line ", line, ", column ", col, ")"));
      }
      if (Peek() == ')') {
        Advance();
        return At(Value::MakeList(std::move(items)), line, col);
      }
      CLASSIC_ASSIGN_OR_RETURN(Value v, ReadValue());
      items.push_back(std::move(v));
    }
  }

  Result<Value> ReadString() {
    uint32_t line = line_, col = col_;
    Advance();  // consume '"'
    std::string out;
    while (true) {
      if (AtEnd()) {
        return Status::InvalidArgument(
            StrCat("unterminated string literal (opened at line ", line,
                   ", column ", col, ")"));
      }
      char c = Advance();
      if (c == '"') return At(Value::MakeString(std::move(out)), line, col);
      if (c == '\\') {
        if (AtEnd()) {
          return Status::InvalidArgument(StrCat("dangling escape", Here()));
        }
        char e = Advance();
        switch (e) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          default:
            return Status::InvalidArgument(
                StrCat("bad escape: \\", e, Here()));
        }
      } else {
        out += c;
      }
    }
  }

  // An atom is any run of characters excluding whitespace, parens, quotes
  // and the comment marker. `?:` prefixes (query markers) stay attached to
  // the token and are split by the description parser.
  Result<Value> ReadAtom() {
    uint32_t line = line_, col = col_;
    size_t start = pos_;
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
          c == ')' || c == '"' || c == ';')
        break;
      Advance();
    }
    std::string tok = input_.substr(start, pos_ - start);
    // Try integer, then real, else symbol. A leading sign alone is a symbol.
    if (LooksNumeric(tok)) {
      errno = 0;
      char* end = nullptr;
      long long i = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end == tok.c_str() + tok.size()) {
        return At(Value::MakeInteger(static_cast<int64_t>(i)), line, col);
      }
      errno = 0;
      double d = std::strtod(tok.c_str(), &end);
      if (errno == 0 && end == tok.c_str() + tok.size()) {
        return At(Value::MakeReal(d), line, col);
      }
    }
    return At(Value::MakeSymbol(std::move(tok)), line, col);
  }

  static bool LooksNumeric(const std::string& tok) {
    if (tok.empty()) return false;
    size_t i = (tok[0] == '+' || tok[0] == '-') ? 1 : 0;
    return i < tok.size() &&
           (std::isdigit(static_cast<unsigned char>(tok[i])) || tok[i] == '.');
  }

  const std::string& input_;
  size_t pos_ = 0;
  uint32_t line_ = 1;
  uint32_t col_ = 1;
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
  Reader reader(input);
  return reader.ReadMany();
}

}  // namespace classic::sexpr
