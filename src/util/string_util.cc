#include "util/string_util.h"

#include <charconv>

namespace classic {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' ||
                          s[b] == '\r'))
    ++b;
  size_t e = s.size();
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' ||
                   s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string EscapeString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscapedString(s, &out);
  return out;
}

void AppendEscapedString(std::string_view s, std::string* out) {
  // Copies each run of bytes that need no escape in one append.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char* escaped;
    switch (s[i]) {
      case '"':
        escaped = "\\\"";
        break;
      case '\\':
        escaped = "\\\\";
        break;
      case '\n':
        escaped = "\\n";
        break;
      case '\t':
        escaped = "\\t";
        break;
      default:
        continue;
    }
    out->append(s.data() + run, i - run);
    out->append(escaped, 2);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

void AppendInteger(int64_t v, std::string* out) {
  char buf[24];  // holds every int64_t, so to_chars cannot fail
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace classic
