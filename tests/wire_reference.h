// The Value-tree reference for the wire forms of requests and answers.
//
// QueryRequest::ToWire and QueryAnswer::ToWire/FromWire write and read
// their texts straight from and into buffers. These helpers build (or
// read) the sexpr::Value tree of the same forms, so a test can hold the
// direct codec to the tree reader and printer byte for byte.

#pragma once

#include <utility>
#include <vector>

#include "kb/kb_engine.h"
#include "sexpr/sexpr.h"
#include "util/string_util.h"

namespace classic::wire_reference {

/// (request <kind> "<text>" [<epoch>] [explain])
inline sexpr::Value RequestToSexpr(const QueryRequest& r) {
  std::vector<sexpr::Value> items;
  items.push_back(sexpr::Value::MakeSymbol("request"));
  items.push_back(sexpr::Value::MakeSymbol(QueryKindName(r.kind)));
  items.push_back(sexpr::Value::MakeString(r.text));
  if (r.as_of_epoch != 0) {
    items.push_back(
        sexpr::Value::MakeInteger(static_cast<int64_t>(r.as_of_epoch)));
  }
  if (r.explain) items.push_back(sexpr::Value::MakeSymbol("explain"));
  return sexpr::Value::MakeList(std::move(items));
}

/// (answer <code> "<message>" ("<value>" ...)), every value decoded from
/// the answer's list.
inline sexpr::Value AnswerToSexpr(const QueryAnswer& a) {
  std::vector<sexpr::Value> values;
  for (const std::string& v : a.values) {
    values.push_back(sexpr::Value::MakeString(v));
  }
  std::vector<sexpr::Value> items;
  items.push_back(sexpr::Value::MakeSymbol("answer"));
  items.push_back(sexpr::Value::MakeSymbol(StatusCodeName(a.status.code())));
  items.push_back(sexpr::Value::MakeString(a.status.message()));
  items.push_back(sexpr::Value::MakeList(std::move(values)));
  return sexpr::Value::MakeList(std::move(items));
}

/// The answer a tree in the answer's shape denotes.
inline Result<QueryAnswer> AnswerFromSexpr(const sexpr::Value& v) {
  if (!v.HasHead("answer") || v.size() != 4 || !v.at(1).IsSymbol() ||
      !v.at(2).IsString() || !v.at(3).IsList()) {
    return Status::InvalidArgument(
        StrCat("not an answer form: ", v.ToString()));
  }
  QueryAnswer out;
  const StatusCode code = StatusCodeFromName(v.at(1).text());
  if (code != StatusCode::kOk) out.status = Status(code, v.at(2).text());
  for (const sexpr::Value& item : v.at(3).items()) {
    if (!item.IsString()) {
      return Status::InvalidArgument(
          StrCat("answer values must be strings: ", v.ToString()));
    }
    out.values.Append(item.text());
  }
  return out;
}

}  // namespace classic::wire_reference
