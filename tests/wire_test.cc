// Wire-surface tests: the canonical QueryRequest/QueryAnswer
// serialization (an exhaustive round-trip property over every query
// kind, held to the Value-tree reference in wire_reference.h), the
// individuals' stored wire names, the length-prefixed frame codec under
// adversarial fragmentation, the control payloads, and the admission
// controller.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "serve/admission.h"
#include "serve/framing.h"
#include "sexpr/sexpr.h"
#include "wire_reference.h"
#include "workload.h"

namespace classic {
namespace {

using serve::AdmissionController;
using serve::Frame;
using serve::FrameDecoder;
using serve::Opcode;
using wire_reference::AnswerFromSexpr;
using wire_reference::AnswerToSexpr;
using wire_reference::RequestToSexpr;

/// Every query kind, via the shared QueryKindName mapping (no parallel
/// switch to fall out of sync with the enum).
std::vector<QueryRequest::Kind> AllKinds() {
  std::vector<QueryRequest::Kind> kinds;
  for (uint32_t k = 0;; ++k) {
    const auto kind = static_cast<QueryRequest::Kind>(k);
    if (k > 0 && kind == QueryRequest::Kind::kAsk) break;
    if (QueryKindFromName(QueryKindName(kind)) != kind) break;
    kinds.push_back(kind);
    if (kind == QueryRequest::Kind::kInstancesOf) break;
  }
  return kinds;
}

/// Texts that exercise every escaping path: plain, quotes, backslashes,
/// newlines/tabs, the 0x1f byte, and empties.
const std::vector<std::string>& HostileTexts() {
  static const std::vector<std::string> texts = {
      "",
      "STUDENT",
      "(AND PERSON (AT-LEAST 1 enrolled-at))",
      "with \"quotes\" inside",
      "back\\slash and \\\" mix",
      "line\nbreak\tand tab",
      std::string("unit\x1fseparator"),
      "trailing backslash \\",
  };
  return texts;
}

TEST(WireTest, RequestRoundTripIsExhaustiveOverKinds) {
  const std::vector<QueryRequest::Kind> kinds = AllKinds();
  ASSERT_EQ(kinds.size(), 7u) << "a new query kind must join this sweep";
  for (QueryRequest::Kind kind : kinds) {
    for (const std::string& text : HostileTexts()) {
      for (uint64_t epoch : {uint64_t{0}, uint64_t{1}, uint64_t{8},
                             uint64_t{1} << 40}) {
        for (bool explain : {false, true}) {
          QueryRequest original{kind, text, epoch, explain};
          EXPECT_EQ(original.ToWire(), RequestToSexpr(original).ToString());
          Result<QueryRequest> decoded =
              QueryRequest::FromWire(original.ToWire());
          ASSERT_TRUE(decoded.ok())
              << QueryKindName(kind) << " / " << original.ToWire() << ": "
              << decoded.status().ToString();
          EXPECT_TRUE(*decoded == original)
              << "round-trip mismatch for " << original.ToWire();
        }
      }
    }
  }
}

TEST(WireTest, RequestKindNameSurvivesTheWire) {
  for (QueryRequest::Kind kind : AllKinds()) {
    QueryRequest req{kind, "x"};
    const sexpr::Value v = RequestToSexpr(req);
    ASSERT_TRUE(v.HasHead("request"));
    EXPECT_EQ(v.at(1).text(), QueryKindName(kind));
  }
}

TEST(WireTest, RequestFromSexprRejectsMalformedForms) {
  for (const char* bad : {
           "(ask STUDENT)",                 // not the canonical head
           "(request)",                     // no kind
           "(request ask)",                 // no text
           "(request ask 3)",               // text not a string
           "(request publish \"x\")",       // writer op, not a query kind
           "(request nope \"x\")",          // unknown kind
           "(request ask \"x\" 0)",         // epoch must be positive
           "(request ask \"x\" -2)",        // negative epoch
           "(request ask \"x\" 1 2)",       // trailing junk
           "(request ask \"x\" explain 1)", // epoch must precede explain
           "(request ask \"x\" bogus)",     // unknown tail symbol
           "(request ask \"x\" \"explain\")",  // symbol, not a string
           "(request ask \"x\" 1 explain explain)",  // duplicated
       }) {
    EXPECT_FALSE(QueryRequest::FromWire(bad).ok()) << bad;
  }
}

TEST(WireTest, AnswerRoundTripPreservesStatusAndValues) {
  const std::vector<Status> statuses = {
      Status::OK(),
      Status::InvalidArgument("bad \"query\" text"),
      Status::NotFound("unknown individual: Rocky"),
      Status::AlreadyExists("x"),
      Status::Inconsistent("contradiction\nwith newline"),
      Status::NotImplemented(""),
      Status::IOError("disk on fire"),
      Status::Internal("bug"),
  };
  for (const Status& status : statuses) {
    QueryAnswer original;
    original.status = status;
    if (status.ok()) {
      for (const std::string& text : HostileTexts()) {
        original.values.Append(text);
      }
      EXPECT_EQ(original.values.ToVector(), HostileTexts());
    }
    // ToWire writes the form directly; it must render exactly as the
    // Value tree does.
    EXPECT_EQ(original.ToWire(), AnswerToSexpr(original).ToString());
    Result<QueryAnswer> decoded = QueryAnswer::FromWire(original.ToWire());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->status.code(), original.status.code());
    EXPECT_EQ(decoded->status.message(), original.status.message());
    EXPECT_EQ(decoded->values, original.values);
    EXPECT_EQ(decoded->values.ToVector(), original.values.ToVector());
    // Wire bytes are the harnesses' currency; a round trip never moves
    // them.
    EXPECT_EQ(decoded->ToWire(), original.ToWire());
  }
}

/// Malformed answer texts: FromWire and the tree reader reject them all.
const std::vector<std::string>& MalformedAnswers() {
  static const std::vector<std::string> texts = {
      "(answer)",
      "(answer OK)",
      "(answer OK \"\")",
      "(answer OK \"\" (1 2))",      // values must be strings
      "(answer 3 \"\" ())",          // code must be a symbol
      "(request ask \"x\")",
      "(answer OK \"\" (\"a",       // unterminated string
      "(answer 2.5 \"\" ())",        // numeric code
      "(answer OK \"\" ()) x",       // trailing input
      "(answer OK \"\" (\"a\" b))",  // a value that is not a string
  };
  return texts;
}

TEST(WireTest, AnswerFromSexprRejectsMalformedForms) {
  for (const std::string& bad : MalformedAnswers()) {
    EXPECT_FALSE(QueryAnswer::FromWire(bad).ok()) << bad;
  }
}

/// FromWire against the tree reader it stands in for: the same ok-ness
/// and, when both accept, the same status code, message and values, and
/// a re-encoding that is the reference's canonical form.
void ExpectDecodesLikeTreeReader(const std::string& text) {
  const Result<QueryAnswer> direct = QueryAnswer::FromWire(text);
  const Result<sexpr::Value> tree = sexpr::Parse(text);
  const Result<QueryAnswer> reference =
      tree.ok() ? AnswerFromSexpr(*tree) : tree.status();
  ASSERT_EQ(direct.ok(), reference.ok())
      << text << "\n  direct: " << direct.status().ToString()
      << "\n  tree:   " << reference.status().ToString();
  if (!direct.ok()) {
    EXPECT_EQ(direct.status().code(), reference.status().code()) << text;
    return;
  }
  EXPECT_EQ(direct->status.code(), reference->status.code()) << text;
  EXPECT_EQ(direct->status.message(), reference->status.message()) << text;
  EXPECT_EQ(direct->values, reference->values) << text;
  EXPECT_EQ(direct->values.ToVector(), reference->values.ToVector()) << text;
  EXPECT_EQ(direct->ToWire(), AnswerToSexpr(*reference).ToString()) << text;
}

TEST(WireTest, AnswerDecoderMatchesTreeReader) {
  std::vector<std::string> texts = MalformedAnswers();
  for (const Status& status :
       {Status::OK(), Status::NotFound("x"), Status::Internal("")}) {
    for (const std::string& text : HostileTexts()) {
      QueryAnswer answer;
      answer.status = status.ok() ? status : Status(status.code(), text);
      answer.values.Append(text);
      answer.values.Append("");
      answer.values.Append(text);
      texts.push_back(answer.ToWire());
    }
  }
  const std::vector<std::string> spaced = {
      "(answer OK \"\" ())",  // an empty value list
      "  (answer OK \"\" ())\n\t",
      "(answer\tOK\n\"m\"\n(\"a\"\t\"b\"))",
      "; leading comment\n(answer OK \"\" (\"a\" ; inside\n \"b\")) ; after",
      "(answer OK\"m\"(\"a\"\"b\"))",
      "(answer NotFound \"gone\" ())",
      "(answer NoSuchCode \"m\" (\"v\"))",
      "(answer 1e999 \"\" ())",   // out of range: a symbol, like 12abc
      "(answer 12abc \"\" ())",
      "(answer OK \"\\n\\t\\\"\\\\\" (\"\\n\" \"\\t\" \"\\\"\" \"\\\\\"))",
      "(answer OK \"\" (\"a\\q\"))",  // bad escape
      "(answer OK \"\" (\"a\\",       // dangling escape
      "(answer OK \"\" ()))",
      "(answer OK \"\" () \"v\")",
      "(answer OK \"m\" \"v\")",
      "(answer (OK) \"\" ())",
      "(ANSWER OK \"\" ())",
      "(answer OK \"\" ((\"v\")))",
      "",
      "   ",
      "; only a comment",
      ")",
      "answer",
      "\"answer\"",
  };
  texts.insert(texts.end(), spaced.begin(), spaced.end());
  // Every prefix of a well-formed answer is malformed in the same way.
  const std::string whole = texts[MalformedAnswers().size()];
  for (size_t n = 0; n < whole.size(); ++n) texts.push_back(whole.substr(0, n));
  for (const std::string& text : texts) ExpectDecodesLikeTreeReader(text);
}

// Value lists that differ only in where a 0x1f byte or a backslash falls
// must encode to different bytes: the harnesses compare wire bytes, so
// one value may never read as two, nor an escape as a separator.
TEST(WireTest, ValueListsNeverCollide) {
  const std::vector<std::vector<std::string>> lists = {
      {"a\x1f"
       "b"},
      {"a", "b"},
      {"a\x1f", "b"},
      {"a", "\x1f"
            "b"},
      {"a\\\x1f"
       "b"},
      {"a\\", "\x1f"
              "b"},
      {"a\\", "b"},
      {"a", "\\b"},
      {"a\\b"},
      {"a\" \"b"},
      {"a", "b", ""},
      {"", "a", "b"},
  };
  std::vector<std::string> wires;
  for (const std::vector<std::string>& list : lists) {
    QueryAnswer answer;
    for (const std::string& v : list) answer.values.Append(v);
    EXPECT_EQ(answer.values.ToVector(), list);
    wires.push_back(answer.ToWire());
    EXPECT_EQ(wires.back(), AnswerToSexpr(answer).ToString());
  }
  for (size_t i = 0; i < wires.size(); ++i) {
    for (size_t j = i + 1; j < wires.size(); ++j) {
      EXPECT_NE(wires[i], wires[j]) << i << " vs " << j;
    }
  }
}

// Every individual stores its wire name: IndividualName(id) quoted as
// sexpr::AppendQuoted writes it. Answers copy these names, so they must
// decode back to the display names, hostile host strings included.
TEST(WireTest, StoredWireNamesQuoteIndividualNames) {
  static_assert(sizeof(IndInfo) <= 56, "IndInfo grew");
  Database db;
  ASSERT_TRUE(db.DefineRole("r").ok());
  ASSERT_TRUE(db.DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING p)").ok());
  const std::string long_name = "An-individual-named-past-fifteen-bytes";
  ASSERT_TRUE(db.CreateIndividual(long_name, "PERSON").ok());
  ASSERT_TRUE(db.CreateIndividual(
                    "Rocky",
                    "(AND PERSON (FILLS r -7 -2.5 -12345678901 #t #f "
                    "\"q\\\"uote\" \"back\\\\slash\" \"new\\nline\" "
                    "\"tab\\tbed\" \"unit\x1fsep\"))")
                  .ok());
  const Vocabulary& vocab = db.kb().vocab();
  std::vector<std::string> hosts;
  for (IndId id = 0; id < vocab.num_individuals(); ++id) {
    std::string quoted;
    sexpr::AppendQuoted(vocab.IndividualName(id), &quoted);
    EXPECT_EQ(vocab.individual(id).wire_name, quoted) << id;
    if (vocab.individual(id).kind == IndKind::kHost) {
      hosts.push_back(vocab.IndividualName(id));
    }
  }
  const std::vector<std::string> want_hosts = {
      "-7",           "-2.5",
      "-12345678901", "#t",
      "#f",           "\"q\\\"uote\"",
      "\"back\\\\slash\"", "\"new\\nline\"",
      "\"tab\\tbed\"",     "\"unit\x1fsep\"",
  };
  EXPECT_EQ(hosts, want_hosts);

  // Neither CLASSIC individual is known to have 20 r fillers, so both
  // are possible; every host value is a necessary HOST-THING.
  QueryAnswer possible = KbEngine::ServeQuery(
      db.kb(),
      QueryRequest::AskPossible("(AND CLASSIC-THING (AT-LEAST 20 r))"));
  ASSERT_TRUE(possible.status.ok()) << possible.status.ToString();
  const std::vector<std::string> named = {long_name, "Rocky"};
  EXPECT_EQ(possible.values.ToVector(), named);
  QueryAnswer instances =
      KbEngine::ServeQuery(db.kb(), QueryRequest::InstancesOf("PERSON"));
  ASSERT_TRUE(instances.status.ok()) << instances.status.ToString();
  EXPECT_EQ(instances.values.ToVector(), named);
  QueryAnswer host_things =
      KbEngine::ServeQuery(db.kb(), QueryRequest::Ask("HOST-THING"));
  ASSERT_TRUE(host_things.status.ok()) << host_things.status.ToString();
  EXPECT_EQ(host_things.values.ToVector(), want_hosts);
  for (const QueryAnswer* a : {&possible, &instances, &host_things}) {
    EXPECT_EQ(a->ToWire(), AnswerToSexpr(*a).ToString());
    Result<QueryAnswer> decoded = QueryAnswer::FromWire(a->ToWire());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->values.ToVector(), a->values.ToVector());
  }
}

// Every request kind, with and without explain, over twenty generated
// KBs: the reply's bytes are the Value-tree reference's, and every stored
// wire name quotes its individual's display name.
TEST(WireTest, StandardWorkloadAnswersEncodeLikeTheReference) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Database db;
    const bench::StandardWorkload w =
        bench::BuildStandardWorkload(&db, 64, 256, seed);
    const Vocabulary& vocab = db.kb().vocab();
    for (IndId id = 0; id < vocab.num_individuals(); ++id) {
      std::string quoted;
      sexpr::AppendQuoted(vocab.IndividualName(id), &quoted);
      ASSERT_EQ(vocab.individual(id).wire_name, quoted) << seed << "/" << id;
    }
    std::vector<QueryRequest> requests;
    for (size_t k = 0; k < 4; ++k) {
      const std::vector<std::string>& defs = w.schema.defined_names;
      const std::string& def = defs[(seed + 7 * k) % defs.size()];
      const std::string& ind =
          w.individuals[(seed * 31 + 17 * k) % w.individuals.size()];
      const std::string& role =
          w.schema.role_names[k % w.schema.role_names.size()];
      requests.push_back(QueryRequest::Ask(def));
      requests.push_back(QueryRequest::AskPossible(def));
      requests.push_back(QueryRequest::AskDescription(def));
      requests.push_back(QueryRequest::PathQuery(
          StrCat("(select (?x ?y) (?x ", def, ") (?x ", role, " ?y))")));
      requests.push_back(QueryRequest::DescribeIndividual(ind));
      requests.push_back(QueryRequest::MostSpecificConcepts(ind));
      requests.push_back(QueryRequest::InstancesOf(def));
    }
    for (const QueryRequest& base : requests) {
      for (bool explain : {false, true}) {
        QueryRequest r = base;
        r.explain = explain;
        const QueryAnswer a = KbEngine::ServeQuery(db.kb(), r);
        ASSERT_TRUE(a.status.ok()) << r.ToWire() << ": " << a.status.ToString();
        ASSERT_EQ(a.ToWire(), AnswerToSexpr(a).ToString()) << r.ToWire();
        Result<QueryAnswer> decoded = QueryAnswer::FromWire(a.ToWire());
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        EXPECT_EQ(decoded->values, a.values) << r.ToWire();
      }
    }
  }
}

TEST(WireTest, FrameRoundTripAndPipelining) {
  std::string stream;
  serve::AppendFrame(Opcode::kRequest, "(ask STUDENT)", &stream);
  serve::AppendFrame(Opcode::kRequest, "", &stream);
  serve::AppendFrame(Opcode::kSync, "17", &stream);

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());

  std::vector<Frame> frames;
  while (true) {
    Result<std::optional<Frame>> next = decoder.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    frames.push_back(std::move(**next));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].opcode, Opcode::kRequest);
  EXPECT_EQ(frames[0].payload, "(ask STUDENT)");
  EXPECT_EQ(frames[1].payload, "");
  EXPECT_EQ(frames[2].opcode, Opcode::kSync);
  EXPECT_EQ(frames[2].payload, "17");
}

TEST(WireTest, DecoderHandlesByteAtATimeFragmentation) {
  const std::string stream =
      serve::EncodeFrame(Opcode::kAnswer, "(answer OK \"\" (\"Rocky\"))");
  FrameDecoder decoder;
  size_t yielded = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    decoder.Feed(stream.data() + i, 1);
    Result<std::optional<Frame>> next = decoder.Next();
    ASSERT_TRUE(next.ok());
    if (next->has_value()) {
      ++yielded;
      EXPECT_EQ(i, stream.size() - 1) << "frame completed early";
      EXPECT_EQ((*next)->payload, "(answer OK \"\" (\"Rocky\"))");
    }
  }
  EXPECT_EQ(yielded, 1u);
}

TEST(WireTest, DecoderRejectsMalformedInput) {
  {
    // Zero-length frame.
    FrameDecoder decoder;
    const char zero[5] = {0, 0, 0, 0, 0};
    decoder.Feed(zero, 4);
    EXPECT_FALSE(decoder.Next().ok());
  }
  {
    // Oversized length prefix.
    FrameDecoder decoder;
    const unsigned char huge[4] = {0x7f, 0xff, 0xff, 0xff};
    decoder.Feed(huge, 4);
    EXPECT_FALSE(decoder.Next().ok());
  }
  {
    // Unknown opcode.
    FrameDecoder decoder;
    const unsigned char bad[5] = {0, 0, 0, 1, 0x6e};
    decoder.Feed(bad, 5);
    EXPECT_FALSE(decoder.Next().ok());
  }
}

TEST(WireTest, ControlPayloadsRoundTrip) {
  const serve::HelloInfo hello{.protocol_version = 1, .epoch = 42};
  Result<serve::HelloInfo> hello2 =
      serve::DecodeHelloPayload(serve::EncodeHelloPayload(hello));
  ASSERT_TRUE(hello2.ok());
  EXPECT_EQ(hello2->protocol_version, 1u);
  EXPECT_EQ(hello2->epoch, 42u);

  Result<uint64_t> pinned =
      serve::DecodePinnedPayload(serve::EncodePinnedPayload(7));
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(*pinned, 7u);

  Result<std::pair<std::string, std::string>> error =
      serve::DecodeErrorPayload(serve::EncodeErrorPayload(
          serve::kErrorCodeOverloaded, "too \"busy\"\nright now"));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->first, "overloaded");
  EXPECT_EQ(error->second, "too \"busy\"\nright now");

  EXPECT_FALSE(serve::DecodeHelloPayload("(hello)").ok());
  EXPECT_FALSE(serve::DecodePinnedPayload("(pinned -1)").ok());
  EXPECT_FALSE(serve::ParseSyncEpoch("12x").ok());
  Result<uint64_t> epoch = serve::ParseSyncEpoch("123");
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 123u);
}

TEST(WireTest, AdmissionControllerBoundsInFlightWork) {
  AdmissionController admission({.max_in_flight = 2});
  EXPECT_TRUE(admission.TryAdmit());
  EXPECT_TRUE(admission.TryAdmit());
  EXPECT_FALSE(admission.TryAdmit());  // full: shed
  EXPECT_EQ(admission.in_flight(), 2u);
  EXPECT_EQ(admission.accepted(), 2u);
  EXPECT_EQ(admission.shed(), 1u);

  admission.Release();
  EXPECT_TRUE(admission.TryAdmit());  // slot came back
  admission.Release();
  admission.Release();
  EXPECT_EQ(admission.in_flight(), 0u);
  EXPECT_EQ(admission.accepted(), 3u);
  EXPECT_EQ(admission.shed(), 1u);
}

TEST(WireTest, ShedEverythingControllerIsLegal) {
  AdmissionController admission({.max_in_flight = 0});
  EXPECT_FALSE(admission.TryAdmit());
  EXPECT_FALSE(admission.TryAdmit());
  EXPECT_EQ(admission.shed(), 2u);
  EXPECT_EQ(admission.in_flight(), 0u);
}

TEST(WireTest, StatusCodeNamesRoundTrip) {
  for (StatusCode code : {StatusCode::kOk, StatusCode::kInvalidArgument,
                          StatusCode::kNotFound, StatusCode::kAlreadyExists,
                          StatusCode::kInconsistent,
                          StatusCode::kNotImplemented, StatusCode::kIOError,
                          StatusCode::kInternal}) {
    EXPECT_EQ(StatusCodeFromName(StatusCodeName(code)), code);
  }
  // Unknown names decode to kInternal, never silently to OK.
  EXPECT_EQ(StatusCodeFromName("NoSuchCode"), StatusCode::kInternal);
}

}  // namespace
}  // namespace classic
