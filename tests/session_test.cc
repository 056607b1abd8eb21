// Session facade tests: epoch pinning semantics (construct, sync,
// pin-historical, publish-and-repin), snapshot isolation of a pinned
// session across writer publishes, and the shared RequestFromForm
// parsing surface used by both the repl's (as-of ...) and the wire
// protocol.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "kb/session.h"

namespace classic {
namespace {

void BuildBase(Database* db) {
  ASSERT_TRUE(db->DefineRole("enrolled-at").ok());
  ASSERT_TRUE(
      db->DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING person)").ok());
  ASSERT_TRUE(
      db->DefineConcept("SCHOOL", "(PRIMITIVE CLASSIC-THING school)").ok());
  ASSERT_TRUE(db->DefineConcept(
                    "STUDENT", "(AND PERSON (AT-LEAST 1 enrolled-at))")
                  .ok());
  ASSERT_TRUE(db->CreateIndividual("Rutgers", "SCHOOL").ok());
  ASSERT_TRUE(db->CreateIndividual("Rocky", "PERSON").ok());
  ASSERT_TRUE(db->AssertInd("Rocky", "(FILLS enrolled-at Rutgers)").ok());
}

TEST(SessionTest, UnpinnedSessionAnswersNotFoundUntilPublish) {
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  Session session(&engine);
  EXPECT_FALSE(session.pinned());
  EXPECT_EQ(session.epoch(), 0u);

  QueryAnswer answer = session.Serve(QueryRequest::Ask("STUDENT"));
  EXPECT_EQ(answer.status.code(), StatusCode::kNotFound);

  EXPECT_FALSE(session.Sync().ok());
  EXPECT_TRUE(session.RetainedEpochs().empty());
}

TEST(SessionTest, PublishPinsAndServes) {
  Database db;
  BuildBase(&db);

  KbEngine engine(KbEngine::Options{.num_threads = 1});
  Session session(&engine);
  Result<uint64_t> epoch = session.Publish(db.kb());
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);
  EXPECT_TRUE(session.pinned());
  EXPECT_EQ(session.epoch(), 1u);

  QueryAnswer answer = session.Serve(QueryRequest::Ask("STUDENT"));
  ASSERT_TRUE(answer.status.ok());
  EXPECT_EQ(answer.values.ToVector(), (std::vector<std::string>{"Rocky"}));
}

TEST(SessionTest, PinnedSessionIsSnapshotIsolatedFromWriter) {
  Database db;
  BuildBase(&db);

  KbEngine engine(KbEngine::Options{.num_threads = 1});
  engine.PublishFrom(db.kb());

  // This session pins epoch 1 at construction.
  Session reader(&engine);
  ASSERT_EQ(reader.epoch(), 1u);
  const std::string before =
      reader.Serve(QueryRequest::Ask("STUDENT")).ToWire();

  // The writer moves on; the pinned reader must not.
  ASSERT_TRUE(db.CreateIndividual("Bullwinkle", "PERSON").ok());
  ASSERT_TRUE(
      db.AssertInd("Bullwinkle", "(FILLS enrolled-at Rutgers)").ok());
  engine.PublishFrom(db.kb());

  EXPECT_EQ(reader.epoch(), 1u);
  EXPECT_EQ(reader.Serve(QueryRequest::Ask("STUDENT")).ToWire(), before);

  // Sync is the explicit opt-in to the new epoch.
  Result<uint64_t> synced = reader.Sync();
  ASSERT_TRUE(synced.ok());
  EXPECT_EQ(*synced, 2u);
  EXPECT_NE(reader.Serve(QueryRequest::Ask("STUDENT")).ToWire(), before);

  // And PinEpoch is the explicit travel back.
  ASSERT_TRUE(reader.PinEpoch(1).ok());
  EXPECT_EQ(reader.Serve(QueryRequest::Ask("STUDENT")).ToWire(), before);

  EXPECT_EQ(reader.RetainedEpochs(), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(reader.PinEpoch(99).status().code(), StatusCode::kNotFound);
}

TEST(SessionTest, PerRequestAsOfOverridesThePin) {
  Database db;
  BuildBase(&db);

  KbEngine engine(KbEngine::Options{.num_threads = 1});
  engine.PublishFrom(db.kb());
  const std::string old_students =
      KbEngine::ServeQuery(engine.snapshot()->kb(),
                           QueryRequest::Ask("STUDENT"))
          .ToWire();

  ASSERT_TRUE(db.CreateIndividual("Bullwinkle", "PERSON").ok());
  ASSERT_TRUE(
      db.AssertInd("Bullwinkle", "(FILLS enrolled-at Rutgers)").ok());
  engine.PublishFrom(db.kb());

  Session session(&engine);  // pins epoch 2
  ASSERT_EQ(session.epoch(), 2u);

  std::vector<QueryAnswer> answers = session.ServeBatch({
      QueryRequest::Ask("STUDENT"),          // pinned epoch (2)
      QueryRequest::Ask("STUDENT").AsOf(1),  // routed to history
  });
  ASSERT_EQ(answers.size(), 2u);
  ASSERT_TRUE(answers[0].status.ok());
  ASSERT_TRUE(answers[1].status.ok());
  EXPECT_EQ(answers[1].ToWire(), old_students);
  EXPECT_NE(answers[0].ToWire(), answers[1].ToWire());
}

TEST(SessionTest, RequestFromFormAcceptsEveryReadOnlyForm) {
  struct Case {
    const char* form;
    QueryRequest::Kind kind;
    const char* text;
  };
  const std::vector<Case> cases = {
      {"(ask STUDENT)", QueryRequest::Kind::kAsk, "STUDENT"},
      {"(ask (AND PERSON (AT-LEAST 1 enrolled-at)))",
       QueryRequest::Kind::kAsk, "(AND PERSON (AT-LEAST 1 enrolled-at))"},
      {"(ask-possible STUDENT)", QueryRequest::Kind::kAskPossible, "STUDENT"},
      {"(ask-description STUDENT)", QueryRequest::Kind::kAskDescription,
       "STUDENT"},
      {"(select (?x) (?x STUDENT))", QueryRequest::Kind::kPathQuery,
       "(select (?x) (?x STUDENT))"},
      {"(instances PERSON)", QueryRequest::Kind::kInstancesOf, "PERSON"},
      {"(msc Rocky)", QueryRequest::Kind::kMostSpecificConcepts, "Rocky"},
      {"(describe Rocky)", QueryRequest::Kind::kDescribeIndividual, "Rocky"},
      {"(request ask \"STUDENT\" 3)", QueryRequest::Kind::kAsk, "STUDENT"},
  };
  for (const Case& c : cases) {
    Result<QueryRequest> req = Session::ParseRequest(c.form);
    ASSERT_TRUE(req.ok()) << c.form << ": " << req.status().ToString();
    EXPECT_EQ(req->kind, c.kind) << c.form;
    EXPECT_EQ(req->text, c.text) << c.form;
  }

  // The canonical form carries its epoch through.
  Result<QueryRequest> canonical =
      Session::ParseRequest("(request ask \"STUDENT\" 3)");
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(canonical->as_of_epoch, 3u);
}

TEST(SessionTest, RequestFromFormRejectsWriterAndMalformedForms) {
  for (const char* bad : {
           "(create-ind Nope)",        // writer op
           "(assert-ind Rocky x)",     // writer op
           "(publish)",                // engine op, not a query
           "(ask)",                    // missing operand
           "(describe)",               // missing operand
           "(describe (not a name))",  // operand must be a symbol
           "nonsense",                 // not even a form
       }) {
    EXPECT_FALSE(Session::ParseRequest(bad).ok()) << bad;
  }
}

TEST(SessionTest, ServeBatchMatchesEngineQueryBatchBytes) {
  Database db;
  BuildBase(&db);

  KbEngine engine(KbEngine::Options{.num_threads = 1});
  SnapshotPtr snap = engine.PublishFrom(db.kb());

  const std::vector<QueryRequest> probes = {
      QueryRequest::Ask("STUDENT"),
      QueryRequest::AskPossible("STUDENT"),
      QueryRequest::InstancesOf("PERSON"),
      QueryRequest::DescribeIndividual("Rocky"),
      QueryRequest::MostSpecificConcepts("Rocky"),
      QueryRequest::PathQuery("(select (?x) (?x STUDENT))"),
      QueryRequest::AskDescription("STUDENT"),
  };

  Session session(&engine);
  const std::vector<QueryAnswer> via_session = session.ServeBatch(probes);
  const std::vector<QueryAnswer> direct =
      engine.QueryBatchOn(*snap, probes, 1);
  ASSERT_EQ(via_session.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_session[i].ToWire(), direct[i].ToWire())
        << "probe#" << i;
  }
}

}  // namespace
}  // namespace classic
