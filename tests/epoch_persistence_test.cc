// Persistence guarantees of O(delta) copy-on-write epoch publication.
//
// The contract (kb/knowledge_base.h Clone, kb/kb_engine.h Publish): a
// published epoch is an immutable value. Later mutations of the live
// master — however many chunks they path-copy, however many boxed
// values they copy — must never move a byte of any answer served
// from an older epoch. These tests publish, mutate, re-publish, and
// compare QueryAnswer::ToWire() bytes on the old epochs; they also
// hold retraction to its multiset semantics over the persistent stores
// and check the as-of routing plus the frozen visibility bound.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "classic/database.h"
#include "classic/interpreter.h"
#include "index_check.h"
#include "kb/kb_engine.h"

namespace classic {
namespace {

/// A small but structurally varied base: primitives, a defined concept,
/// role fillers, and a host-value attribute.
void BuildBase(Database* db) {
  ASSERT_TRUE(db->DefineRole("enrolled-at").ok());
  ASSERT_TRUE(db->DefineRole("age").ok());
  ASSERT_TRUE(
      db->DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING person)").ok());
  ASSERT_TRUE(
      db->DefineConcept("SCHOOL", "(PRIMITIVE CLASSIC-THING school)").ok());
  ASSERT_TRUE(db->DefineConcept(
                    "STUDENT", "(AND PERSON (AT-LEAST 1 enrolled-at))")
                  .ok());
  ASSERT_TRUE(db->CreateIndividual("Rutgers", "SCHOOL").ok());
  ASSERT_TRUE(db->CreateIndividual("Rocky", "PERSON").ok());
  ASSERT_TRUE(db->CreateIndividual("Bullwinkle", "PERSON").ok());
  ASSERT_TRUE(
      db->AssertInd("Rocky", "(FILLS enrolled-at Rutgers)").ok());
  ASSERT_TRUE(db->AssertInd("Rocky", "(FILLS age 21)").ok());
}

std::vector<QueryRequest> ProbeRequests() {
  return {
      QueryRequest::Ask("STUDENT"),
      QueryRequest::Ask("PERSON"),
      QueryRequest::AskPossible("STUDENT"),
      QueryRequest::InstancesOf("PERSON"),
      QueryRequest::DescribeIndividual("Rocky"),
      QueryRequest::MostSpecificConcepts("Rocky"),
      QueryRequest::PathQuery(
          "(select (?x ?y) (?x STUDENT) (?x enrolled-at ?y))"),
  };
}

/// Publishes the live database and checks the indexes of both the
/// master it was taken from and the published snapshot.
SnapshotPtr PublishChecked(KbEngine* engine, Database* db) {
  SnapshotPtr snap = engine->PublishFrom(db->kb());
  EXPECT_TRUE(CheckIndexes(db->kb()))
      << "master after epoch " << snap->epoch();
  EXPECT_TRUE(CheckIndexes(snap->kb())) << "epoch " << snap->epoch();
  return snap;
}

std::vector<std::string> Wires(const std::vector<QueryAnswer>& answers) {
  std::vector<std::string> out;
  out.reserve(answers.size());
  for (const QueryAnswer& a : answers) out.push_back(a.ToWire());
  return out;
}

TEST(EpochPersistenceTest, OldEpochBytesSurviveMutationAndRepublish) {
  Database db;
  BuildBase(&db);

  KbEngine engine(KbEngine::Options{.num_threads = 1});
  SnapshotPtr epoch1 = PublishChecked(&engine, &db);
  ASSERT_EQ(epoch1->epoch(), 1u);

  const std::vector<QueryRequest> probes = ProbeRequests();
  const std::vector<std::string> before =
      Wires(engine.QueryBatchOn(*epoch1, probes, 1));

  // Mutate heavily: new schema, new individuals, new fillers on an
  // existing individual — each of these path-copies chunks and copies
  // boxed values the old epoch shares.
  ASSERT_TRUE(
      db.DefineConcept("EMPLOYEE", "(AND PERSON (AT-LEAST 1 age))").ok());
  ASSERT_TRUE(db.CreateIndividual("Natasha", "PERSON").ok());
  ASSERT_TRUE(
      db.AssertInd("Bullwinkle", "(FILLS enrolled-at Rutgers)").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        db.CreateIndividual("Extra-" + std::to_string(i), "PERSON").ok());
  }

  SnapshotPtr epoch2 = PublishChecked(&engine, &db);
  ASSERT_EQ(epoch2->epoch(), 2u);

  // The old epoch answers byte-identically to its pre-mutation self.
  const std::vector<std::string> after =
      Wires(engine.QueryBatchOn(*epoch1, probes, 1));
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "probe#" << i;
  }

  // The new epoch sees the mutations (Bullwinkle became a STUDENT).
  QueryAnswer now = KbEngine::ServeQuery(epoch2->kb(),
                                         QueryRequest::Ask("STUDENT"));
  ASSERT_TRUE(now.status.ok());
  EXPECT_NE(now.ToWire(), before[0]);
}

TEST(EpochPersistenceTest, AsOfRoutingServesRetainedEpochs) {
  Database db;
  BuildBase(&db);

  KbEngine engine(KbEngine::Options{.num_threads = 1});
  SnapshotPtr epoch1 = PublishChecked(&engine, &db);
  const std::string old_students =
      KbEngine::ServeQuery(epoch1->kb(), QueryRequest::Ask("STUDENT"))
          .ToWire();

  ASSERT_TRUE(
      db.AssertInd("Bullwinkle", "(FILLS enrolled-at Rutgers)").ok());
  PublishChecked(&engine, &db);

  // A current batch with an as-of marker routes to the retained epoch.
  std::vector<QueryRequest> batch;
  batch.push_back(QueryRequest::Ask("STUDENT"));          // current
  batch.push_back(QueryRequest::Ask("STUDENT").AsOf(1));  // history
  std::vector<QueryAnswer> answers = engine.QueryBatch(batch, 1);
  ASSERT_EQ(answers.size(), 2u);
  ASSERT_TRUE(answers[0].status.ok());
  ASSERT_TRUE(answers[1].status.ok());
  EXPECT_EQ(answers[1].ToWire(), old_students);
  EXPECT_NE(answers[0].ToWire(), answers[1].ToWire());

  // Unretained epochs fail with NotFound rather than a wrong answer.
  std::vector<QueryAnswer> missing =
      engine.QueryBatch({QueryRequest::Ask("STUDENT").AsOf(99)}, 1);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].status.code(), StatusCode::kNotFound);

  EXPECT_EQ(engine.RetainedEpochs(),
            (std::vector<uint64_t>{1, 2}));
}

TEST(EpochPersistenceTest, PostFreezeIndividualsInvisibleInOldEpochs) {
  Database db;
  BuildBase(&db);

  KbEngine engine(KbEngine::Options{.num_threads = 1});
  SnapshotPtr epoch1 = PublishChecked(&engine, &db);

  // The vocabulary is SHARED across epochs, so this name is interned in
  // the directory epoch 1 reads — visibility must come from the frozen
  // bound, not the directory.
  ASSERT_TRUE(db.CreateIndividual("Late", "PERSON").ok());
  SnapshotPtr epoch2 = PublishChecked(&engine, &db);

  QueryAnswer old_view = KbEngine::ServeQuery(
      epoch1->kb(), QueryRequest::DescribeIndividual("Late"));
  EXPECT_EQ(old_view.status.code(), StatusCode::kNotFound);

  QueryAnswer new_view = KbEngine::ServeQuery(
      epoch2->kb(), QueryRequest::DescribeIndividual("Late"));
  EXPECT_TRUE(new_view.status.ok());
}

TEST(EpochPersistenceTest, RetractionKeepsMultisetSemantics) {
  Database db;
  ASSERT_TRUE(db.DefineRole("r").ok());
  ASSERT_TRUE(
      db.DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING person)").ok());
  ASSERT_TRUE(
      db.DefineConcept("LINKED", "(AND PERSON (AT-LEAST 1 r))").ok());
  ASSERT_TRUE(db.CreateIndividual("Alice", "PERSON").ok());
  ASSERT_TRUE(db.CreateIndividual("Bob", "PERSON").ok());

  // Assert the SAME expression twice: the base log is a multiset.
  ASSERT_TRUE(db.AssertInd("Alice", "(FILLS r Bob)").ok());
  ASSERT_TRUE(db.AssertInd("Alice", "(FILLS r Bob)").ok());

  KbEngine engine(KbEngine::Options{.num_threads = 1});
  SnapshotPtr epoch1 = PublishChecked(&engine, &db);
  const std::string linked_before =
      KbEngine::ServeQuery(epoch1->kb(), QueryRequest::Ask("LINKED"))
          .ToWire();

  // One retraction removes ONE of the two entries; the surviving entry
  // keeps the derivation alive after the full re-derive over the
  // persistent chunked stores.
  ASSERT_TRUE(db.RetractInd("Alice", "(FILLS r Bob)").ok());
  auto still = db.Ask("LINKED");
  ASSERT_TRUE(still.ok());
  ASSERT_EQ(still->size(), 1u);
  EXPECT_EQ((*still)[0], "Alice");

  // The second retraction empties the multiset and the derivation.
  ASSERT_TRUE(db.RetractInd("Alice", "(FILLS r Bob)").ok());
  auto gone = db.Ask("LINKED");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->empty());

  // A third retraction has nothing to remove.
  EXPECT_FALSE(db.RetractInd("Alice", "(FILLS r Bob)").ok());

  // The epoch published before the retractions never moved.
  SnapshotPtr epoch2 = PublishChecked(&engine, &db);
  EXPECT_EQ(
      KbEngine::ServeQuery(epoch1->kb(), QueryRequest::Ask("LINKED"))
          .ToWire(),
      linked_before);
  EXPECT_NE(
      KbEngine::ServeQuery(epoch2->kb(), QueryRequest::Ask("LINKED"))
          .ToWire(),
      linked_before);
}

TEST(EpochPersistenceTest, InterpreterEpochOps) {
  Database db;
  Interpreter interp(&db);

  auto run = [&](const std::string& form) {
    auto r = interp.ExecuteString(form);
    EXPECT_TRUE(r.ok()) << form << ": " << r.status().ToString();
    return r.ok() ? *r : std::string();
  };

  run("(define-role enrolled-at)");
  run("(define-concept PERSON (PRIMITIVE CLASSIC-THING person))");
  run("(define-concept STUDENT (AND PERSON (AT-LEAST 1 enrolled-at)))");
  run("(create-ind Rutgers)");
  run("(create-ind Rocky PERSON)");
  run("(assert-ind Rocky (FILLS enrolled-at Rutgers))");

  EXPECT_EQ(run("(publish)"), "epoch 1");
  EXPECT_TRUE(CheckIndexes(db.kb()));
  EXPECT_EQ(run("(epochs)"), "(1)");
  EXPECT_EQ(run("(as-of 1 (ask STUDENT))"), "(Rocky)");

  run("(create-ind Bullwinkle PERSON)");
  run("(assert-ind Bullwinkle (FILLS enrolled-at Rutgers))");
  EXPECT_EQ(run("(publish)"), "epoch 2");
  EXPECT_TRUE(CheckIndexes(db.kb()));
  EXPECT_EQ(run("(epochs)"), "(1 2)");

  // History vs present.
  EXPECT_EQ(run("(as-of 1 (ask STUDENT))"), "(Rocky)");
  EXPECT_EQ(run("(as-of 2 (ask STUDENT))"), run("(ask STUDENT)"));

  // Errors: unretained epoch, non-query form.
  EXPECT_FALSE(interp.ExecuteString("(as-of 7 (ask STUDENT))").ok());
  EXPECT_FALSE(
      interp.ExecuteString("(as-of 1 (create-ind Nope))").ok());
}

}  // namespace
}  // namespace classic
