// Tests for persistence: the operation log, snapshots, and recovery.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "classic/database.h"
#include "classic/interpreter.h"
#include "query/introspect.h"
#include "storage/log.h"
#include "storage/snapshot.h"
#include "workload.h"

namespace classic {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class StorageTest : public ::testing::Test {
 protected:
  void Must(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }
  template <typename T>
  T Must(Result<T> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  void BuildSampleDb(Database* db) {
    Must(db->DefineRole("enrolled-at"));
    Must(db->DefineAttribute("advisor"));
    Must(db->DefineConcept("PERSON", "(PRIMITIVE CLASSIC-THING person)"));
    Must(db->DefineConcept("STUDENT",
                           "(AND PERSON (AT-LEAST 1 enrolled-at))"));
    Must(db->AssertRule("STUDENT", "(AT-LEAST 1 advisor)"));
    Must(db->CreateIndividual("Rutgers"));
    Must(db->CreateIndividual("Rocky", "PERSON"));
    Must(db->AssertInd("Rocky", "(FILLS enrolled-at Rutgers)"));
  }
};

TEST_F(StorageTest, OperationLogRoundTrip) {
  std::string path = TempPath("classic_log_test.log");
  std::remove(path.c_str());
  {
    storage::OperationLog log;
    Must(log.Open(path));
    Must(log.AppendLine("(define-role r)"));
    Must(log.AppendLine("(create-ind Rocky)"));
  }
  auto ops = Must(storage::ReadOperations(path));
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(ops[0].HasHead("define-role"));
  EXPECT_TRUE(ops[1].HasHead("create-ind"));
  std::remove(path.c_str());
}

TEST_F(StorageTest, AppendWithoutOpenFails) {
  storage::OperationLog log;
  EXPECT_TRUE(log.AppendLine("(x)").IsIOError());
}

TEST_F(StorageTest, ReadMissingFileFails) {
  EXPECT_TRUE(
      storage::ReadOperations("/nonexistent/x.log").status().IsIOError());
}

TEST_F(StorageTest, UnreadableFileIsAnIOError) {
  // A directory opens for reading, but every read of it fails: that is an
  // I/O error, not an empty file that loads nothing.
  const std::string dir = ::testing::TempDir();
  EXPECT_TRUE(storage::ReadOperations(dir).status().IsIOError());
  Database db;
  EXPECT_TRUE(db.LoadFile(dir).IsIOError());
}

TEST_F(StorageTest, MalformedLastFormAppliesNothing) {
  // Valid forms, then a torn tail: the load fails and applies none of
  // the forms before it.
  std::string path = TempPath("classic_torn_tail.log");
  {
    std::ofstream out(path);
    out << "(define-role r)\n"
           "(define-concept PERSON (PRIMITIVE CLASSIC-THING person))\n"
           "(create-ind Rocky)\n"
           "(assert-ind Rocky PERSON)\n"
           "(create-ind Bullwinkle";
  }
  const Database fresh;
  Database db;
  Status st = db.LoadFile(path);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("unterminated"), std::string::npos);
  const Vocabulary& vocab = db.kb().vocab();
  EXPECT_EQ(vocab.num_individuals(), fresh.kb().vocab().num_individuals());
  EXPECT_EQ(vocab.num_concepts(), fresh.kb().vocab().num_concepts());
  EXPECT_EQ(vocab.num_roles(), fresh.kb().vocab().num_roles());
  EXPECT_FALSE(db.FindIndividual("Rocky").ok());
  std::remove(path.c_str());
}

TEST_F(StorageTest, SnapshotCapturesBase) {
  Database db;
  BuildSampleDb(&db);
  std::string dump = storage::DumpDatabase(db.kb());
  EXPECT_NE(dump.find("(define-role enrolled-at)"), std::string::npos);
  EXPECT_NE(dump.find("(define-attribute advisor)"), std::string::npos);
  EXPECT_NE(dump.find("(define-concept STUDENT"), std::string::npos);
  EXPECT_NE(dump.find("(assert-rule STUDENT"), std::string::npos);
  EXPECT_NE(dump.find("(create-ind Rocky)"), std::string::npos);
  EXPECT_NE(dump.find("(assert-ind Rocky (FILLS enrolled-at Rutgers))"),
            std::string::npos);
  // Derived facts (advisor from the rule) are NOT in the snapshot; they
  // are recomputed on replay.
  EXPECT_EQ(dump.find("(assert-ind Rocky (AT-LEAST 1 advisor))"),
            std::string::npos);
}

TEST_F(StorageTest, SnapshotRestoresFullState) {
  std::string path = TempPath("classic_snapshot_test.snap");
  Database db;
  BuildSampleDb(&db);
  Must(db.SaveSnapshot(path));

  Database restored;
  Must(restored.LoadFile(path));
  // Recognition and rules re-derived.
  auto students = Must(restored.Ask("STUDENT"));
  ASSERT_EQ(students.size(), 1u);
  EXPECT_EQ(students[0], "Rocky");
  std::string rocky = Must(restored.DescribeIndividual("Rocky"));
  EXPECT_NE(rocky.find("advisor"), std::string::npos) << rocky;
  std::remove(path.c_str());
}

TEST_F(StorageTest, OperationLogRecovery) {
  std::string path = TempPath("classic_wal_test.log");
  std::remove(path.c_str());
  {
    Database db;
    Must(db.OpenLog(path));
    BuildSampleDb(&db);
    // A rejected update must NOT be logged.
    EXPECT_FALSE(db.AssertInd("Rocky", "(AT-MOST 0 enrolled-at)").ok());
  }
  Database recovered;
  Must(recovered.LoadFile(path));
  EXPECT_EQ(Must(recovered.Ask("STUDENT")).size(), 1u);
  // The rejected op is absent, so the state is consistent.
  EXPECT_EQ(Must(recovered.Fillers("Rocky", "enrolled-at")).size(), 1u);
  std::remove(path.c_str());
}

TEST_F(StorageTest, SnapshotOfRestoredDbIsStable) {
  // snapshot(restore(snapshot(db))) == snapshot(db): a fixpoint.
  std::string p1 = TempPath("classic_snap1.snap");
  Database db;
  BuildSampleDb(&db);
  Must(db.SaveSnapshot(p1));
  Database again;
  Must(again.LoadFile(p1));
  std::string d1 = storage::DumpDatabase(db.kb());
  std::string d2 = storage::DumpDatabase(again.kb());
  EXPECT_EQ(d1, d2);
  std::remove(p1.c_str());
}

// Every individual-expression kind goes into the base log here, on top of
// the standard workload at 1k individuals: a save and a reload must give
// back the same program, the same derived state and, individual by
// individual, the same told description.
TEST_F(StorageTest, SnapshotIsAFixpointOverEveryAssertionKind) {
  const TestFn positive = [](const TestArg& a) {
    return a.host != nullptr && a.host->IsNumber() && a.host->AsDouble() > 0;
  };
  Database db;
  Must(db.RegisterTest("positive", positive));
  bench::BuildStandardWorkload(&db, /*num_concepts=*/120,
                               /*num_individuals=*/1000, /*seed=*/7);
  Must(db.DefineRole("friend"));
  Must(db.DefineRole("rating"));
  Must(db.DefineRole("tag"));
  Must(db.DefineAttribute("boss"));
  Must(db.DefineAttribute("mentor"));
  Must(db.DefineConcept("EMPLOYEE", "(PRIMITIVE CLASSIC-THING employee)"));
  for (const char* name : {"Ann", "Bob", "Cid"}) {
    Must(db.CreateIndividual(name));
  }
  const char* told[] = {
      "EMPLOYEE",                                            // concept name
      "(AND EMPLOYEE (AT-LEAST 1 friend))",                  // AND, AT-LEAST
      "(ALL friend (ALL friend EMPLOYEE))",                  // nested ALL
      "(AT-MOST 3 friend)",                                  // AT-MOST
      "(ALL rating (TEST positive))",                        // TEST
      "(ALL rating NUMBER)",                                 // a builtin
      "(SAME-AS (boss) (mentor))",                           // SAME-AS
      R"((ALL tag (ONE-OF 1 2.5 #t "say \"hi\" \\ bye")))",  // ONE-OF
      "(FILLS friend Bob Cid)",                              // named fillers
      "(FILLS rating 7 2.5)",                                // integer, real
      R"((FILLS tag #t "say \"hi\" \\ bye"))",             // boolean, string
      "(CLOSE friend)",                                      // CLOSE
  };
  for (const char* expression : told) Must(db.AssertInd("Ann", expression));
  Must(db.AssertInd("Bob", "(FILLS boss Cid)"));

  const std::string path = TempPath("classic_every_kind.snap");
  Must(db.SaveSnapshot(path));
  Database again;
  Must(again.RegisterTest("positive", positive));
  Must(again.LoadFile(path));
  std::remove(path.c_str());

  EXPECT_EQ(storage::DumpDatabase(again.kb()), storage::DumpDatabase(db.kb()));
  EXPECT_EQ(again.kb().CanonicalDerivedState(),
            db.kb().CanonicalDerivedState());
  const Vocabulary& vocab = db.kb().vocab();
  ASSERT_EQ(again.kb().vocab().num_individuals(), vocab.num_individuals());
  size_t compared = 0;
  for (IndId ind : db.kb().AllClassicIndividuals()) {
    const std::string& name = vocab.symbols().Name(vocab.individual(ind).name);
    const IndId reloaded = Must(again.FindIndividual(name));
    const DescPtr before = Must(IndTold(db.kb(), ind));
    const DescPtr after = Must(IndTold(again.kb(), reloaded));
    ASSERT_EQ(after->ToString(again.kb().vocab().symbols()),
              before->ToString(vocab.symbols()))
        << name;
    ++compared;
  }
  EXPECT_EQ(compared, 1003u);
  const DescPtr ann = Must(IndTold(db.kb(), Must(db.FindIndividual("Ann"))));
  EXPECT_EQ(ann->conjuncts().size(), std::size(told));
}

TEST_F(StorageTest, CloseSurvivesReplay) {
  std::string path = TempPath("classic_close_replay.snap");
  Database db;
  Must(db.DefineRole("r"));
  Must(db.CreateIndividual("A"));
  Must(db.CreateIndividual("B"));
  Must(db.AssertInd("A", "(FILLS r B)"));
  Must(db.AssertInd("A", "(CLOSE r)"));
  Must(db.SaveSnapshot(path));
  Database restored;
  Must(restored.LoadFile(path));
  EXPECT_TRUE(Must(restored.RoleClosed("A", "r")));
  // Replay preserved the CLOSE-after-FILLS ordering: one filler, bound 1.
  EXPECT_EQ(Must(restored.Fillers("A", "r")).size(), 1u);
  std::remove(path.c_str());
}

TEST_F(StorageTest, CheckpointTruncatesLogAndStaysRecoverable) {
  std::string log_path = TempPath("classic_ckpt.log");
  std::string snap_path = TempPath("classic_ckpt.snap");
  std::remove(log_path.c_str());
  {
    Database db;
    Must(db.OpenLog(log_path));
    BuildSampleDb(&db);
    Must(db.Checkpoint(snap_path));
    // After the checkpoint the log is empty...
    auto ops = Must(storage::ReadOperations(log_path));
    EXPECT_EQ(ops.size(), 0u);
    // ...and new operations land in it.
    Must(db.CreateIndividual("PostCkpt"));
    ops = Must(storage::ReadOperations(log_path));
    EXPECT_EQ(ops.size(), 1u);
  }
  // Recovery: snapshot, then the tail log.
  Database recovered;
  Must(recovered.LoadFile(snap_path));
  Must(recovered.LoadFile(log_path));
  EXPECT_EQ(Must(recovered.Ask("STUDENT")).size(), 1u);
  EXPECT_TRUE(recovered.FindIndividual("PostCkpt").ok());
  std::remove(log_path.c_str());
  std::remove(snap_path.c_str());
}

TEST_F(StorageTest, SnapshotKeepsCrossIndividualCloseOrder) {
  // A's CLOSE comes after B's FILLS, which through A's SAME-AS gives A an
  // r-filler. Replaying A's assertions before B's would close r empty and
  // then reject B's FILLS.
  std::string path = TempPath("classic_cross_close.snap");
  Database db;
  Must(db.DefineAttribute("r"));
  Must(db.DefineAttribute("s"));
  Must(db.DefineAttribute("t"));
  Must(db.CreateIndividual("A"));
  Must(db.CreateIndividual("B"));
  Must(db.CreateIndividual("D"));
  Must(db.AssertInd("A", "(SAME-AS (r) (s t))"));
  Must(db.AssertInd("A", "(FILLS s B)"));
  Must(db.AssertInd("B", "(FILLS t D)"));
  Must(db.AssertInd("A", "(CLOSE r)"));
  Must(db.SaveSnapshot(path));
  Database restored;
  Must(restored.LoadFile(path));
  EXPECT_EQ(restored.kb().CanonicalDerivedState(),
            db.kb().CanonicalDerivedState());
  std::remove(path.c_str());
}

TEST_F(StorageTest, CheckpointThenReloadKeepsDerivedState) {
  std::string log_path = TempPath("classic_ckpt_state.log");
  std::string snap_path = TempPath("classic_ckpt_state.snap");
  std::remove(log_path.c_str());
  std::string before;
  {
    Database db;
    Must(db.OpenLog(log_path));
    BuildSampleDb(&db);
    Must(db.DefineAttribute("s"));
    Must(db.DefineAttribute("t"));
    Must(db.CreateIndividual("Lab"));
    Must(db.CreateIndividual("D"));
    // Rocky's advisor is known only through Lab, an individual created
    // after Rocky, when Rocky's advisor role closes.
    Must(db.AssertInd("Rocky", "(SAME-AS (advisor) (s t))"));
    Must(db.AssertInd("Rocky", "(FILLS s Lab)"));
    Must(db.AssertInd("Lab", "(FILLS t D)"));
    Must(db.AssertInd("Rocky", "(CLOSE advisor)"));
    Must(db.Checkpoint(snap_path));
    Must(db.AssertInd("D", "PERSON"));
    before = db.kb().CanonicalDerivedState();
  }
  Database recovered;
  Must(recovered.LoadFile(snap_path));
  Must(recovered.LoadFile(log_path));
  EXPECT_EQ(recovered.kb().CanonicalDerivedState(), before);
  std::remove(log_path.c_str());
  std::remove(snap_path.c_str());
}

TEST_F(StorageTest, CheckpointWithoutLogIsAnError) {
  Database db;
  EXPECT_TRUE(
      db.Checkpoint(TempPath("classic_nolog.snap")).IsInvalidArgument());
}

TEST_F(StorageTest, ReplayFailureReportsOffendingOp) {
  std::string path = TempPath("classic_bad_replay.log");
  {
    std::ofstream out(path);
    out << "(define-role r)\n(assert-ind Ghost (AT-LEAST 1 r))\n";
  }
  Database db;
  Status st = db.LoadFile(path);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("Ghost"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace classic
