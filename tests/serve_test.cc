// End-to-end serving tests over a real loopback socket: pipelined wire
// answers must be byte-identical (QueryAnswer::ToWire) to a direct
// KbEngine::QueryBatch on the same epoch; overload sheds with a typed
// error frame and the connection survives; sessions stay pinned across
// writer publishes until an explicit (sync); protocol violations close
// the connection with a typed error; and concurrent reader clients race
// a publishing writer cleanly (this test rides in the TSan CI stage).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "serve/client.h"
#include "serve/server.h"

namespace classic {
namespace {

using serve::Client;
using serve::Frame;
using serve::Opcode;
using serve::Reply;
using serve::Server;

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

std::vector<QueryRequest> ProbeRequests() {
  return {
      QueryRequest::Ask("STUDENT"),
      QueryRequest::Ask("PERSON"),
      QueryRequest::AskPossible("STUDENT"),
      QueryRequest::AskDescription("STUDENT"),
      QueryRequest::InstancesOf("PERSON"),
      QueryRequest::DescribeIndividual("Rocky"),
      QueryRequest::MostSpecificConcepts("Rocky"),
      QueryRequest::PathQuery(
          "(select (?x ?y) (?x STUDENT) (?x enrolled-at ?y))"),
  };
}

std::unique_ptr<Client> MustConnect(const Server& server) {
  auto client = Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return client.ok() ? std::move(*client) : nullptr;
}

TEST(ServeTest, PipelinedAnswersAreByteIdenticalToDirectBatch) {
  Database db;
  BuildBase(&db);
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  SnapshotPtr snap = engine.PublishFrom(db.kb());

  Server server(&engine, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->hello().epoch, 1u);

  // Pipeline the whole probe set before reading a single reply.
  const std::vector<QueryRequest> probes = ProbeRequests();
  for (const QueryRequest& req : probes) {
    ASSERT_TRUE(client->SendRequest(req).ok());
  }
  std::vector<QueryAnswer> via_wire;
  for (size_t i = 0; i < probes.size(); ++i) {
    Result<Reply> reply = client->RecvReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->is_answer)
        << "[" << reply->error_code << "] " << reply->error_message;
    via_wire.push_back(std::move(reply->answer));
  }

  const std::vector<QueryAnswer> direct =
      engine.QueryBatchOn(*snap, probes, 1);
  ASSERT_EQ(via_wire.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_wire[i].ToWire(), direct[i].ToWire())
        << "probe#" << i;
  }

  ASSERT_TRUE(client->Bye().ok());
  server.Stop();

  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_accepted, probes.size());
  EXPECT_EQ(stats.requests_shed, 0u);
  EXPECT_GE(stats.batches_dispatched, 1u);
}

TEST(ServeTest, RawTextAndCanonicalFormsServeAlike) {
  Database db;
  BuildBase(&db);
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  engine.PublishFrom(db.kb());

  Server server(&engine, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->SendRequestText("(ask STUDENT)").ok());
  ASSERT_TRUE(client->SendRequestText("(request ask \"STUDENT\")").ok());
  Result<Reply> human = client->RecvReply();
  Result<Reply> canonical = client->RecvReply();
  ASSERT_TRUE(human.ok());
  ASSERT_TRUE(canonical.ok());
  ASSERT_TRUE(human->is_answer);
  ASSERT_TRUE(canonical->is_answer);
  EXPECT_EQ(human->answer.ToWire(), canonical->answer.ToWire());
  EXPECT_EQ(human->answer.values.ToVector(),
            (std::vector<std::string>{"Rocky"}));

  server.Stop();
}

TEST(ServeTest, MalformedRequestsGetInOrderErrorFrames) {
  Database db;
  BuildBase(&db);
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  engine.PublishFrom(db.kb());

  Server server(&engine, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  // A writer op and a parse error, sandwiched between valid requests:
  // replies must come back one per request, in order.
  ASSERT_TRUE(client->SendRequestText("(ask STUDENT)").ok());
  ASSERT_TRUE(client->SendRequestText("(create-ind Nope)").ok());
  ASSERT_TRUE(client->SendRequestText("(((").ok());
  ASSERT_TRUE(client->SendRequestText("(ask PERSON)").ok());

  Result<Reply> r1 = client->RecvReply();
  Result<Reply> r2 = client->RecvReply();
  Result<Reply> r3 = client->RecvReply();
  Result<Reply> r4 = client->RecvReply();
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok() && r4.ok());
  EXPECT_TRUE(r1->is_answer);
  EXPECT_FALSE(r2->is_answer);
  EXPECT_EQ(r2->error_code, StatusCodeName(StatusCode::kInvalidArgument));
  EXPECT_FALSE(r3->is_answer);
  EXPECT_TRUE(r4->is_answer);

  // The connection survived the bad requests.
  Result<QueryAnswer> again = client->Call(QueryRequest::Ask("STUDENT"));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->values.ToVector(), (std::vector<std::string>{"Rocky"}));

  server.Stop();
}

TEST(ServeTest, OverloadShedsWithTypedErrorAndConnectionSurvives) {
  Database db;
  BuildBase(&db);
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  engine.PublishFrom(db.kb());

  // max_in_flight = 0: the admission controller sheds every request —
  // deterministic overload without having to saturate a real queue.
  Server server(&engine, Server::Options{.max_in_flight = 0});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client->SendRequest(QueryRequest::Ask("STUDENT")).ok());
  }
  for (int i = 0; i < kRequests; ++i) {
    Result<Reply> reply = client->RecvReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply->shed()) << "reply#" << i;
    EXPECT_FALSE(reply->error_message.empty());
  }

  // Shedding is per-request back-pressure, not a connection error: the
  // session ops still work on the same connection.
  Result<uint64_t> pinned = client->Sync();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(*pinned, 1u);

  server.Stop();
  EXPECT_EQ(server.stats().requests_shed, uint64_t{kRequests});
  EXPECT_EQ(server.stats().requests_accepted, 0u);
}

TEST(ServeTest, SessionStaysPinnedAcrossPublishesUntilSync) {
  Database db;
  BuildBase(&db);
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  engine.PublishFrom(db.kb());

  Server server(&engine, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->hello().epoch, 1u);

  Result<QueryAnswer> before = client->Call(QueryRequest::Ask("STUDENT"));
  ASSERT_TRUE(before.ok());

  // The writer publishes a new epoch; the pinned session must not move.
  ASSERT_TRUE(db.CreateIndividual("Bullwinkle", "PERSON").ok());
  ASSERT_TRUE(
      db.AssertInd("Bullwinkle", "(FILLS enrolled-at Rutgers)").ok());
  engine.PublishFrom(db.kb());

  Result<QueryAnswer> still = client->Call(QueryRequest::Ask("STUDENT"));
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->ToWire(), before->ToWire());

  // (sync) opts in to the new epoch.
  Result<uint64_t> synced = client->Sync();
  ASSERT_TRUE(synced.ok());
  EXPECT_EQ(*synced, 2u);
  Result<QueryAnswer> fresh = client->Call(QueryRequest::Ask("STUDENT"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->ToWire(), before->ToWire());

  // (as-of 1) travels back; an unretained epoch is a typed error.
  Result<uint64_t> repinned = client->PinEpoch(1);
  ASSERT_TRUE(repinned.ok());
  EXPECT_EQ(*repinned, 1u);
  Result<QueryAnswer> old_again = client->Call(QueryRequest::Ask("STUDENT"));
  ASSERT_TRUE(old_again.ok());
  EXPECT_EQ(old_again->ToWire(), before->ToWire());

  Result<uint64_t> missing = client->PinEpoch(99);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // The per-session epoch gauge reflects the pin.
  bool saw_session = false;
  for (const Server::SessionInfo& info : server.stats().sessions) {
    saw_session = true;
    EXPECT_EQ(info.pinned_epoch, 1u);
    EXPECT_GE(info.requests_served, 3u);
  }
  EXPECT_TRUE(saw_session);

  server.Stop();
}

TEST(ServeTest, ProtocolViolationGetsTypedErrorThenClose) {
  Database db;
  BuildBase(&db);
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  engine.PublishFrom(db.kb());

  Server server(&engine, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  // A client must never send kAnswer; the server replies with a typed
  // protocol error and closes.
  ASSERT_TRUE(client->SendFrame(Opcode::kAnswer, "nonsense").ok());
  Result<Frame> frame = client->RecvFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->opcode, Opcode::kError);
  auto decoded = serve::DecodeErrorPayload(frame->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->first, serve::kErrorCodeProtocol);

  // The server hung up: the next read sees EOF (or a reset).
  EXPECT_FALSE(client->RecvFrame().ok());

  server.Stop();
}

// The TSan centerpiece: reader clients hammer the server while the
// single writer keeps mutating and publishing. Every reply must be a
// well-formed answer from SOME published epoch; no crash, no race.
TEST(ServeTest, ReadersRacePublishingWriterCleanly) {
  Database db;
  BuildBase(&db);
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  engine.PublishFrom(db.kb());

  Server server(&engine, Server::Options{});
  ASSERT_TRUE(server.Start().ok());

  constexpr int kReaders = 3;
  constexpr int kRequestsPerReader = 40;
  constexpr int kPublishes = 8;

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&server, &failures, r] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequestsPerReader; ++i) {
        if (i % 10 == 9) {
          if (!(*client)->Sync().ok()) failures.fetch_add(1);
          continue;
        }
        const char* query = (r + i) % 2 == 0 ? "STUDENT" : "PERSON";
        Result<QueryAnswer> answer =
            (*client)->Call(QueryRequest::Ask(query));
        if (!answer.ok() || !answer->status.ok()) failures.fetch_add(1);
      }
      (void)(*client)->Bye();
    });
  }

  // The single writer: mutate, publish, repeat.
  for (int p = 0; p < kPublishes; ++p) {
    ASSERT_TRUE(
        db.CreateIndividual("Racer-" + std::to_string(p), "PERSON").ok());
    engine.PublishFrom(db.kb());
  }

  for (std::thread& t : readers) t.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().connections_accepted, uint64_t{kReaders});
}

}  // namespace
}  // namespace classic
