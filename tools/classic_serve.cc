// classic-serve: the network serving front-end (docs/PROTOCOL.md).
//
// Usage:
//   classic_serve [OPTIONS] FILE...
//
//   --bind=ADDR        bind address (default 127.0.0.1)
//   --port=N           TCP port; 0 = ephemeral, printed on stdout
//   --max-inflight=N   admission bound across all connections (256)
//   --max-batch=N      largest pipelined burst dispatched as one batch (64)
//   --self-check       serve on an ephemeral port, run an in-process
//                      client smoke against it, exit 0 on success
//
// Replays each `.classic` / `.clq` FILE into one scratch database (later
// files see earlier files' definitions), publishes the result as epoch 1
// of a KbEngine, and serves it until killed. Each connection serves its
// batches on its own thread. The wire protocol is read-only: a client
// can pin epochs and ask queries, never mutate.
//
// Prints exactly one machine-readable line once serving, from which a
// script started with --port=0 can read the ephemeral port:
//   classic_serve: listening addr=<ADDR> port=<PORT> epoch=<E>
//
// Exit status: 0 = clean shutdown / self-check passed, 1 = self-check
// failed, 2 = operational error (unreadable file, bind failure, usage).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using classic::Database;
using classic::KbEngine;
using classic::QueryAnswer;
using classic::QueryRequest;
using classic::Result;
using classic::serve::Client;
using classic::serve::Reply;
using classic::serve::Server;

int Usage() {
  std::fprintf(stderr,
               "usage: classic_serve [--bind=ADDR] [--port=N] "
               "[--max-inflight=N] [--max-batch=N] [--self-check] "
               "FILE...\n");
  return 2;
}

bool ParseSize(const std::string& arg, size_t prefix, size_t* out) {
  const std::string digits = arg.substr(prefix);
  if (digits.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<size_t>(v);
  return true;
}

/// The smoke run `--self-check` does over loopback: hello sanity, a
/// pipelined probe burst that must answer byte-identically to the direct
/// engine batch, the session ops, and a clean goodbye.
int SelfCheck(KbEngine* engine, const Server& server) {
  auto fail = [](const char* what, const classic::Status& status) {
    std::fprintf(stderr, "classic_serve: self-check failed: %s: %s\n", what,
                 status.ToString().c_str());
    return 1;
  };

  Result<std::unique_ptr<Client>> client =
      Client::Connect("127.0.0.1", server.port());
  if (!client.ok()) return fail("connect", client.status());
  const uint64_t epoch = engine->snapshot()->epoch();
  if ((*client)->hello().epoch != epoch) {
    std::fprintf(stderr,
                 "classic_serve: self-check failed: hello pinned epoch %llu, "
                 "want %llu\n",
                 static_cast<unsigned long long>((*client)->hello().epoch),
                 static_cast<unsigned long long>(epoch));
    return 1;
  }

  // CLASSIC-THING is the universal concept: these probes are meaningful
  // for any loaded KB.
  const std::vector<QueryRequest> probes = {
      QueryRequest::Ask("CLASSIC-THING"),
      QueryRequest::AskPossible("CLASSIC-THING"),
      QueryRequest::AskDescription("CLASSIC-THING"),
      QueryRequest::InstancesOf("CLASSIC-THING"),
  };
  for (const QueryRequest& req : probes) {
    if (classic::Status st = (*client)->SendRequest(req); !st.ok()) {
      return fail("pipelined send", st);
    }
  }
  const std::vector<QueryAnswer> direct =
      engine->QueryBatchOn(*engine->snapshot(), probes, 1);
  for (size_t i = 0; i < probes.size(); ++i) {
    Result<Reply> reply = (*client)->RecvReply();
    if (!reply.ok()) return fail("pipelined recv", reply.status());
    if (!reply->is_answer || reply->answer.Canonical() != direct[i].Canonical()) {
      std::fprintf(stderr,
                   "classic_serve: self-check failed: probe#%zu answer "
                   "differs from the direct engine batch\n",
                   i);
      return 1;
    }
  }

  Result<uint64_t> synced = (*client)->Sync();
  if (!synced.ok()) return fail("sync", synced.status());
  if ((*client)->PinEpoch(uint64_t{1} << 60).ok()) {
    std::fprintf(stderr,
                 "classic_serve: self-check failed: pinning a bogus epoch "
                 "succeeded\n");
    return 1;
  }
  if (classic::Status st = (*client)->Bye(); !st.ok()) {
    return fail("bye", st);
  }
  std::fprintf(stderr, "classic_serve: self-check passed (epoch %llu)\n",
               static_cast<unsigned long long>(epoch));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Server::Options options;
  bool self_check = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    size_t n = 0;
    if (arg.rfind("--bind=", 0) == 0) {
      options.bind_address = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0 && ParseSize(arg, 7, &n) &&
               n <= 65535) {
      options.port = static_cast<uint16_t>(n);
    } else if (arg.rfind("--max-inflight=", 0) == 0 && ParseSize(arg, 15, &n)) {
      options.max_in_flight = n;
    } else if (arg.rfind("--max-batch=", 0) == 0 && ParseSize(arg, 12, &n) &&
               n > 0) {
      options.max_batch = n;
    } else if (arg == "--self-check") {
      self_check = true;
      options.port = 0;  // never collide with a real deployment
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Usage();

  Database db;
  for (const std::string& file : files) {
    if (classic::Status st = db.LoadFile(file); !st.ok()) {
      std::fprintf(stderr, "classic_serve: %s\n", st.ToString().c_str());
      return 2;
    }
  }

  // The server serves every batch on its connection thread, so the
  // engine's pool needs no workers.
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  engine.PublishFrom(db.kb());

  Server server(&engine, options);
  if (classic::Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "classic_serve: %s\n", st.ToString().c_str());
    return 2;
  }
  std::printf("classic_serve: listening addr=%s port=%u epoch=%llu\n",
              options.bind_address.c_str(), server.port(),
              static_cast<unsigned long long>(engine.snapshot()->epoch()));
  std::fflush(stdout);

  if (self_check) {
    const int rc = SelfCheck(&engine, server);
    server.Stop();
    return rc;
  }

  // Serve until killed (SIGINT/SIGTERM terminate the process; the OS
  // reclaims the sockets — there is no state to flush, epochs are
  // in-memory values).
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  int sig = 0;
  sigwait(&set, &sig);
  server.Stop();
  return 0;
}
