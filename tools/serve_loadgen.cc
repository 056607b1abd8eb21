// serve-loadgen: open-loop load generation for the CLASSIC serving
// front-end (docs/PROTOCOL.md).
//
// Usage:
//   serve_loadgen --file=KB [OPTIONS]            # in-process server
//   serve_loadgen --host=H --port=P [OPTIONS]    # external server
//
//   --query=FORM       request form (default "(ask STUDENT)")
//   --connections=C    concurrent connections (default 4)
//   --rate=R           offered rate, requests/s (default 13200)
//   --open-seconds=S   duration (default 2)
//   --json             JSON report on stdout (BENCH_serving.json's shape)
//
// Arrivals are scheduled at a fixed offered rate on an absolute timeline,
// and latency is measured from the SCHEDULED send time to reply receipt.
// A server that stalls cannot hide the stall by slowing the senders down
// (no coordinated omission), and a server whose capacity falls below the
// offered rate builds a standing queue that shows in every percentile.
// The report also gives the send lag, from each request's due time to the
// start of its send: a sender that wakes late (the generator's threads
// share the host with the server's) adds that lag to every latency, so a
// tail with a large send lag is the generator's, not the server's.
// The defaults are the serving gate's (scripts/check.sh): 13.2k rps is
// the capacity floor the gate holds. Closed-loop serving throughput is
// perfbench's measurement.
//
// Exit status: 0 = report written, 2 = usage or operational error (a
// run in which no request completed included).

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using classic::Database;
using classic::KbEngine;
using classic::Result;
using classic::serve::Client;
using classic::serve::Reply;
using classic::serve::Server;
using Clock = std::chrono::steady_clock;

int Usage() {
  std::fprintf(stderr,
               "usage: serve_loadgen (--file=KB | --host=H --port=P) "
               "[--query=FORM] [--connections=C] [--rate=R] "
               "[--open-seconds=S] [--json]\n");
  return 2;
}

struct Percentiles {
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  uint64_t max = 0;
};

Percentiles ComputePercentiles(std::vector<uint64_t>* ns) {
  Percentiles out;
  if (ns->empty()) return out;
  std::sort(ns->begin(), ns->end());
  auto at = [&](double q) {
    const size_t i = static_cast<size_t>(q * static_cast<double>(ns->size()));
    return (*ns)[std::min(i, ns->size() - 1)];
  };
  out.p50 = at(0.50);
  out.p99 = at(0.99);
  out.p999 = at(0.999);
  out.max = ns->back();
  return out;
}

struct LoopResult {
  size_t requests = 0;
  size_t errors = 0;
  double wall_s = 0;
  double throughput_rps = 0;
  Percentiles latency;
  Percentiles send_lag;  ///< Due time to the start of the send.
};

/// Open loop: arrivals are pinned to an absolute schedule; latency runs
/// from the scheduled send time, so server stalls show up as queueing
/// delay instead of vanishing into a slowed-down sender.
LoopResult RunOpenLoop(const std::string& host, uint16_t port,
                       const std::string& query, size_t connections,
                       double rate_rps, double seconds) {
  LoopResult result;
  const size_t per_conn = static_cast<size_t>(
      rate_rps * seconds / static_cast<double>(connections));
  if (per_conn == 0) return result;
  const double interval_ns =
      1e9 * static_cast<double>(connections) / rate_rps;

  std::vector<std::vector<uint64_t>> latencies(connections);
  std::vector<std::vector<uint64_t>> send_lags(connections);
  std::vector<size_t> errors(connections, 0);
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      Result<std::unique_ptr<Client>> client = Client::Connect(host, port);
      if (!client.ok()) {
        errors[c] = per_conn;
        return;
      }
      // Stagger connection phases so arrivals interleave evenly.
      const double phase_ns = interval_ns * static_cast<double>(c) /
                              static_cast<double>(connections);
      std::vector<Clock::time_point> due(per_conn);
      for (size_t i = 0; i < per_conn; ++i) {
        due[i] = start + std::chrono::nanoseconds(static_cast<uint64_t>(
                             phase_ns + interval_ns * static_cast<double>(i)));
      }

      // The receiver drains replies CONCURRENTLY with the scheduled
      // sends — replies arrive in request order, so reply i is matched
      // against due[i]. The Client's send and recv paths touch
      // disjoint state, so one sender + one receiver per connection is
      // safe.
      latencies[c].reserve(per_conn);
      std::thread receiver([&, c] {
        for (size_t i = 0; i < per_conn; ++i) {
          Result<Reply> reply = (*client)->RecvReply();
          if (!reply.ok()) {
            errors[c] += per_conn - i;
            return;
          }
          if (!reply->is_answer || !reply->answer.status.ok()) {
            ++errors[c];
            continue;
          }
          latencies[c].push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - due[i])
                  .count()));
        }
      });
      send_lags[c].reserve(per_conn);
      // A thread's default 50 us timer slack would make every wake-up
      // late by about that much; this sender's own slack drops to 1 ns.
      prctl(PR_SET_TIMERSLACK, 1);
      for (size_t i = 0; i < per_conn; ++i) {
        std::this_thread::sleep_until(due[i]);
        send_lags[c].push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - due[i])
                .count()));
        if (!(*client)->SendRequestText(query).ok()) {
          // A dead socket errors the receiver out of its recv too.
          break;
        }
      }
      receiver.join();
      (void)(*client)->Bye();
    });
  }
  for (std::thread& t : workers) t.join();
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<uint64_t> merged;
  for (auto& v : latencies) merged.insert(merged.end(), v.begin(), v.end());
  for (size_t e : errors) result.errors += e;
  result.requests = merged.size();
  result.throughput_rps =
      result.wall_s > 0 ? static_cast<double>(merged.size()) / result.wall_s
                        : 0;
  result.latency = ComputePercentiles(&merged);
  merged.clear();
  for (auto& v : send_lags) merged.insert(merged.end(), v.begin(), v.end());
  result.send_lag = ComputePercentiles(&merged);
  return result;
}

bool ParseSize(const std::string& arg, size_t prefix, size_t* out) {
  char* end = nullptr;
  const std::string digits = arg.substr(prefix);
  const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
  if (digits.empty() || end == nullptr || *end != '\0') return false;
  *out = static_cast<size_t>(v);
  return true;
}

/// A finite number above zero, the whole of the value: "abc", "0", "-1"
/// and "2s" are rejected, so a typo cannot yield an empty run.
bool ParsePositive(const std::string& arg, size_t prefix, double* out) {
  char* end = nullptr;
  const std::string text = arg.substr(prefix);
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || !std::isfinite(v) ||
      v <= 0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string query = "(ask STUDENT)";
  size_t connections = 4;
  double rate = 13200;
  double open_seconds = 2;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    size_t n = 0;
    if (arg.rfind("--file=", 0) == 0) {
      file = arg.substr(7);
    } else if (arg.rfind("--host=", 0) == 0) {
      host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0 && ParseSize(arg, 7, &n) &&
               n <= 65535) {
      port = static_cast<uint16_t>(n);
    } else if (arg.rfind("--query=", 0) == 0) {
      query = arg.substr(8);
    } else if (arg.rfind("--connections=", 0) == 0 && ParseSize(arg, 14, &n) &&
               n > 0) {
      connections = n;
    } else if (arg.rfind("--rate=", 0) == 0) {
      if (!ParsePositive(arg, 7, &rate)) return Usage();
    } else if (arg.rfind("--open-seconds=", 0) == 0) {
      if (!ParsePositive(arg, 15, &open_seconds)) return Usage();
    } else if (arg == "--json") {
      json = true;
    } else {
      return Usage();
    }
  }
  if (file.empty() && port == 0) return Usage();

  // In-process server mode: load the KB, publish, serve on loopback.
  // The load still crosses a real TCP socket — only process-coordination
  // pain is removed, not the wire.
  std::unique_ptr<Database> db;
  std::unique_ptr<KbEngine> engine;
  std::unique_ptr<Server> server;
  if (!file.empty()) {
    db = std::make_unique<Database>();
    if (classic::Status st = db->LoadFile(file); !st.ok()) {
      std::fprintf(stderr, "serve_loadgen: %s\n", st.ToString().c_str());
      return 2;
    }
    engine = std::make_unique<KbEngine>(KbEngine::Options{.num_threads = 1});
    engine->PublishFrom(db->kb());
    server = std::make_unique<Server>(engine.get(), Server::Options{});
    if (classic::Status st = server->Start(); !st.ok()) {
      std::fprintf(stderr, "serve_loadgen: %s\n", st.ToString().c_str());
      return 2;
    }
    port = server->port();
  }

  const LoopResult r =
      RunOpenLoop(host, port, query, connections, rate, open_seconds);
  if (server != nullptr) server->Stop();

  if (json) {
    std::printf("{\n");
    std::printf("  \"benchmark\": \"serving\",\n");
    std::printf("  \"kb\": \"%s\",\n", file.c_str());
    std::printf("  \"query\": \"");
    for (char ch : query) {
      if (ch == '"' || ch == '\\') std::putchar('\\');
      std::putchar(ch);
    }
    std::printf("\",\n");
    std::printf(
        "  \"connections\": %zu,\n"
        "  \"offered_rps\": %.1f,\n"
        "  \"requests\": %zu,\n"
        "  \"errors\": %zu,\n"
        "  \"wall_s\": %.3f,\n"
        "  \"achieved_rps\": %.1f,\n"
        "  \"latency_ns\": {\"p50\": %llu, \"p99\": %llu, \"p999\": %llu},\n"
        "  \"send_lag_ns\": {\"p50\": %llu, \"p99\": %llu, \"max\": %llu}\n"
        "}\n",
        connections, rate, r.requests, r.errors, r.wall_s, r.throughput_rps,
        static_cast<unsigned long long>(r.latency.p50),
        static_cast<unsigned long long>(r.latency.p99),
        static_cast<unsigned long long>(r.latency.p999),
        static_cast<unsigned long long>(r.send_lag.p50),
        static_cast<unsigned long long>(r.send_lag.p99),
        static_cast<unsigned long long>(r.send_lag.max));
  } else {
    std::printf(
        "open loop: offered %.0f rps, achieved %.0f rps, %zu requests, "
        "%zu errors\n",
        rate, r.throughput_rps, r.requests, r.errors);
    std::printf("  latency p50=%.1fus p99=%.1fus p999=%.1fus\n",
                r.latency.p50 / 1e3, r.latency.p99 / 1e3,
                r.latency.p999 / 1e3);
    std::printf("  send lag p50=%.1fus p99=%.1fus max=%.1fus\n",
                r.send_lag.p50 / 1e3, r.send_lag.p99 / 1e3,
                r.send_lag.max / 1e3);
  }
  return r.requests == 0 ? 2 : 0;
}
