// The TCP serving front-end over KbEngine.
//
// One Server binds one listening socket and serves any number of client
// connections, each on its own thread (connection counts in the
// hundreds are the design point; the query work itself is bounded by the
// admission controller, not by connection count). Per connection:
//
//   - a Session (kb/session.h) is created and pinned to the engine's
//     current epoch; the client is greeted with a kHello frame carrying
//     the protocol version and that epoch;
//   - request frames are decoded as they arrive; everything a single
//     read() delivers is admitted and served as ONE snapshot-isolated
//     batch on the connection thread (pipelining a burst of requests
//     batches them for free; parallelism comes from connections, not
//     from fanning one batch out), answers go back in request order;
//   - kSync re-pins the session (latest epoch, or a named retained epoch
//     for time travel) — the explicit (sync)/(as-of E) ops of the
//     protocol;
//   - requests that find the admission controller full are answered with
//     a typed `overloaded` error frame instead of queueing.
//
// The engine's writer side is NOT exposed over the wire: the protocol is
// read-only by construction, mutation stays with the in-process writer
// (classic_serve loads the KB, publishes, then serves). That keeps the
// trust boundary clean — a wire peer can pin epochs and burn CPU, but
// can never change the database.

#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kb/kb_engine.h"
#include "serve/admission.h"
#include "serve/framing.h"

namespace classic::serve {

class Server {
 public:
  struct Options {
    /// Bind address (IPv4 dotted quad). Loopback by default: exposing a
    /// database to a network is a deliberate act.
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 = ephemeral (read the chosen port from port()).
    uint16_t port = 0;
    /// Admission bound across all connections (see AdmissionController).
    size_t max_in_flight = 256;
    /// Largest number of requests dispatched as one batch; a burst
    /// beyond this is split into successive batches.
    size_t max_batch = 64;
    /// Accept backlog.
    int listen_backlog = 64;
  };

  /// Per-open-connection serving state, exported by stats(): the
  /// per-session epoch gauge (which epochs are live sessions actually
  /// reading?) the obs layer cannot see from counters alone.
  struct SessionInfo {
    uint64_t connection_id = 0;
    uint64_t pinned_epoch = 0;
    uint64_t requests_served = 0;
  };

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t frames_received = 0;
    uint64_t requests_accepted = 0;
    uint64_t requests_shed = 0;
    uint64_t batches_dispatched = 0;
    std::vector<SessionInfo> sessions;  ///< Currently open sessions.
  };

  /// `engine` must outlive the server and have published at least one
  /// epoch before clients connect (sessions pin at accept time).
  Server(KbEngine* engine, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Binds, listens and starts the accept loop.
  Status Start();

  /// \brief Stops accepting, unblocks and joins every connection thread,
  /// closes all sockets. Idempotent.
  void Stop();

  /// The bound port (resolved when Options::port was 0). 0 before Start.
  uint16_t port() const { return port_; }

  Stats stats() const;

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::thread thread;
    std::atomic<uint64_t> pinned_epoch{0};
    std::atomic<uint64_t> requests_served{0};
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ConnectionLoop(Connection* conn);
  /// Reaps finished connection threads (called under connections_mutex_).
  void ReapFinishedLocked();

  KbEngine* engine_;
  const Options options_;
  AdmissionController admission_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;

  mutable std::mutex connections_mutex_;
  std::list<Connection> connections_;
  uint64_t next_connection_id_ = 1;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> batches_dispatched_{0};
};

}  // namespace classic::serve
