#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "kb/session.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace classic::serve {

namespace {

/// Writes the whole buffer, looping over short sends. MSG_NOSIGNAL turns
/// a peer hangup into an error return instead of SIGPIPE.
bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// One decoded request frame waiting for its reply: either an admitted
/// engine request, or an immediate error reply (parse failure / shed)
/// held in line so replies keep request order.
struct PendingReply {
  bool admitted = false;
  QueryRequest request;
  uint64_t decoded_ns = 0;
  std::string error_code;
  std::string error_message;
};

}  // namespace

Server::Server(KbEngine* engine, Options options)
    : engine_(engine),
      options_(std::move(options)),
      admission_(AdmissionController::Options{
          .max_in_flight = options_.max_in_flight}) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load()) return Status::OK();
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrCat("socket: ", std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrCat("bad bind address: ", options_.bind_address));
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st = Status::IOError(StrCat("bind ", options_.bind_address,
                                             ":", options_.port, ": ",
                                             std::strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (listen(listen_fd_, options_.listen_backlog) != 0) {
    const Status st = Status::IOError(StrCat("listen: ",
                                             std::strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  running_.store(true);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false)) {
    // Never started (or already stopped): nothing to join.
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;

  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (Connection& conn : connections_) {
    shutdown(conn.fd, SHUT_RDWR);  // unblocks the connection's recv()
  }
  for (Connection& conn : connections_) {
    if (conn.thread.joinable()) conn.thread.join();
    close(conn.fd);
  }
  connections_.clear();
}

Server::Stats Server::stats() const {
  Stats out;
  out.connections_accepted = connections_accepted_.load();
  out.frames_received = frames_received_.load();
  out.requests_accepted = admission_.accepted();
  out.requests_shed = admission_.shed();
  out.batches_dispatched = batches_dispatched_.load();
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (const Connection& conn : connections_) {
    if (conn.done.load()) continue;
    out.sessions.push_back(SessionInfo{
        .connection_id = conn.id,
        .pinned_epoch = conn.pinned_epoch.load(),
        .requests_served = conn.requests_served.load(),
    });
  }
  return out;
}

void Server::ReapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load()) {
      if (it->thread.joinable()) it->thread.join();
      close(it->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  while (running_.load()) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) return;
      continue;  // transient accept failure (EINTR, aborted handshake)
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1);
    std::lock_guard<std::mutex> lock(connections_mutex_);
    ReapFinishedLocked();
    connections_.emplace_back();
    Connection* conn = &connections_.back();
    conn->fd = fd;
    conn->id = next_connection_id_++;
    conn->thread = std::thread(&Server::ConnectionLoop, this, conn);
  }
}

void Server::ConnectionLoop(Connection* conn) {
  Session session(engine_);
  conn->pinned_epoch.store(session.epoch());
  if (!SendAll(conn->fd,
               EncodeFrame(Opcode::kHello,
                           EncodeHelloPayload(HelloInfo{
                               .protocol_version = kProtocolVersion,
                               .epoch = session.epoch()})))) {
    conn->done.store(true);
    return;
  }

  FrameDecoder decoder;
  std::vector<PendingReply> pending;

  // Dispatches every pending admitted request as one snapshot-isolated
  // batch and appends the replies, in request order, to `out`.
  auto flush = [&](std::string* out) {
    std::vector<QueryRequest> batch;
    batch.reserve(pending.size());
    const uint64_t dispatch_ns = obs::MonotonicNanos();
    for (PendingReply& p : pending) {
      if (!p.admitted) continue;
#if CLASSIC_OBS
      obs::RecordLatency(obs::Op::kServeQueueWait,
                         dispatch_ns - p.decoded_ns);
#else
      (void)dispatch_ns;
#endif
      batch.push_back(std::move(p.request));
    }
    std::vector<QueryAnswer> answers;
    if (!batch.empty()) {
      batches_dispatched_.fetch_add(1);
      answers = session.ServeBatch(batch);
    }
    size_t next_answer = 0;
    for (const PendingReply& p : pending) {
      if (p.admitted) {
        AppendFrame(Opcode::kAnswer, answers[next_answer++].ToWire(), out);
        admission_.Release();
        conn->requests_served.fetch_add(1);
      } else {
        AppendFrame(Opcode::kError,
                    EncodeErrorPayload(p.error_code, p.error_message), out);
      }
    }
    pending.clear();
    obs::FlushLocalCounters();
  };

  char buf[64 * 1024];
  bool closing = false;
  while (!closing && running_.load()) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Feed(buf, static_cast<size_t>(n));

    std::string out;
    size_t admitted_in_batch = 0;
    while (!closing) {
      Result<std::optional<Frame>> next = decoder.Next();
      if (!next.ok()) {
        flush(&out);
        AppendFrame(Opcode::kError,
                    EncodeErrorPayload(kErrorCodeProtocol,
                                       next.status().message()),
                    &out);
        closing = true;
        break;
      }
      if (!next->has_value()) break;
      Frame frame = std::move(**next);
      frames_received_.fetch_add(1);

      switch (frame.opcode) {
        case Opcode::kRequest: {
          PendingReply p;
          p.decoded_ns = obs::MonotonicNanos();
          Result<QueryRequest> req = Session::ParseRequest(frame.payload);
          if (!req.ok()) {
            p.error_code = StatusCodeName(req.status().code());
            p.error_message = req.status().message();
          } else if (admission_.TryAdmit()) {
            p.admitted = true;
            p.request = std::move(*req);
            ++admitted_in_batch;
          } else {
            p.error_code = kErrorCodeOverloaded;
            p.error_message =
                StrCat("request shed: ", options_.max_in_flight,
                       " requests already in flight");
          }
          pending.push_back(std::move(p));
          if (admitted_in_batch >= options_.max_batch) {
            flush(&out);
            admitted_in_batch = 0;
          }
          break;
        }
        case Opcode::kSync: {
          // A sync is an ordering barrier: requests before it are served
          // on the old pin, requests after it on the new one.
          flush(&out);
          admitted_in_batch = 0;
          Result<uint64_t> epoch =
              frame.payload.empty()
                  ? session.Sync()
                  : [&]() -> Result<uint64_t> {
                      CLASSIC_ASSIGN_OR_RETURN(uint64_t e,
                                               ParseSyncEpoch(frame.payload));
                      return session.PinEpoch(e);
                    }();
          if (epoch.ok()) {
            conn->pinned_epoch.store(*epoch);
            AppendFrame(Opcode::kPinned, EncodePinnedPayload(*epoch), &out);
          } else {
            AppendFrame(Opcode::kError,
                        EncodeErrorPayload(
                            StatusCodeName(epoch.status().code()),
                            epoch.status().message()),
                        &out);
          }
          break;
        }
        case Opcode::kBye: {
          flush(&out);
          closing = true;
          break;
        }
        default: {
          // Server-to-client opcodes coming FROM a client are a protocol
          // violation.
          flush(&out);
          AppendFrame(
              Opcode::kError,
              EncodeErrorPayload(
                  kErrorCodeProtocol,
                  StrCat("unexpected opcode ",
                         static_cast<unsigned>(frame.opcode),
                         " from client")),
              &out);
          closing = true;
          break;
        }
      }
    }
    flush(&out);
    if (!out.empty() && !SendAll(conn->fd, out)) break;
  }
  obs::FlushLocalCounters();
  // Hang up actively so the peer sees EOF now; the fd itself is closed
  // exactly once, by reap or Stop.
  shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true);
}

}  // namespace classic::serve
