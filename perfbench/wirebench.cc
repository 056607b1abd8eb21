// wirebench: the wire-level benchmark of the CLASSIC serving stack.
//
// One process loads a generated KB into a Database, publishes it through
// a KbEngine, starts an in-process serve::Server on loopback and drives
// it over TCP with blocking serve::Clients (closed loop: one request in
// flight per connection). Every answer that comes back over the wire is
// checked against KbEngine::ServeQuery on the same epoch in process, and
// the op log the write probe writes is replayed into a fresh Database
// that must reach the same derived state.
//
//   wirebench gen --workload W --seed N --out FILE [--tiny]
//       Generates the workload's KB (bench/workload.h) and saves it as a
//       .classic file.
//   wirebench run --workload W --seed N --seconds S --trace 0|1
//                 --kb FILE --work-dir DIR [--tiny]
//                 [--git-sha SHA] [--git-dirty 0|1]
//       Runs the workload. The last line of stdout is the result JSON:
//       end-to-end metrics with --trace 0, per-layer metrics with
//       --trace 1 (spans recorded around each call, a Chrome trace
//       written to DIR/trace-<workload>-<seed>.json).
//
// Workloads (perfbench/README.md says why each exists):
//   mixed-read  1024 concepts x 1024 individuals, 2 connections, the six
//               request kinds of the E8 mixed batch.
//   point-read  1024 x 32768, 2 connections, describe / msc / selective
//               FILLS ask / bound-subject path query.
// Operations a workload's own traffic lacks are measured by a short
// probe outside its window, on the same KB: ask-possible (traced pass
// only) on point-read, a write phase (after the window) on both.

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "kb/session.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "spans.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload.h"

namespace perfbench {
namespace {

using classic::Database;
using classic::KbEngine;
using classic::QueryAnswer;
using classic::QueryRequest;
using classic::Result;
using classic::Rng;
using classic::SnapshotPtr;
using classic::Status;
using classic::StrCat;
using classic::obs::Counter;
using classic::obs::CounterArray;
using classic::serve::Client;
using classic::serve::Frame;
using classic::serve::Opcode;
using classic::serve::Server;
using Kind = QueryRequest::Kind;

constexpr size_t kNumKinds = 7;
constexpr size_t kReadConnections = 2;
constexpr size_t kUnitsPerPublish = 16;
constexpr size_t kReplaySample = 4000;
/// The ask-possible probe on point-read asks this many defined concepts
/// in one round before each half of the traced pass.
constexpr size_t kProbeConcepts = 8;
constexpr size_t kTraceEventsWritten = 200000;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "wirebench: %s\n", what.c_str());
  std::exit(2);
}

void Must(const Status& st, const std::string& what) {
  if (!st.ok()) Die(StrCat(what, ": ", st.ToString()));
}

size_t KindIndex(Kind k) { return static_cast<size_t>(k); }

// --- Workloads and the KB shape they run on ---------------------------------

enum class Workload { kMixedRead, kPointRead };

Workload ParseWorkload(const std::string& name) {
  if (name == "mixed-read") return Workload::kMixedRead;
  if (name == "point-read") return Workload::kPointRead;
  Die(StrCat("unknown workload '", name, "'"));
}

/// Names of a KB made like bench::BuildStandardWorkload: PRIM-i, DEF-i,
/// role<i> (the SchemaSpec default of 12 roles) and Ind-i.
struct Shape {
  size_t concepts = 0;
  size_t individuals = 0;

  size_t primitives() const { return concepts / 2; }
  size_t defined() const { return concepts - primitives(); }
  static constexpr size_t kRoles = 12;
};

Shape ShapeOf(Workload w, bool tiny) {
  if (w == Workload::kMixedRead) return tiny ? Shape{64, 64} : Shape{1024, 1024};
  return tiny ? Shape{64, 512} : Shape{1024, 32768};
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + salt).Next();
}

// --- Statistics -------------------------------------------------------------

double Quantile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(v.size()));
  return static_cast<double>(v[std::min(i, v.size() - 1)]);
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- Request pools ----------------------------------------------------------

/// One request the clients send, with the wire bytes of its answer on the
/// epoch the workloads serve (empty until computed).
struct PoolEntry {
  QueryRequest request;
  std::string wire;  ///< request.ToWire(), what the server parses.
  std::string expected;
};

/// The defined concepts in an order drawn from `rng`.
std::vector<size_t> ShuffledDefs(const Shape& s, Rng& rng) {
  std::vector<size_t> defs(s.defined());
  for (size_t i = 0; i < defs.size(); ++i) defs[i] = i;
  for (size_t i = defs.size(); i > 1; --i) {
    std::swap(defs[i - 1], defs[rng.Below(i)]);
  }
  return defs;
}

/// The six kinds of the E8 mixed batch (bench_parallel.cc), in turn. The
/// four kinds that name a defined concept each name every one of them
/// once per round of 6 x defined() requests, in an order drawn from the
/// seed, so any stretch of the pool holds the kinds in equal shares and
/// no seed leans on a few costly concepts.
std::vector<QueryRequest> MixedRequests(const Shape& s, size_t rounds,
                                        uint64_t seed) {
  Rng rng(seed);
  auto prim = [&] { return StrCat("PRIM-", rng.Below(s.primitives())); };
  auto role = [&] { return StrCat("role", rng.Below(Shape::kRoles)); };
  std::vector<QueryRequest> out;
  for (size_t r = 0; r < rounds; ++r) {
    std::array<std::vector<size_t>, 4> defs;
    for (auto& d : defs) d = ShuffledDefs(s, rng);
    for (size_t i = 0; i < s.defined(); ++i) {
      out.push_back(QueryRequest::Ask(StrCat("DEF-", defs[0][i])));
      std::string p = prim();
      out.push_back(QueryRequest::Ask(
          StrCat("(AND ", p, " (AT-LEAST 1 ", role(), "))")));
      out.push_back(QueryRequest::AskPossible(StrCat("DEF-", defs[1][i])));
      out.push_back(QueryRequest::PathQuery(StrCat(
          "(select (?x ?y) (?x DEF-", defs[2][i], ") (?x ", role(), " ?y))")));
      out.push_back(QueryRequest::DescribeIndividual(
          StrCat("Ind-", rng.Below(s.individuals))));
      out.push_back(QueryRequest::InstancesOf(StrCat("DEF-", defs[3][i])));
    }
  }
  return out;
}

/// Point reads on random individuals: describe, most-specific concepts,
/// a selective (AND prim (FILLS role Ind)) ask that the planner answers
/// from the fills postings, and a bound-subject path query. The FILLS
/// target and path role come from the individual's own fillers, so most
/// answers are non-empty.
std::vector<QueryRequest> PointRequests(Database& db, const Shape& s,
                                        size_t count, uint64_t seed) {
  Rng rng(seed);
  // Primitives of the top three layers of the primitive tree (PRIM-0 and
  // its descendants down to depth 2, branching 4): broad enough that the
  // FILLS conjunct, not the primitive, is what selects.
  const size_t top_prims = std::min<size_t>(21, s.primitives());
  auto filled_role = [&](const std::string& ind,
                         std::string* filler) -> std::string {
    const size_t first = rng.Below(Shape::kRoles);
    for (size_t k = 0; k < Shape::kRoles; ++k) {
      std::string role = StrCat("role", (first + k) % Shape::kRoles);
      Result<std::vector<std::string>> fillers = db.Fillers(ind, role);
      if (fillers.ok() && !fillers->empty()) {
        *filler = (*fillers)[rng.Below(fillers->size())];
        return role;
      }
    }
    *filler = StrCat("Ind-", rng.Below(s.individuals));
    return StrCat("role", first);
  };
  std::vector<QueryRequest> out;
  for (size_t i = 0; i < count; ++i) {
    const std::string ind = StrCat("Ind-", rng.Below(s.individuals));
    switch (rng.Below(4)) {
      case 0:
        out.push_back(QueryRequest::DescribeIndividual(ind));
        break;
      case 1:
        out.push_back(QueryRequest::MostSpecificConcepts(ind));
        break;
      case 2: {
        std::string filler;
        const std::string role = filled_role(ind, &filler);
        out.push_back(QueryRequest::Ask(StrCat("(AND PRIM-", rng.Below(top_prims),
                                               " (FILLS ", role, " ", filler,
                                               "))")));
        break;
      }
      case 3: {
        std::string filler;
        const std::string role = filled_role(ind, &filler);
        out.push_back(QueryRequest::PathQuery(
            StrCat("(select (?x) (", ind, " ", role, " ?x))")));
        break;
      }
    }
  }
  return out;
}

std::vector<PoolEntry> MakePool(std::vector<QueryRequest> requests) {
  std::vector<PoolEntry> pool;
  pool.reserve(requests.size());
  for (QueryRequest& r : requests) {
    PoolEntry e;
    e.wire = r.ToWire();
    e.request = std::move(r);
    pool.push_back(std::move(e));
  }
  return pool;
}

/// The answer the server must send for each entry. The wire form carries
/// the status and the values (not the stats), so equal wire bytes mean
/// equal QueryAnswer::Canonical() bytes.
void ComputeExpected(const KbEngine& engine, std::vector<PoolEntry>* pool) {
  const SnapshotPtr snap = engine.snapshot();
  for (PoolEntry& e : *pool) {
    e.expected = KbEngine::ServeQuery(snap->kb(), e.request).ToWire();
  }
}

// --- CPU placement ----------------------------------------------------------
//
// A connection's client thread and the server thread that serves it take
// turns: one request is in flight. With at least 4 CPUs available both run
// on one CPU of their own, connection i on the i-th, so a request or a
// reply wakes a thread on a CPU that is already running. On a virtual
// machine an idle CPU halts, and waking it goes through the host, with a
// delay that varies with the host's load. With fewer CPUs nothing is
// pinned.

cpu_set_t ProcessCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  return set;
}

/// The i-th CPU this process may run on, or -1 if it has fewer than 4.
int AvailableCpu(size_t i) {
  static const cpu_set_t allowed = ProcessCpus();
  if (CPU_COUNT(&allowed) < 4) return -1;
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == static_cast<int>(i)) return cpu;
  }
  return -1;
}

/// Pins thread `tid` (0 = the calling thread) to the i-th available CPU.
void PinThread(pid_t tid, size_t i) {
  const int cpu = AvailableCpu(i);
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

std::set<pid_t> ThreadIds() {
  std::set<pid_t> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ids.insert(std::atoi(entry->d_name));
    }
    closedir(dir);
  }
  return ids;
}

// --- The serving stack ------------------------------------------------------

struct Stack {
  std::unique_ptr<Database> db;
  std::unique_ptr<KbEngine> engine;
  std::unique_ptr<Server> server;
};

/// LoadFile + first publish + server start: the set-up a deployment pays
/// before it answers its first request.
Stack SetUp(const std::string& kb_path, double* load_s) {
  Span setup("setup");
  Stack stack;
  stack.db = std::make_unique<Database>();
  const uint64_t t0 = NowNs();
  {
    Span span("storage.load");
    Must(stack.db->LoadFile(kb_path), StrCat("load ", kb_path));
  }
  *load_s = static_cast<double>(NowNs() - t0) / 1e9;
  stack.engine = std::make_unique<KbEngine>();
  {
    Span span("kb.engine.publish");
    stack.engine->PublishFrom(stack.db->kb());
  }
  stack.server = std::make_unique<Server>(stack.engine.get(), Server::Options{});
  {
    Span span("serve.start");
    Must(stack.server->Start(), "server start");
  }
  return stack;
}

// --- In-process replay ------------------------------------------------------

/// Engine work per request kind, from in-process replays.
struct KindAgg {
  std::vector<uint64_t> serve_ns;
  uint64_t window_ns = 0;  ///< Serve time of window requests (not probes).
  uint64_t instance_checks = 0;
  uint64_t values = 0;
};

struct ReplayAgg {
  std::array<KindAgg, kNumKinds> kinds;
  CounterArray counters{};  ///< Summed QueryAnswer::stats counters.
  uint64_t replayed = 0;
};

/// Does in process what the server does for one request frame — parse
/// the wire text, serve it on `kb`, encode the answer — each step under
/// its span and sharing the wire request's id.
void ReplayOne(const classic::KnowledgeBase& kb, const PoolEntry& entry,
               uint64_t request_id, bool probe, ReplayAgg* agg) {
  Span root("replay.request", request_id);
  std::optional<Result<QueryRequest>> parsed;
  {
    Span span("desc.parse");
    parsed.emplace(classic::Session::ParseRequest(entry.wire));
  }
  if (!parsed->ok()) {
    Die(StrCat("replay parse: ", parsed->status().ToString()));
  }
  const QueryRequest& request = **parsed;
  QueryAnswer answer;
  const uint64_t t0 = NowNs();
  {
    Span span("kb.engine.serve_query");
    answer = KbEngine::ServeQuery(kb, request);
  }
  const uint64_t serve_ns = NowNs() - t0;
  {
    Span span("serve.codec.encode_answer");
    (void)answer.ToWire();
  }
  KindAgg& k = agg->kinds[KindIndex(request.kind)];
  k.serve_ns.push_back(serve_ns);
  if (!probe) k.window_ns += serve_ns;
  k.instance_checks += answer.stats.counter(Counter::kInstanceChecks);
  k.values += answer.values.size();
  for (size_t c = 0; c < agg->counters.size(); ++c) {
    agg->counters[c] += answer.stats.counters[c];
  }
  ++agg->replayed;
}

// --- Readers ----------------------------------------------------------------

/// One request a reader sent, kept for the traced replay.
struct Sent {
  uint32_t pool_index = 0;
  uint64_t request_id = 0;
};

struct ReaderOut {
  std::array<std::vector<uint64_t>, kNumKinds> latency_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  uint64_t answer_bytes = 0;
  std::vector<Sent> sent;
  /// The fastest answer to each pool entry (0 = never answered).
  std::vector<uint64_t> best_ns;

  uint64_t ok() const {
    uint64_t n = 0;
    for (const auto& v : latency_ns) n += v.size();
    return n;
  }
};

std::atomic<uint64_t> g_next_request{1};

struct ReaderConfig {
  const std::vector<PoolEntry>* pool = nullptr;
  size_t start = 0;          ///< Pool index of the first request.
  uint64_t deadline_ns = 0;  ///< Stop at this time...
  size_t max_requests = 0;   ///< ...or after this many (0 = no cap).
  bool keep_sent = false;    ///< Record every request in ReaderOut::sent.
};

/// Closed loop on one connection: send the next request of the pool
/// (walking it in order, round and round), wait for the reply, check it,
/// repeat. Latency runs from encoding the request to decoding the answer,
/// as a caller of the client sees it.
void ReadLoop(Client* client, const ReaderConfig& cfg, ReaderOut* out) {
  const std::vector<PoolEntry>& pool = *cfg.pool;
  out->best_ns.resize(pool.size(), 0);
  for (size_t n = 0;; ++n) {
    if (cfg.max_requests != 0 && n >= cfg.max_requests) break;
    if (cfg.deadline_ns != 0 && NowNs() >= cfg.deadline_ns) break;
    const uint32_t index = static_cast<uint32_t>((cfg.start + n) % pool.size());
    const PoolEntry& entry = pool[index];
    const uint64_t request_id = g_next_request.fetch_add(1);
    ++out->attempted;

    Frame frame;
    QueryAnswer answer;
    bool answered = false;
    const uint64_t t0 = NowNs();
    {
      Span span("client.request", request_id);
      std::string wire;
      {
        Span encode("serve.codec.encode");
        wire = entry.request.ToWire();
      }
      {
        Span io("serve.wire");
        Status sent = client->SendFrame(Opcode::kRequest, wire);
        if (!sent.ok()) Die(StrCat("send: ", sent.ToString()));
        Result<Frame> reply = client->RecvFrame();
        if (!reply.ok()) Die(StrCat("recv: ", reply.status().ToString()));
        frame = std::move(*reply);
      }
      if (frame.opcode == Opcode::kAnswer) {
        Span decode("serve.codec.decode");
        Result<QueryAnswer> decoded = QueryAnswer::FromWire(frame.payload);
        if (decoded.ok()) {
          answer = std::move(*decoded);
          answered = true;
        }
      }
    }
    const uint64_t t1 = NowNs();

    // Error frames (a shed request, a parse failure) and error answers
    // are failures; they count against the failure fraction only.
    if (!answered || !answer.status.ok()) {
      ++out->failed;
      continue;
    }
    out->latency_ns[KindIndex(entry.request.kind)].push_back(t1 - t0);
    out->answer_bytes += frame.payload.size();
    uint64_t& best = out->best_ns[index];
    if (best == 0 || t1 - t0 < best) best = t1 - t0;
    if (cfg.keep_sent) {
      out->sent.push_back(Sent{.pool_index = index, .request_id = request_id});
    }
    if (frame.payload != entry.expected) ++out->mismatched;
  }
}

// --- The writer -------------------------------------------------------------

struct WriterOut {
  uint64_t units = 0;
  uint64_t failed = 0;
  uint64_t publishes = 0;
  double wall_s = 0;
  std::vector<uint64_t> visible_ns;  ///< First call of a unit -> its publish.
  std::vector<uint64_t> call_ns;     ///< Each CreateIndividual / AssertInd.
  std::vector<uint64_t> publish_ns;  ///< Each PublishFrom.
  CounterArray counters{};           ///< Writer-thread counter deltas.
};

struct WriterConfig {
  Shape shape;
  uint64_t seed = 0;
  size_t units = 0;
};

/// Write units as PopulateIndividuals makes them: a new individual with a
/// primitive, three FILLS to existing individuals, an AT-MOST in about
/// one unit in four. Every kUnitsPerPublish units the master is published.
void WriteLoop(Database* db, KbEngine* engine, const WriterConfig& cfg,
               WriterOut* out) {
  classic::obs::CounterDeltaScope counters;
  Rng rng(cfg.seed);
  std::vector<uint64_t> unpublished_start;
  auto publish = [&] {
    const uint64_t t0 = NowNs();
    {
      Span span("kb.engine.publish");
      engine->PublishFrom(db->kb());
    }
    const uint64_t t1 = NowNs();
    out->publish_ns.push_back(t1 - t0);
    ++out->publishes;
    for (const uint64_t start : unpublished_start) {
      out->visible_ns.push_back(t1 - start);
    }
    unpublished_start.clear();
  };
  auto call = [&](const char* span_name, auto&& fn) {
    const uint64_t t0 = NowNs();
    Status st;
    {
      Span span(span_name);
      st = fn();
    }
    out->call_ns.push_back(NowNs() - t0);
    return st.ok();
  };

  const uint64_t start = NowNs();
  for (uint64_t u = 0; u < cfg.units; ++u) {
    const std::string name = StrCat("W-", u);
    const std::string prim =
        StrCat("PRIM-", rng.Below(cfg.shape.primitives()));
    unpublished_start.push_back(NowNs());
    bool ok = false;
    {
      Span unit("kb.write_unit", g_next_request.fetch_add(1));
      ok = call("kb.create_ind",
                [&] { return db->CreateIndividual(name, prim); });
      for (int k = 0; ok && k < 3; ++k) {
        const std::string fills =
            StrCat("(FILLS role", rng.Below(Shape::kRoles), " Ind-",
                   rng.Below(cfg.shape.individuals), ")");
        ok = call("kb.assert_ind", [&] { return db->AssertInd(name, fills); });
      }
      if (ok && rng.Chance(0.25)) {
        const std::string at_most =
            StrCat("(AT-MOST ", 6 + rng.Below(6), " role",
                   rng.Below(Shape::kRoles), ")");
        ok = call("kb.assert_ind",
                  [&] { return db->AssertInd(name, at_most); });
      }
    }
    ++out->units;
    if (!ok) ++out->failed;
    if (unpublished_start.size() == kUnitsPerPublish) publish();
  }
  if (!unpublished_start.empty()) publish();
  out->wall_s = static_cast<double>(NowNs() - start) / 1e9;
  out->counters = counters.Deltas();
}

// --- One run ----------------------------------------------------------------

struct Options {
  Workload workload = Workload::kMixedRead;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string kb_path;
  std::string work_dir;
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

/// The reads of one window.
struct WindowOut {
  std::vector<ReaderOut> readers;
  double wall_s = 0;

  uint64_t reads_ok() const {
    uint64_t n = 0;
    for (const ReaderOut& r : readers) n += r.ok();
    return n;
  }
  /// Closed-loop read throughput, summed over connections.
  double read_rps() const {
    return Ratio(static_cast<double>(reads_ok()), wall_s);
  }
};

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

class Run {
 public:
  explicit Run(Options opts)
      : opts_(std::move(opts)), shape_(ShapeOf(opts_.workload, opts_.tiny)) {}

  int Main();

 private:
  bool mixed() const { return opts_.workload == Workload::kMixedRead; }

  void SetUpTimes(size_t n);
  void BuildPools();
  std::vector<std::unique_ptr<Client>> Connect(size_t n);
  WindowOut RunWindow(std::vector<std::unique_ptr<Client>>& clients,
                      double seconds, bool keep_sent);
  void AskPossibleRound(Client* client, ReaderOut* probe);
  WriterOut WriteProbe();
  bool ReplayLogMatches();
  void PrintProvenance() const;
  MetricMap EndToEnd(const WindowOut& window, double peak_rss_mb) const;
  MetricMap PerLayer(const WindowOut& untraced, const WindowOut& traced,
                     const ReaderOut& probe, const WriterOut& writes);

  const Options opts_;
  const Shape shape_;
  Stack stack_;
  std::vector<double> setup_s_;
  std::vector<double> load_s_;
  std::vector<PoolEntry> pool_;
  std::vector<PoolEntry> probe_pool_;  ///< The ask-possible probe's requests.
  SnapshotPtr loaded_;                 ///< The epoch published at set-up.
  std::string log_path_;
  uint64_t windows_run_ = 0;
};

/// Sets up `n` times, timing each; the last stack stays up.
void Run::SetUpTimes(size_t n) {
  for (size_t rep = 0; rep < n; ++rep) {
    stack_.server.reset();  // the server first: it serves from the engine
    stack_.engine.reset();
    stack_.db.reset();
    double load_s = 0;
    const uint64_t t0 = NowNs();
    stack_ = SetUp(opts_.kb_path, &load_s);
    setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    load_s_.push_back(load_s);
  }
}

void Run::BuildPools() {
  const uint64_t pool_seed = Mix(opts_.seed, 11);
  pool_ = MakePool(
      mixed() ? MixedRequests(shape_, opts_.tiny ? 2 : 1, pool_seed)
              : PointRequests(*stack_.db, shape_, opts_.tiny ? 256 : 16384,
                              pool_seed));
  ComputeExpected(*stack_.engine, &pool_);
  if (mixed() || !opts_.trace) return;
  // The same defined concepts on every seed, spread over the schema: the
  // probe is too short to average out a random draw of a few costly ones.
  const size_t count = std::min(kProbeConcepts, shape_.defined());
  std::vector<QueryRequest> probe;
  for (size_t i = 0; i < count; ++i) {
    probe.push_back(QueryRequest::AskPossible(
        StrCat("DEF-", i * (shape_.defined() / count))));
  }
  probe_pool_ = MakePool(std::move(probe));
  ComputeExpected(*stack_.engine, &probe_pool_);
}

std::vector<std::unique_ptr<Client>> Run::Connect(size_t n) {
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t i = 0; i < n; ++i) {
    const std::set<pid_t> before = ThreadIds();
    Result<std::unique_ptr<Client>> c =
        Client::Connect("127.0.0.1", stack_.server->port());
    if (!c.ok()) Die(StrCat("connect: ", c.status().ToString()));
    clients.push_back(std::move(*c));
    // The server starts a thread for each connection it accepts: the one
    // thread of the process that was not there before the connect.
    pid_t server_thread = 0;
    for (int wait_ms = 0; server_thread == 0; ++wait_ms) {
      for (const pid_t tid : ThreadIds()) {
        if (before.count(tid) == 0) server_thread = tid;
      }
      if (server_thread != 0) break;
      if (wait_ms == 5000) Die("no server thread for a new connection");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    PinThread(server_thread, i);
  }
  return clients;
}

WindowOut Run::RunWindow(std::vector<std::unique_ptr<Client>>& clients,
                         double seconds, bool keep_sent) {
  WindowOut w;
  w.readers.resize(clients.size());
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    ReaderConfig cfg;
    cfg.pool = &pool_;
    cfg.start = Mix(opts_.seed, 100 + 8 * windows_run_ + c) % pool_.size();
    cfg.deadline_ns = deadline;
    cfg.keep_sent = keep_sent;
    threads.emplace_back([&clients, &w, cfg, c] {
      PinThread(0, c);
      ReadLoop(clients[c].get(), cfg, &w.readers[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  w.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  ++windows_run_;
  return w;
}

/// One round of ask-possible on the loaded epoch, for the workload whose
/// own traffic has none, with no other traffic. It runs before each half
/// of the traced pass; the write probe comes after them, so every round
/// sees the KB as loaded.
void Run::AskPossibleRound(Client* client, ReaderOut* probe) {
  if (mixed()) return;
  ReaderConfig cfg;
  cfg.pool = &probe_pool_;
  cfg.max_requests = probe_pool_.size();
  cfg.keep_sent = true;
  ReadLoop(client, cfg, probe);
}

/// Each pool entry's fastest round trip in `outs`, for the entries of
/// `kind` (all entries without one); entries never answered are left out.
/// The end-to-end latencies are quantiles of these. Other tenants of a
/// shared host slow it in phases of seconds to minutes, by up to a third;
/// a request's fastest answer over the dozens of times a run sends it is
/// what the program costs when the host is not in the way, and it moves
/// far less from run to run than the request's average.
std::vector<uint64_t> FastestPerEntry(const std::vector<PoolEntry>& pool,
                                      std::span<const ReaderOut* const> outs,
                                      std::optional<Kind> kind) {
  std::vector<uint64_t> fastest;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (kind && pool[i].request.kind != *kind) continue;
    uint64_t best = 0;
    for (const ReaderOut* r : outs) {
      const uint64_t ns = i < r->best_ns.size() ? r->best_ns[i] : 0;
      if (ns != 0 && (best == 0 || ns < best)) best = ns;
    }
    if (best != 0) fastest.push_back(best);
  }
  return fastest;
}

std::vector<const ReaderOut*> Readers(const WindowOut& w) {
  std::vector<const ReaderOut*> out;
  for (const ReaderOut& r : w.readers) out.push_back(&r);
  return out;
}

/// A write phase after the read window. The traced pass writes enough
/// units for the write-side layer metrics; the untraced pass only enough
/// for the op-log replay check.
WriterOut Run::WriteProbe() {
  WriterConfig wc;
  wc.shape = shape_;
  wc.seed = Mix(opts_.seed, 300);
  wc.units = opts_.trace ? (opts_.tiny ? 160 : 5120) : (opts_.tiny ? 32 : 512);
  WriterOut out;
  WriteLoop(stack_.db.get(), stack_.engine.get(), wc, &out);
  return out;
}

/// The KB file plus the op log this run wrote, replayed into a fresh
/// Database, must derive exactly the master's state.
bool Run::ReplayLogMatches() {
  Span span("storage.replay");
  Database fresh;
  Must(fresh.LoadFile(opts_.kb_path), "replay: load kb");
  Must(fresh.LoadFile(log_path_), "replay: load op log");
  return fresh.kb().CanonicalDerivedState() ==
         stack_.db->kb().CanonicalDerivedState();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

void Run::PrintProvenance() const {
  std::printf(
      "{\"provenance\": {\"git_sha\": %s, \"git_dirty\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"nproc\": %u, "
      "\"classic_obs\": %d, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"tiny\": %d, \"concepts\": %zu, "
      "\"individuals\": %zu}}\n",
      JsonString(opts_.git_sha).c_str(), JsonString(opts_.git_dirty).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      std::thread::hardware_concurrency(), CLASSIC_OBS,
      JsonString(opts_.workload_name).c_str(),
      static_cast<unsigned long long>(opts_.seed), opts_.seconds,
      opts_.trace ? 1 : 0, opts_.tiny ? 1 : 0, shape_.concepts,
      shape_.individuals);
}

double Us(double ns) { return ns / 1e3; }

/// Client latencies of every read of a window.
std::vector<uint64_t> Latencies(const WindowOut& w) {
  std::vector<uint64_t> out;
  for (const ReaderOut& r : w.readers) {
    for (const std::vector<uint64_t>& kind : r.latency_ns) {
      out.insert(out.end(), kind.begin(), kind.end());
    }
  }
  return out;
}

/// The latencies are quantiles over the pool's entries of each entry's
/// fastest round trip in the window (FastestPerEntry). read_rps is what
/// the closed loop completes at those round trips: the connections over
/// their mean, as each connection walks the whole pool and so sends every
/// entry equally often. The window's plain figures are per-layer metrics
/// (window.*).
MetricMap Run::EndToEnd(const WindowOut& window, double peak_rss_mb) const {
  const std::vector<const ReaderOut*> readers = Readers(window);
  const std::vector<uint64_t> all =
      FastestPerEntry(pool_, readers, std::nullopt);
  auto p50_us = [&](Kind kind) {
    return Us(Quantile(FastestPerEntry(pool_, readers, kind), 0.5));
  };
  double sum_ns = 0;
  for (const uint64_t ns : all) sum_ns += static_cast<double>(ns);
  MetricMap m;
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};
  m["read_rps"] = {
      Ratio(static_cast<double>(kReadConnections * all.size()) * 1e9, sum_ns),
      "1/s"};
  m["read_p50_us"] = {Us(Quantile(all, 0.50)), "us"};
  m["read_p99_us"] = {Us(Quantile(all, 0.99)), "us"};
  m["ask_p50_us"] = {p50_us(Kind::kAsk), "us"};
  m["path_query_p50_us"] = {p50_us(Kind::kPathQuery), "us"};
  m["describe_p50_us"] = {p50_us(Kind::kDescribeIndividual), "us"};
  return m;
}

MetricMap Run::PerLayer(const WindowOut& untraced, const WindowOut& traced,
                        const ReaderOut& probe, const WriterOut& writes) {
  // Engine work per request: replay a strided sample of the traced
  // window's requests (and one round of the probe) on the one epoch they
  // were served from.
  ReplayAgg agg;
  std::vector<uint64_t> window_ids;
  for (const ReaderOut& r : traced.readers) {
    for (const Sent& s : r.sent) window_ids.push_back(s.request_id);
  }
  size_t i = 0;
  const size_t stride = std::max<size_t>(1, window_ids.size() / kReplaySample);
  for (const ReaderOut& r : traced.readers) {
    for (const Sent& s : r.sent) {
      if (i++ % stride != 0) continue;
      ReplayOne(loaded_->kb(), pool_[s.pool_index], s.request_id, false, &agg);
    }
  }
  // One round of the probe.
  for (size_t k = 0; k < std::min(probe.sent.size(), probe_pool_.size()); ++k) {
    const Sent& s = probe.sent[k];
    ReplayOne(loaded_->kb(), probe_pool_[s.pool_index], s.request_id, true,
              &agg);
  }

  // The concurrency probe, outside every timed window: one QueryBatch of
  // the workload's requests at 1 thread and at nproc threads, alternating,
  // after one unmeasured round. It runs on one thread of its own: the 1-
  // thread batch is served inline on the calling thread, and the main
  // thread's allocator state after set-up would tilt the comparison.
  std::vector<QueryRequest> batch;
  const size_t batch_size =
      std::min(pool_.size(), mixed() ? size_t{256} : size_t{2048});
  for (size_t k = 0; k < batch_size; ++k) batch.push_back(pool_[k].request);
  std::vector<double> wall1, walln, cpu1, cpun;
  std::thread([&] {
    for (int rep = 0; rep < 6; ++rep) {
      for (const size_t threads : {size_t{1}, size_t{0}}) {
        const uint64_t t0 = NowNs();
        std::vector<QueryAnswer> answers;
        {
          Span span("kb.engine.query_batch");
          answers = stack_.engine->QueryBatch(batch, threads);
        }
        const double wall = static_cast<double>(NowNs() - t0);
        double cpu = 0;
        for (const QueryAnswer& a : answers) {
          cpu += static_cast<double>(a.stats.wall_nanos);
        }
        if (rep == 0) continue;
        (threads == 1 ? wall1 : walln).push_back(wall);
        (threads == 1 ? cpu1 : cpun).push_back(cpu);
      }
    }
  }).join();

  // Pair each traced wire request with its replay: the round trip less
  // the in-process serve is what the serving layers and the kernel cost.
  const std::vector<SpanRecord> spans = CollectSpans();
  struct RequestTimes {
    uint64_t client_ns = 0;
    uint64_t codec_ns = 0;
    uint64_t serve_ns = 0;
  };
  std::unordered_map<uint64_t, RequestTimes> per_request;
  for (const SpanRecord& s : spans) {
    if (s.request == 0) continue;
    const std::string_view name = s.name;
    RequestTimes& t = per_request[s.request];
    if (name == "client.request") t.client_ns += s.duration_ns();
    if (name.rfind("serve.codec.", 0) == 0) t.codec_ns += s.duration_ns();
    if (name == "kb.engine.serve_query") t.serve_ns += s.duration_ns();
  }
  std::vector<uint64_t> self_ns, codec_ns;
  for (const uint64_t id : window_ids) {
    const auto it = per_request.find(id);
    if (it == per_request.end() || it->second.serve_ns == 0) continue;
    const RequestTimes& t = it->second;
    self_ns.push_back(t.client_ns > t.serve_ns ? t.client_ns - t.serve_ns : 0);
    codec_ns.push_back(t.codec_ns);
  }

  const double ops = static_cast<double>(std::max<uint64_t>(agg.replayed, 1));
  auto total = [&](Counter c) {
    return static_cast<double>(agg.counters[static_cast<size_t>(c)]);
  };
  MetricMap m;
  m["serve.roundtrip_self_us"] = {Us(Quantile(self_ns, 0.5)), "us"};
  m["serve.codec_us"] = {Us(Quantile(codec_ns, 0.5)), "us"};
  uint64_t answer_bytes = 0;
  for (const ReaderOut& r : traced.readers) answer_bytes += r.answer_bytes;
  m["serve.answer_bytes"] = {Ratio(static_cast<double>(answer_bytes),
                                   static_cast<double>(traced.reads_ok())),
                             "bytes"};
  m["serve.requests_shed"] = {
      static_cast<double>(stack_.server->stats().requests_shed), "count"};

  m["desc.parse_us"] = {Us(Quantile(DurationsOf(spans, "desc.parse"), 0.5)),
                        "us"};
  m["desc.normalizations_per_op"] = {total(Counter::kNormalizations) / ops,
                                     "count"};
  m["desc.intern_hit_rate"] = {
      Ratio(total(Counter::kInternHits),
            total(Counter::kInternHits) + total(Counter::kInternMisses)),
      "frac"};
  m["subsume.tests_per_op"] = {total(Counter::kSubsumptionTests) / ops,
                               "count"};
  m["subsume.memo_hit_rate"] = {
      Ratio(total(Counter::kSubsumptionMemoHits),
            total(Counter::kSubsumptionMemoHits) +
                total(Counter::kSubsumptionTests)),
      "frac"};
  m["taxonomy.classifications_per_op"] = {
      total(Counter::kClassifications) / ops, "count"};

  uint64_t window_ns = 0;
  for (const KindAgg& k : agg.kinds) window_ns += k.window_ns;
  uint64_t useful = 0, checks = 0;
  const std::pair<Kind, const char*> reported[] = {
      {Kind::kAsk, "ask"},
      {Kind::kAskPossible, "ask-possible"},
      {Kind::kPathQuery, "path-query"},
      {Kind::kDescribeIndividual, "describe-individual"},
      {Kind::kMostSpecificConcepts, "most-specific-concepts"},
      {Kind::kInstancesOf, "instances-of"}};
  for (const auto& [kind, name] : reported) {
    const KindAgg& k = agg.kinds[KindIndex(kind)];
    m[StrCat("query.time_share.", name)] = {
        Ratio(static_cast<double>(k.window_ns), static_cast<double>(window_ns)),
        "frac"};
    // Per-kind times and counts only for the kinds every workload serves
    // (in its traffic or in a probe).
    if (kind == Kind::kMostSpecificConcepts || kind == Kind::kInstancesOf) {
      continue;
    }
    m[StrCat("query.serve_us.", name)] = {Us(Quantile(k.serve_ns, 0.5)), "us"};
    m[StrCat("query.instance_checks.", name)] = {
        Ratio(static_cast<double>(k.instance_checks),
              static_cast<double>(k.serve_ns.size())),
        "count"};
    if (kind == Kind::kAsk || kind == Kind::kAskPossible) {
      useful += k.values;
      checks += k.instance_checks;
    }
  }
  m["query.answers_per_check"] = {
      Ratio(static_cast<double>(useful), static_cast<double>(checks)), "frac"};
  m["query.index_path_share"] = {
      Ratio(total(Counter::kPlannerIndexPath),
            total(Counter::kPlannerIndexPath) + total(Counter::kPlannerScanPath)),
      "frac"};
  m["query.postings_scanned"] = {total(Counter::kPlannerPostingsScanned) / ops,
                                 "count"};
  m["query.candidates_pruned"] = {
      total(Counter::kPlannerCandidatesPruned) / ops, "count"};

  m["kb.engine.batch_speedup"] = {Ratio(MedianOf(wall1), MedianOf(walln)), "x"};
  m["kb.engine.cpu_inflation"] = {Ratio(MedianOf(cpun), MedianOf(cpu1)), "x"};
  m["kb.engine.publish_us.p50"] = {Us(Quantile(writes.publish_ns, 0.5)), "us"};
  m["kb.engine.publish_us.p99"] = {Us(Quantile(writes.publish_ns, 0.99)), "us"};
  m["kb.engine.publish_us.max"] = {Us(Quantile(writes.publish_ns, 1.0)), "us"};
  const double units = static_cast<double>(std::max<uint64_t>(writes.units, 1));
  auto written = [&](Counter c) {
    return static_cast<double>(writes.counters[static_cast<size_t>(c)]);
  };
  m["kb.engine.chunks_copied_per_publish"] = {
      Ratio(written(Counter::kPublishChunksCopied),
            static_cast<double>(writes.publishes)),
      "count"};
  m["write_units_per_s"] = {
      Ratio(static_cast<double>(writes.units - writes.failed), writes.wall_s),
      "1/s"};
  m["write_visible_p50_us"] = {Us(Quantile(writes.visible_ns, 0.50)), "us"};
  m["write_visible_p99_us"] = {Us(Quantile(writes.visible_ns, 0.99)), "us"};
  m["kb.write_call_us.p50"] = {Us(Quantile(writes.call_ns, 0.5)), "us"};
  m["kb.write_call_us.p99"] = {Us(Quantile(writes.call_ns, 0.99)), "us"};
  m["kb.propagation_steps_per_unit"] = {
      written(Counter::kPropagationSteps) / units, "count"};
  m["kb.realizations_per_unit"] = {written(Counter::kRealizations) / units,
                                   "count"};
  std::ifstream log(log_path_, std::ios::binary | std::ios::ate);
  const double log_bytes = log ? static_cast<double>(log.tellg()) : 0;
  m["storage.log_bytes_per_unit"] = {
      Ratio(log_bytes, static_cast<double>(writes.units)), "bytes"};
  m["trace.overhead_frac"] = {Ratio(untraced.read_rps(), traced.read_rps()) - 1,
                              "frac"};
  // From the traffic on mixed-read, from the probe on point-read.
  const std::vector<const ReaderOut*> asked =
      mixed() ? Readers(untraced) : std::vector<const ReaderOut*>{&probe};
  m["ask_possible_p50_us"] = {
      Us(Quantile(FastestPerEntry(mixed() ? pool_ : probe_pool_, asked,
                                  Kind::kAskPossible),
                  0.5)),
      "us"};
  // The untraced half's plain figures, every request as it came.
  const std::vector<uint64_t> latencies = Latencies(untraced);
  m["window.read_rps"] = {untraced.read_rps(), "1/s"};
  m["window.read_p50_us"] = {Us(Quantile(latencies, 0.50)), "us"};
  m["window.read_p99_us"] = {Us(Quantile(latencies, 0.99)), "us"};

  // Layer self times go to stderr and into the trace file.
  std::string self_json = "{";
  for (const auto& [name, ns] : SelfTimeByName(spans)) {
    std::fprintf(stderr, "  self %-28s %12.3f ms\n", name.c_str(),
                 static_cast<double>(ns) / 1e6);
    self_json += StrCat(self_json.size() > 1 ? "," : "", JsonString(name), ":",
                        static_cast<double>(ns) / 1e6);
  }
  self_json += "}";
  const std::string trace_path = StrCat(opts_.work_dir, "/trace-",
                                        opts_.workload_name, "-", opts_.seed,
                                        ".json");
  std::ofstream(trace_path) << ChromeTraceJson(
      spans, kTraceEventsWritten,
      StrCat("{\"workload\":", JsonString(opts_.workload_name),
             ",\"seed\":", opts_.seed, ",\"self_ms\":", self_json, "}"));
  std::fprintf(stderr, "wirebench: trace written to %s (%zu spans)\n",
               trace_path.c_str(), spans.size());
  return m;
}

int Run::Main() {
  PrintProvenance();
  log_path_ = StrCat(opts_.work_dir, "/ops-", opts_.workload_name, "-",
                     opts_.seed, ".log");
  std::remove(log_path_.c_str());
  SetTracing(opts_.trace);

  // Set-up is timed in two batches: before the reads (the last stack stays
  // up for the run) and after the run. On a shared virtual machine set-up
  // runs in fast and slow phases of about a second each (the small KB loads in 0.055 s
  // or in 0.10 s), so one batch of a few seconds can land mostly in
  // either; the median over two batches half a minute apart moves less.
  const size_t setup_batch = shape_.individuals > 4096 ? 2 : 20;
  SetUpTimes(setup_batch);
  loaded_ = stack_.engine->snapshot();
  BuildPools();
  Must(stack_.db->OpenLog(log_path_), "open op log");

  std::vector<std::unique_ptr<Client>> clients = Connect(kReadConnections);
  ReaderOut probe;
  SetTracing(false);
  // windows[0] warms up: first-touch costs stay out of what is measured.
  // The untraced pass measures one window; the traced pass an untraced
  // and a traced half, each after a round of the ask-possible probe.
  std::vector<WindowOut> windows;
  windows.push_back(
      RunWindow(clients, std::min(0.5, opts_.seconds / 10), false));
  // Taken here, the peak covers the loaded KB, its caches and the server,
  // but not the write probe.
  const double peak_rss_mb = PeakRssMb();
  if (opts_.trace) {
    AskPossibleRound(clients[0].get(), &probe);
    windows.push_back(RunWindow(clients, opts_.seconds / 2, false));
    SetTracing(true);
    AskPossibleRound(clients[0].get(), &probe);
    windows.push_back(RunWindow(clients, opts_.seconds / 2, true));
  } else {
    windows.push_back(RunWindow(clients, opts_.seconds, false));
  }
  const WriterOut writes = WriteProbe();
  MetricMap metrics =
      opts_.trace ? MetricMap{} : EndToEnd(windows[1], peak_rss_mb);

  uint64_t read_attempted = probe.attempted, read_failed = probe.failed;
  uint64_t mismatched = probe.mismatched;
  uint64_t write_attempted = 0, write_failed = 0;
  for (const WindowOut& w : windows) {
    for (const ReaderOut& r : w.readers) {
      read_attempted += r.attempted;
      read_failed += r.failed;
      mismatched += r.mismatched;
    }
  }
  write_attempted += writes.units;
  write_failed += writes.failed;
  const bool log_matches = ReplayLogMatches();
  if (opts_.trace) {
    metrics = PerLayer(windows[1], windows[2], probe, writes);
    metrics["read_failed_frac"] = {
        Ratio(static_cast<double>(read_failed),
              static_cast<double>(read_attempted)),
        "frac"};
    metrics["write_failed_frac"] = {
        Ratio(static_cast<double>(write_failed),
              static_cast<double>(write_attempted)),
        "frac"};
  }
  stack_.server->Stop();
  loaded_.reset();
  SetUpTimes(setup_batch);
  if (opts_.trace) {
    metrics["storage.load_s"] = {MedianOf(load_s_), "s"};
  } else {
    metrics["setup_s"] = {MedianOf(setup_s_), "s"};
  }

  std::fprintf(stderr,
               "wirebench: %s seed=%llu reads=%llu (failed %llu) "
               "writes=%llu (failed %llu) mismatched=%llu log_replay=%s\n",
               opts_.workload_name.c_str(),
               static_cast<unsigned long long>(opts_.seed),
               static_cast<unsigned long long>(read_attempted),
               static_cast<unsigned long long>(read_failed),
               static_cast<unsigned long long>(write_attempted),
               static_cast<unsigned long long>(write_failed),
               static_cast<unsigned long long>(mismatched),
               log_matches ? "match" : "MISMATCH");
  const bool correct = mismatched == 0 && log_matches;
  std::string json = StrCat("{\"correct\": ", correct ? "true" : "false",
                            ", \"attempted\": ", read_attempted + write_attempted,
                            ", \"failed\": ", read_failed + write_failed,
                            ", \"metrics\": {");
  bool first = true;
  for (const auto& [name, value_unit] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", value_unit.first);
    json += StrCat(first ? "" : ", ", JsonString(name), ": {\"value\": ", value,
                   ", \"unit\": ", JsonString(value_unit.second), "}");
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

/// The standard workload's KB (bench::BuildStandardWorkload) with the
/// schema of the E10 KB (seed 42) and the individuals drawn from `seed`.
/// Holding the schema fixed keeps the seed from changing how much
/// inference a write or a query triggers, which moved the write rate on
/// the 1024-individual KB by a fifth from seed to seed.
int Generate(Workload w, uint64_t seed, bool tiny, const std::string& out) {
  const Shape s = ShapeOf(w, tiny);
  Database db;
  classic::bench::SchemaSpec schema;
  schema.num_primitives = s.primitives();
  schema.num_defined = s.defined();
  schema.seed = 42;
  classic::bench::AboxSpec abox;
  abox.num_individuals = s.individuals;
  abox.seed = Mix(seed, 1);
  classic::bench::PopulateIndividuals(
      &db, classic::bench::BuildSchema(&db, schema), abox);
  Must(db.SaveSnapshot(out), StrCat("save ", out));
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: wirebench gen --workload W --seed N --out FILE [--tiny]\n"
               "       wirebench run --workload W --seed N --seconds S "
               "--trace 0|1 --kb FILE --work-dir DIR [--tiny] "
               "[--git-sha SHA] [--git-dirty 0|1]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  Options opts;
  std::string out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opts.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = ParseWorkload(value);
      opts.workload_name = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--kb") {
      opts.kb_path = value;
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else if (arg == "--out") {
      out = value;
    } else if (arg == "--git-sha") {
      opts.git_sha = value;
    } else if (arg == "--git-dirty") {
      opts.git_dirty = value;
    } else {
      return Usage();
    }
  }
  if (opts.workload_name.empty()) return Usage();
  if (mode == "gen" && !out.empty()) {
    return Generate(opts.workload, opts.seed, opts.tiny, out);
  }
  if (mode == "run" && !opts.kb_path.empty() && !opts.work_dir.empty() &&
      opts.seconds > 0) {
    return Run(std::move(opts)).Main();
  }
  return Usage();
}
