#include "obs/stats_runner.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "classic/interpreter.h"
#include "kb/kb_engine.h"
#include "kb/session.h"
#include "sexpr/sexpr.h"
#include "util/string_util.h"

namespace classic::obs {

namespace {

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError(StrCat("cannot open ", path));
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += StrCat("\\u00", std::string(1, hex[(c >> 4) & 0xf]),
                        std::string(1, hex[c & 0xf]));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string PhaseToJson(const PhaseStats& p) {
  return StrCat("{\"phase\": \"", p.phase, "\", \"ops\": ", p.ops,
                ", \"wall_ns\": ", p.wall_nanos,
                ", \"counters\": ", CountersToJson(p.counters), "}");
}

}  // namespace

std::string ProgramStats::ToJson() const {
  std::string out = StrCat("{\"file\": \"", JsonEscape(file),
                           "\",\n \"phases\": [");
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) out += ",\n            ";
    out += PhaseToJson(phases[i]);
  }
  out += "],\n \"planner\": [";
  for (size_t i = 0; i < planner.size(); ++i) {
    if (i > 0) out += ",\n             ";
    out += StrCat("{\"kind\": \"", planner[i].kind,
                  "\", \"queries\": ", planner[i].queries,
                  ", \"index-path\": ", planner[i].index_path,
                  ", \"scan-path\": ", planner[i].scan_path, "}");
  }
  out += StrCat("],\n \"registry\": ", registry.ToJson(), "}");
  return out;
}

std::string ProgramStats::ToText() const {
  std::string out = StrCat(file, "\n");
  for (const PhaseStats& p : phases) {
    out += StrCat("phase ", p.phase, ": ", p.ops, " ops in ",
                  HumanNanos(p.wall_nanos), "\n");
    for (size_t i = 0; i < kNumCounters; ++i) {
      if (p.counters[i] == 0) continue;
      out += StrCat("  ", CounterName(static_cast<Counter>(i)), " = ",
                    p.counters[i], "\n");
    }
  }
  for (const PlannerKindStats& p : planner) {
    if (p.queries == 0) continue;
    out += StrCat("planner ", p.kind, ": ", p.queries, " queries, ",
                  p.index_path, " index-path, ", p.scan_path,
                  " scan-path\n");
  }
  out += registry.ToText();
  return out;
}

Result<ProgramStats> ReplayProgramWithStats(const std::string& path) {
  CLASSIC_ASSIGN_OR_RETURN(std::string text, ReadWholeFile(path));
  CLASSIC_ASSIGN_OR_RETURN(std::vector<sexpr::Value> forms,
                           sexpr::ParseAll(text));

  ResetMetrics();
  ProgramStats report;
  report.file = path;

  // A failing form, schema or read, fails the run and is named with its
  // status.
  const auto fail = [&path](const sexpr::Value& op, const Status& st) {
    return Status(st.code(),
                  StrCat(path, ": ", op.ToString(), ": ", st.ToString()));
  };

  // --- load: replay every form that is not a read. Reads are parsed by
  // the repl's and the wire's request parser and kept for the query
  // phase; a malformed read fails to parse, so the interpreter replays
  // it and reports that parser's error.
  std::vector<std::pair<sexpr::Value, QueryRequest>> reads;
  Database db;
  Interpreter interp(&db);
  {
    PhaseStats phase;
    phase.phase = "load";
    CounterDeltaScope window;
    const uint64_t start = MonotonicNanos();
    for (const sexpr::Value& op : forms) {
      if (Result<QueryRequest> req = Session::RequestFromForm(op); req.ok()) {
        reads.emplace_back(op, std::move(*req));
        continue;
      }
      Result<std::string> r = interp.Execute(op);
      if (!r.ok()) return fail(op, r.status());
      ++phase.ops;
    }
    phase.wall_nanos = MonotonicNanos() - start;
    phase.counters = window.Deltas();
    report.phases.push_back(std::move(phase));
  }

  // --- publish: copy the loaded base copy-on-write as epoch 1.
  KbEngine engine(KbEngine::Options{.num_threads = 1});
  {
    PhaseStats phase;
    phase.phase = "publish";
    phase.ops = 1;
    CounterDeltaScope window;
    const uint64_t start = MonotonicNanos();
    engine.PublishFrom(db.kb());
    phase.wall_nanos = MonotonicNanos() - start;
    phase.counters = window.Deltas();
    report.phases.push_back(std::move(phase));
  }

  // --- query: serve every read form against the published epoch through
  // a Session, as the repl's (as-of 1 <form>) and the wire do.
  {
    PhaseStats phase;
    phase.phase = "query";
    CounterDeltaScope window;
    const uint64_t start = MonotonicNanos();
    const Session session(&engine);
    // Always report all seven kinds in Kind order, even at zero — the
    // histogram's shape is part of the JSON contract.
    constexpr size_t kNumKinds =
        static_cast<size_t>(QueryRequest::Kind::kInstancesOf) + 1;
    report.planner.resize(kNumKinds);
    for (size_t k = 0; k < kNumKinds; ++k) {
      report.planner[k].kind =
          QueryKindName(static_cast<QueryRequest::Kind>(k));
    }
    for (const auto& [op, req] : reads) {
      // ServeQuery's per-answer counter deltas attribute each concept
      // retrieval's access-path choice to the request that caused it.
      QueryAnswer ans = session.Serve(req);
      if (!ans.status.ok()) return fail(op, ans.status);
      PlannerKindStats& pk =
          report.planner[static_cast<size_t>(req.kind)];
      ++pk.queries;
      pk.index_path += ans.stats.counter(Counter::kPlannerIndexPath);
      pk.scan_path += ans.stats.counter(Counter::kPlannerScanPath);
      ++phase.ops;
    }
    phase.wall_nanos = MonotonicNanos() - start;
    phase.counters = window.Deltas();
    report.phases.push_back(std::move(phase));
  }

  report.registry = SnapshotMetrics();
  return report;
}

}  // namespace classic::obs
