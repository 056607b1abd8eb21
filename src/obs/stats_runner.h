// The classic_stats replay harness: runs a `.classic` / `.clq` program
// and reports the inference work it cost, per phase.
//
// The run has three phases, mirroring the serving lifecycle:
//
//   load     every schema / update form, replayed through the
//            Interpreter into a scratch Database (definitions,
//            individuals, rules — the write side);
//   publish  adopting a clone of the loaded base into a KbEngine and
//            publishing the first epoch;
//   query    every read form — parsed by Session::RequestFromForm, the
//            parser the repl and the wire use — served through a Session
//            pinned to that one published epoch (so the query phase
//            exercises exactly the instrumented serving path,
//            KbEngine::ServeQuery, latency histograms included).
//
// Each phase reports its operation count, wall time and counter deltas;
// the report ends with the full registry snapshot. Query forms are
// answered against the *final* state of the base, not the point in the
// program where they appear — classic_stats measures inference work, it
// is not a REPL.

#pragma once

#include <string>
#include <vector>

#include "obs/registry.h"
#include "util/result.h"

namespace classic::obs {

/// \brief One phase's aggregate work.
struct PhaseStats {
  std::string phase;
  size_t ops = 0;
  uint64_t wall_nanos = 0;
  CounterArray counters{};
};

/// \brief Planner access-path choices for one request kind: how many
/// queries of that kind ran, and how many concept retrievals inside them
/// the planner answered from an index-derived candidate set vs. the
/// taxonomy-pruned scan. One query can contribute several retrievals (a
/// path query plans each concept atom), so index_path + scan_path may
/// exceed queries.
struct PlannerKindStats {
  std::string kind;
  uint64_t queries = 0;
  uint64_t index_path = 0;
  uint64_t scan_path = 0;
};

/// \brief The full report for one program run.
struct ProgramStats {
  std::string file;
  /// Always exactly "load", "publish", "query", in that order (a stable
  /// shape — the golden schema check depends on it).
  std::vector<PhaseStats> phases;
  /// Per-kind planner choice histogram for the query phase: always all
  /// seven request kinds, in QueryRequest::Kind order (another stable
  /// shape the schema check pins).
  std::vector<PlannerKindStats> planner;
  /// Registry state after the run (counters + latency histograms).
  MetricsSnapshot registry;

  std::string ToJson() const;
  std::string ToText() const;
};

/// \brief Resets the process metrics registry, replays the program at
/// `path` and returns the per-phase report. Errors (unreadable file,
/// unparsable program, a rejected schema/update form, or a read form
/// whose answer is an error) are a Status error whose message names the
/// failing form and its status.
Result<ProgramStats> ReplayProgramWithStats(const std::string& path);

}  // namespace classic::obs
