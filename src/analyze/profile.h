// The schema profile: a deterministic, machine-readable summary of what
// the whole-program analysis knows about a schema — per-concept static
// instance-selectivity estimates, per-role fan-out bounds and abstract
// filler domains, and the rule system's strata / depth bounds. A query
// planner (or a reviewer) can read it without rerunning the analysis;
// CI validates it against scripts/profile_schema.json and checks that
// repeated runs are byte-identical.

#pragma once

#include <string>

#include "analyze/abstract_domain.h"
#include "analyze/schema_graph.h"
#include "kb/knowledge_base.h"
#include "subsume/subsume_index.h"

namespace classic::analyze {

/// \brief Renders the schema profile as deterministic JSON (trailing
/// newline included). `file_label` is echoed into the "file" field.
/// `graph` and `abs` are the analysis results for `kb`.
std::string RenderProfileJson(const KnowledgeBase& kb,
                              const SchemaGraph& graph,
                              const AbstractSchema& abs,
                              const std::string& file_label);

/// \brief Renders the rule dependency graph as deterministic text (the
/// --deps mode): one block per rule with its stratum, depth and outgoing
/// edges, then the SCC/cycle summary.
std::string RenderDepsText(const KnowledgeBase& kb, const SchemaGraph& graph);

}  // namespace classic::analyze
