#include "analyze/profile.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "query/selectivity.h"
#include "util/string_util.h"

namespace classic::analyze {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Deterministic shortest-round-trip-ish rendering; %g never emits
/// locale-dependent separators for the C locale the CLI runs in.
std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string JsonBool(bool b) { return b ? "true" : "false"; }

/// Representative display name of a taxonomy node (its first synonym).
std::string NodeName(const KnowledgeBase& kb, NodeId node) {
  const std::vector<ConceptId>& syns = kb.taxonomy().Synonyms(node);
  if (syns.empty()) return "?";
  return kb.vocab().symbols().Name(kb.vocab().concept_info(syns[0]).name);
}

std::string RuleLabel(const SchemaGraph& g, size_t rule) {
  return StrCat("rule #", rule + 1, " on ", g.rule_names[rule]);
}

std::string EdgeArrow(const DepEdge& e) {
  return e.kind == DepEdgeKind::kFiller ? StrCat("-(ALL ", e.role, ")->")
                                        : std::string("->");
}

}  // namespace

std::string RenderProfileJson(const KnowledgeBase& kb,
                              const SchemaGraph& graph,
                              const AbstractSchema& abs,
                              const std::string& file_label) {
  const Vocabulary& vocab = kb.vocab();
  std::string out =
      StrCat("{\n  \"version\": 1,\n  \"file\": \"", JsonEscape(file_label),
             "\",\n  \"concepts\": [");

  size_t num_concepts = 0;
  bool first_concept = true;
  for (ConceptId cid = 0; cid < vocab.num_concepts(); ++cid) {
    const ConceptInfo& info = vocab.concept_info(cid);
    if (info.normal_form == nullptr) continue;
    ++num_concepts;
    const ConceptSummary& summary = abs.summaries[cid];
    const RuleClosure& cl = summary.closure;
    const NormalForm& state =
        cl.state != nullptr ? *cl.state : *info.normal_form;

    out += first_concept ? "\n" : ",\n";
    first_concept = false;
    out += StrCat("    {\"name\": \"",
                  JsonEscape(vocab.symbols().Name(info.name)),
                  "\", \"selectivity\": ", JsonNumber(StaticSelectivity(state, vocab)),
                  ", \"doomed\": ", JsonBool(state.incoherent()));

    out += ", \"parents\": [";
    if (auto node = kb.taxonomy().NodeOf(cid); node.ok()) {
      bool first = true;
      for (NodeId p : kb.taxonomy().Parents(node.ValueOrDie())) {
        out += StrCat(first ? "" : ", ", "\"",
                      JsonEscape(NodeName(kb, p)), "\"");
        first = false;
      }
    }
    out += "], \"rules_fired\": [";
    for (size_t k = 0; k < cl.fired.size(); ++k) {
      out += StrCat(k > 0 ? ", " : "", cl.fired[k] + 1);
    }
    out += "], \"roles\": [";
    for (size_t k = 0; k < summary.roles.size(); ++k) {
      const RoleDomain& dom = summary.roles[k];
      out += StrCat(k > 0 ? ", " : "", "{\"role\": \"",
                    JsonEscape(dom.role), "\", \"at_least\": ", dom.at_least,
                    ", \"at_most\": ");
      out += dom.at_most == kUnbounded ? std::string("null")
                                       : StrCat(dom.at_most);
      out += StrCat(", \"closed\": ", JsonBool(dom.closed),
                    ", \"value_restriction\": ");
      if (dom.value_restriction != nullptr &&
          !dom.value_restriction->IsThing()) {
        out += StrCat("\"",
                      JsonEscape(dom.value_restriction->ToString(vocab)),
                      "\"");
      } else {
        out += "null";
      }
      out += StrCat(", \"filler_domain_empty\": ",
                    JsonBool(dom.filler_domain_empty), "}");
    }
    out += "]}";
  }

  out += "\n  ],\n  \"rules\": [";
  for (size_t i = 0; i < graph.num_rules; ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += StrCat("    {\"rule\": ", i + 1, ", \"antecedent\": \"",
                  JsonEscape(graph.rule_names[i]),
                  "\", \"dead\": ", JsonBool(graph.fired[i] == nullptr),
                  ", \"stratum\": ", graph.strata[i],
                  ", \"depth\": ", graph.depth[i], ", \"in_cycle\": ",
                  JsonBool(graph.IsCycle(graph.scc_of[i])), "}");
  }

  size_t num_cycles = 0;
  for (size_t c = 0; c < graph.sccs.size(); ++c) {
    if (graph.IsCycle(c)) ++num_cycles;
  }
  out += StrCat("\n  ],\n  \"summary\": {\"num_concepts\": ", num_concepts,
                ", \"num_rules\": ", graph.num_rules,
                ", \"num_edges\": ", graph.edges.size(),
                ", \"num_cycles\": ", num_cycles,
                ", \"num_strata\": ", graph.num_strata,
                ", \"max_rule_depth\": ", graph.max_depth, "}\n}\n");
  return out;
}

std::string RenderDepsText(const KnowledgeBase& kb, const SchemaGraph& g) {
  (void)kb;
  size_t num_cycles = 0;
  for (size_t c = 0; c < g.sccs.size(); ++c) {
    if (g.IsCycle(c)) ++num_cycles;
  }
  std::string out = StrCat(
      "rule dependency graph: ", g.num_rules, " rule(s), ", g.edges.size(),
      " edge(s), ", num_cycles, " cycle(s), ", g.num_strata,
      " strata, max chain depth ", g.max_depth, "\n");
  for (size_t i = 0; i < g.num_rules; ++i) {
    out += StrCat(RuleLabel(g, i), " [stratum ", g.strata[i], ", depth ",
                  g.depth[i], g.fired[i] == nullptr ? ", dead" : "", "]\n");
    for (size_t e : g.out[i]) {
      out += StrCat("  ", EdgeArrow(g.edges[e]), " ",
                    RuleLabel(g, g.edges[e].to), "\n");
    }
  }
  for (size_t c = 0; c < g.sccs.size(); ++c) {
    if (!g.IsCycle(c)) continue;
    out += StrCat("cycle: ", CyclePath(g, c), "\n");
  }
  return out;
}

}  // namespace classic::analyze
