#include "query/taxonomy_printer.h"

#include <set>

#include "util/string_util.h"

namespace classic {

namespace {

std::string NodeLabel(const KnowledgeBase& kb, NodeId node) {
  std::vector<std::string> names;
  for (ConceptId cid : kb.taxonomy().Synonyms(node)) {
    names.push_back(
        kb.vocab().symbols().Name(kb.vocab().concept_info(cid).name));
  }
  return Join(names, " = ");
}

void RenderSubtree(const KnowledgeBase& kb, NodeId node, int depth,
                   bool with_counts, std::set<NodeId>* printed,
                   std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += NodeLabel(kb, node);
  if (with_counts) {
    size_t n = kb.Instances(node).Count();
    if (n > 0) *out += StrCat("  [", n, "]");
  }
  if (!printed->insert(node).second) {
    *out += "  ^\n";  // already expanded elsewhere (multiple parents)
    return;
  }
  *out += '\n';
  for (NodeId child : kb.taxonomy().Children(node)) {
    RenderSubtree(kb, child, depth + 1, with_counts, printed, out);
  }
}

}  // namespace

std::string RenderTaxonomyTree(const KnowledgeBase& kb,
                               bool with_instance_counts) {
  std::string out = "THING\n";
  std::set<NodeId> printed;
  for (NodeId root : kb.taxonomy().roots()) {
    RenderSubtree(kb, root, 1, with_instance_counts, &printed, &out);
  }
  return out;
}

std::string RenderTaxonomyDot(const KnowledgeBase& kb) {
  std::string out = "digraph taxonomy {\n  rankdir=BT;\n";
  out += "  thing [label=\"THING\" shape=box];\n";
  const Taxonomy& tax = kb.taxonomy();
  for (NodeId n = 0; n < tax.num_nodes(); ++n) {
    out += StrCat("  n", n, " [label=\"", EscapeString(NodeLabel(kb, n)),
                  "\"];\n");
  }
  for (NodeId n = 0; n < tax.num_nodes(); ++n) {
    if (tax.Parents(n).empty()) {
      out += StrCat("  n", n, " -> thing;\n");
    }
    for (NodeId p : tax.Parents(n)) {
      out += StrCat("  n", n, " -> n", p, ";\n");
    }
  }
  out += "}\n";
  return out;
}

}  // namespace classic
