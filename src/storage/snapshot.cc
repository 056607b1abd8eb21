#include "storage/snapshot.h"

#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace classic::storage {

std::string DumpDatabase(const KnowledgeBase& kb) {
  const Vocabulary& vocab = kb.vocab();
  const SymbolTable& symbols = vocab.symbols();
  std::ostringstream out;

  out << "; CLASSIC snapshot (replayable operation program)\n";

  for (RoleId r = 0; r < vocab.num_roles(); ++r) {
    const RoleInfo& info = vocab.role(r);
    out << (info.attribute ? "(define-attribute " : "(define-role ")
        << symbols.Name(info.name) << ")\n";
  }

  for (IndId i = 0; i < vocab.num_individuals(); ++i) {
    const IndInfo& info = vocab.individual(i);
    if (info.kind != IndKind::kClassic) continue;  // host values are interned on demand
    out << "(create-ind " << symbols.Name(info.name) << ")\n";
  }

  for (ConceptId c = 0; c < vocab.num_concepts(); ++c) {
    const ConceptInfo& info = vocab.concept_info(c);
    out << "(define-concept " << symbols.Name(info.name) << " "
        << info.source->ToString(symbols) << ")\n";
  }

  for (const Rule& rule : kb.rules()) {
    out << "(assert-rule "
        << symbols.Name(vocab.concept_info(rule.antecedent_concept).name) << " "
        << rule.consequent_source->ToString(symbols) << ")\n";
  }

  // Assertions in the global order they were accepted, not grouped by
  // individual: CLOSE fixes a role to the fillers known at that moment,
  // which may come from another individual's earlier assertion.
  const auto& log = kb.base_log();
  for (size_t i = 0; i < log.size(); ++i) {
    const auto& [ind, expr] = log[i];
    out << "(assert-ind " << symbols.Name(vocab.individual(ind).name) << " "
        << expr->ToString(symbols) << ")\n";
  }

  return out.str();
}

Status WriteSnapshotFile(const KnowledgeBase& kb, const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return Status::IOError(StrCat("cannot open snapshot file: ", path));
  }
  out << DumpDatabase(kb);
  out.flush();
  if (!out) {
    return Status::IOError(StrCat("snapshot write failed: ", path));
  }
  return Status::OK();
}

}  // namespace classic::storage
