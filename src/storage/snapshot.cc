#include "storage/snapshot.h"

#include <fstream>

#include "util/string_util.h"

namespace classic::storage {

std::string DumpDatabase(const KnowledgeBase& kb) {
  const Vocabulary& vocab = kb.vocab();
  const SymbolTable& symbols = vocab.symbols();
  // One buffer for the whole program: every description is appended in
  // place rather than rendered to a temporary first.
  std::string out = "; CLASSIC snapshot (replayable operation program)\n";
  auto form = [&](const char* head, Symbol name, const Description* body) {
    out += head;
    out += symbols.Name(name);
    if (body != nullptr) {
      out += ' ';
      body->AppendTo(symbols, &out);
    }
    out += ")\n";
  };

  for (RoleId r = 0; r < vocab.num_roles(); ++r) {
    const RoleInfo& info = vocab.role(r);
    form(info.attribute ? "(define-attribute " : "(define-role ", info.name,
         nullptr);
  }

  for (IndId i = 0; i < vocab.num_individuals(); ++i) {
    const IndInfo& info = vocab.individual(i);
    if (info.kind != IndKind::kClassic) continue;  // host values are interned on demand
    form("(create-ind ", info.name, nullptr);
  }

  for (ConceptId c = 0; c < vocab.num_concepts(); ++c) {
    const ConceptInfo& info = vocab.concept_info(c);
    form("(define-concept ", info.name, info.source.get());
  }

  for (const Rule& rule : kb.rules()) {
    form("(assert-rule ", vocab.concept_info(rule.antecedent_concept).name,
         rule.consequent_source.get());
  }

  // Assertions in the global order they were accepted, not grouped by
  // individual: CLOSE fixes a role to the fillers known at that moment,
  // which may come from another individual's earlier assertion.
  const auto& log = kb.base_log();
  for (size_t i = 0; i < log.size(); ++i) {
    const auto& [ind, expr] = log[i];
    form("(assert-ind ", vocab.individual(ind).name, expr.get());
  }

  return out;
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
