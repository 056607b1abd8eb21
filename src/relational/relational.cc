#include "relational/relational.h"

#include <algorithm>
#include <fstream>

#include "util/string_util.h"

namespace classic::relational {

size_t RelationalView::total_tuples() const {
  size_t n = 0;
  for (const auto& r : roles) n += r.tuples.size();
  for (const auto& c : concepts) n += c.members.size();
  return n;
}

RelationalView BuildRelationalView(const KnowledgeBase& kb) {
  const Vocabulary& vocab = kb.vocab();
  RelationalView view;

  view.roles.resize(vocab.num_roles());
  for (RoleId r = 0; r < vocab.num_roles(); ++r) {
    view.roles[r].role = vocab.symbols().Name(vocab.role(r).name);
    view.roles[r].attribute = vocab.role(r).attribute;
  }
  for (IndId i = 0; i < vocab.num_individuals(); ++i) {
    if (vocab.individual(i).kind != IndKind::kClassic) continue;
    const NormalForm& derived = *kb.state(i).derived;
    for (const auto& [role, rr] : derived.roles()) {
      for (IndId f : rr.fillers) {
        view.roles[role].tuples.emplace_back(vocab.IndividualName(i),
                                             vocab.IndividualName(f));
      }
    }
  }
  for (auto& rel : view.roles) {
    std::sort(rel.tuples.begin(), rel.tuples.end());
  }

  for (ConceptId c = 0; c < vocab.num_concepts(); ++c) {
    UnaryRelation rel;
    rel.concept_name = vocab.symbols().Name(vocab.concept_info(c).name);
    auto node = kb.taxonomy().NodeOf(c);
    if (node.ok()) {
      kb.Instances(*node).ForEach([&](size_t i) {
        rel.members.push_back(vocab.IndividualName(static_cast<IndId>(i)));
      });
      std::sort(rel.members.begin(), rel.members.end());
    }
    view.concepts.push_back(std::move(rel));
  }

  return view;
}

namespace {

std::string CsvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) return Status::IOError(StrCat("cannot open: ", path));
  out << contents;
  out.flush();
  if (!out) return Status::IOError(StrCat("write failed: ", path));
  return Status::OK();
}

}  // namespace

Status WriteCsv(const RelationalView& view, const std::string& directory) {
  for (const auto& rel : view.roles) {
    std::string body = "subject,filler\n";
    for (const auto& [s, f] : rel.tuples) {
      body += CsvEscape(s) + "," + CsvEscape(f) + "\n";
    }
    CLASSIC_RETURN_NOT_OK(
        WriteFile(StrCat(directory, "/role_", rel.role, ".csv"), body));
  }
  for (const auto& rel : view.concepts) {
    std::string body = "member\n";
    for (const auto& m : rel.members) body += CsvEscape(m) + "\n";
    CLASSIC_RETURN_NOT_OK(
        WriteFile(StrCat(directory, "/concept_", rel.concept_name, ".csv"), body));
  }
  return Status::OK();
}

}  // namespace classic::relational
