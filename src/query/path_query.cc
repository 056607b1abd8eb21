#include "query/path_query.h"

#include <algorithm>
#include <map>
#include <set>

#include "desc/parser.h"
#include "query/planner.h"
#include "util/string_util.h"

namespace classic {

namespace {

bool IsVariable(const sexpr::Value& v) {
  return v.IsSymbol() && !v.text().empty() && v.text()[0] == '?';
}

}  // namespace

Result<PathQuery> ParsePathQuery(const sexpr::Value& v,
                                 const KnowledgeBase& kb) {
  if (!v.HasHead("select") || v.size() < 3) {
    return Status::InvalidArgument(
        "expected (select (?vars...) atom...), got " + v.ToString());
  }
  PathQuery q;
  std::map<std::string, size_t> var_ids;
  auto var_id = [&](const std::string& name) {
    auto it = var_ids.find(name);
    if (it != var_ids.end()) return it->second;
    size_t id = q.variables.size();
    q.variables.push_back(name);
    var_ids.emplace(name, id);
    return id;
  };

  // Projection list.
  const sexpr::Value& proj = v.at(1);
  if (!proj.IsList() || proj.size() == 0) {
    return Status::InvalidArgument(
        "select needs a non-empty list of output variables");
  }
  for (const auto& item : proj.items()) {
    if (!IsVariable(item)) {
      return Status::InvalidArgument(
          StrCat("not a variable in the select list: ", item.ToString()));
    }
    q.select.push_back(var_id(item.text()));
  }

  auto parse_term = [&](const sexpr::Value& t) -> Result<PathTerm> {
    if (IsVariable(t)) return PathTerm::Var(var_id(t.text()));
    CLASSIC_ASSIGN_OR_RETURN(IndRef ref,
                             ParseIndRef(t, &kb.vocab().symbols()));
    if (ref.is_named()) {
      CLASSIC_ASSIGN_OR_RETURN(IndId id,
                               kb.vocab().FindIndividual(ref.name()));
      return PathTerm::Const(id);
    }
    return PathTerm::Const(kb.vocab().InternHostValue(ref.host()));
  };

  std::set<size_t> constrained;
  for (size_t i = 2; i < v.size(); ++i) {
    const sexpr::Value& atom = v.at(i);
    if (!atom.IsList() || (atom.size() != 2 && atom.size() != 3)) {
      return Status::InvalidArgument(
          StrCat("bad query atom (want (term concept) or "
                 "(subj role obj)): ",
                 atom.ToString()));
    }
    if (atom.size() == 2) {
      PathAtom a;
      a.kind = PathAtom::Kind::kConcept;
      CLASSIC_ASSIGN_OR_RETURN(a.subject, parse_term(atom.at(0)));
      CLASSIC_ASSIGN_OR_RETURN(
          DescPtr d, ParseDescription(atom.at(1), &kb.vocab().symbols()));
      CLASSIC_ASSIGN_OR_RETURN(a.concept_nf,
                               kb.normalizer().NormalizeConcept(d));
      if (a.subject.is_var()) constrained.insert(a.subject.var());
      q.atoms.push_back(std::move(a));
    } else {
      PathAtom a;
      a.kind = PathAtom::Kind::kRole;
      CLASSIC_ASSIGN_OR_RETURN(a.subject, parse_term(atom.at(0)));
      if (!atom.at(1).IsSymbol()) {
        return Status::InvalidArgument(
            StrCat("expected a role name: ", atom.at(1).ToString()));
      }
      Symbol role_sym = kb.vocab().symbols().Intern(atom.at(1).text());
      CLASSIC_ASSIGN_OR_RETURN(a.role, kb.vocab().FindRole(role_sym));
      CLASSIC_ASSIGN_OR_RETURN(a.object, parse_term(atom.at(2)));
      if (a.subject.is_var()) constrained.insert(a.subject.var());
      if (a.object.is_var()) constrained.insert(a.object.var());
      q.atoms.push_back(std::move(a));
    }
  }

  for (size_t sel : q.select) {
    if (constrained.count(sel) == 0) {
      return Status::InvalidArgument(
          StrCat("output variable ", q.variables[sel],
                 " is not constrained by any atom"));
    }
  }
  return q;
}

Result<PathQuery> ParsePathQueryString(const std::string& text,
                                       const KnowledgeBase& kb) {
  CLASSIC_ASSIGN_OR_RETURN(sexpr::Value v, sexpr::Parse(text));
  return ParsePathQuery(v, kb);
}

namespace {

/// Backtracking join over the atoms.
class PathEvaluator {
 public:
  PathEvaluator(const KnowledgeBase& kb, const PathQuery& query)
      : kb_(kb), query_(query) {
    binding_.assign(query.variables.size(), kNoId);
    done_.assign(query.atoms.size(), false);
  }

  Result<PathQueryResult> Run() {
    CLASSIC_RETURN_NOT_OK(Search());
    PathQueryResult out;
    out.rows.assign(rows_.begin(), rows_.end());
    out.bindings_explored = bindings_explored_;
    out.concept_tests = concept_tests_;
    return out;
  }

 private:
  bool Bound(const PathTerm& t) const {
    return !t.is_var() || binding_[t.var()] != kNoId;
  }
  IndId Value(const PathTerm& t) const {
    return t.is_var() ? binding_[t.var()] : t.constant();
  }

  /// How constrained an unprocessed atom is (higher = pick first).
  int Score(const PathAtom& a) const {
    if (a.kind == PathAtom::Kind::kConcept) {
      return Bound(a.subject) ? 100 : 10;
    }
    int bound = (Bound(a.subject) ? 1 : 0) + (Bound(a.object) ? 1 : 0);
    if (bound == 2) return 100;  // pure filter
    if (bound == 1) return 50;   // one-step expansion
    return 1;                    // full enumeration, last resort
  }

  Status Search() {
    // Find the best unprocessed atom.
    int best = -1;
    int best_score = -1;
    for (size_t i = 0; i < query_.atoms.size(); ++i) {
      if (done_[i]) continue;
      int s = Score(query_.atoms[i]);
      if (s > best_score) {
        best_score = s;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) {
      // All atoms satisfied: emit the projected row.
      std::vector<IndId> row;
      row.reserve(query_.select.size());
      for (size_t v : query_.select) row.push_back(binding_[v]);
      rows_.insert(std::move(row));
      return Status::OK();
    }

    done_[best] = true;
    const PathAtom& atom = query_.atoms[best];
    Status st = atom.kind == PathAtom::Kind::kConcept
                    ? SolveConcept(atom)
                    : SolveRole(atom);
    done_[best] = false;
    return st;
  }

  Status SolveConcept(const PathAtom& atom) {
    if (Bound(atom.subject)) {
      ++concept_tests_;
      if (kb_.Satisfies(Value(atom.subject), *atom.concept_nf)) {
        return Search();
      }
      return Status::OK();
    }
    // Generator: classified retrieval seeds the domain.
    CLASSIC_ASSIGN_OR_RETURN(
        RetrievalResult r,
        planner::RetrieveConcept(kb_, *atom.concept_nf, nullptr));
    concept_tests_ += r.stats.candidates_tested;
    size_t var = atom.subject.var();
    for (IndId candidate : r.answers) {
      ++bindings_explored_;
      binding_[var] = candidate;
      CLASSIC_RETURN_NOT_OK(Search());
    }
    binding_[var] = kNoId;
    return Status::OK();
  }

  Status SolveRole(const PathAtom& atom) {
    const bool sb = Bound(atom.subject);
    const bool ob = Bound(atom.object);
    if (sb && ob) {
      const auto& fillers =
          kb_.state(Value(atom.subject)).derived->role(atom.role).fillers;
      if (fillers.count(Value(atom.object)) > 0) return Search();
      return Status::OK();
    }
    if (sb) {
      // Enumerate fillers.
      size_t var = atom.object.var();
      const auto fillers =
          kb_.state(Value(atom.subject)).derived->role(atom.role).fillers;
      for (IndId f : fillers) {
        ++bindings_explored_;
        binding_[var] = f;
        CLASSIC_RETURN_NOT_OK(Search());
      }
      binding_[var] = kNoId;
      return Status::OK();
    }
    if (ob) {
      // Reverse step: the (role, object) posting holds exactly the
      // subjects whose derived state fills the role with the object.
      size_t var = atom.subject.var();
      const IdSet<IndId>* subjects =
          kb_.fills_index().Postings(atom.role, Value(atom.object));
      if (subjects != nullptr) {
        for (IndId subject : *subjects) {
          ++bindings_explored_;
          binding_[var] = subject;
          CLASSIC_RETURN_NOT_OK(Search());
        }
      }
      binding_[var] = kNoId;
      return Status::OK();
    }
    // Neither bound: enumerate all subjects with fillers on this role.
    size_t svar = atom.subject.var();
    for (IndId subject : kb_.AllClassicIndividuals()) {
      const auto& fillers =
          kb_.state(subject).derived->role(atom.role).fillers;
      if (fillers.empty()) continue;
      ++bindings_explored_;
      binding_[svar] = subject;
      CLASSIC_RETURN_NOT_OK(SolveRole(atom));  // now subject is bound
    }
    binding_[svar] = kNoId;
    return Status::OK();
  }

  const KnowledgeBase& kb_;
  const PathQuery& query_;
  std::vector<IndId> binding_;
  std::vector<bool> done_;
  std::set<std::vector<IndId>> rows_;
  size_t bindings_explored_ = 0;
  size_t concept_tests_ = 0;
};

}  // namespace

Result<PathQueryResult> EvaluatePathQuery(const KnowledgeBase& kb,
                                          const PathQuery& query) {
  PathEvaluator eval(kb, query);
  return eval.Run();
}

std::vector<std::vector<std::string>> PathQueryRowNames(
    const KnowledgeBase& kb, const PathQueryResult& result) {
  std::vector<std::vector<std::string>> out;
  out.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::vector<std::string> names;
    names.reserve(row.size());
    for (IndId i : row) names.push_back(kb.vocab().IndividualName(i));
    out.push_back(std::move(names));
  }
  return out;
}

}  // namespace classic
