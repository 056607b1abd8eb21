#include "query/query.h"

#include <algorithm>

#include "desc/parser.h"
#include "query/planner.h"
#include "util/string_util.h"

namespace classic {

namespace {

/// Marker location info, relative to the expression it was found in.
struct MarkerInfo {
  std::vector<Symbol> roles;
  std::vector<DescPtr> constraints;  // size roles.size() + 1
};

struct ParsedPiece {
  DescPtr full;
  std::optional<MarkerInfo> marker;
};

bool IsMarkerSymbol(const sexpr::Value& v) {
  return v.IsSymbol() && StartsWith(v.text(), "?:");
}

Result<ParsedPiece> ParsePiece(const sexpr::Value& v, SymbolTable* symbols);

/// Parses the expression a marker points at (what follows `?:`).
Result<ParsedPiece> ParseMarked(const sexpr::Value& v, SymbolTable* symbols) {
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d, ParseDescription(v, symbols));
  ParsedPiece out;
  out.full = d;
  out.marker = MarkerInfo{{}, {d}};
  return out;
}

Result<ParsedPiece> ParsePiece(const sexpr::Value& v, SymbolTable* symbols) {
  // ?:NAME — marker attached to a symbol.
  if (IsMarkerSymbol(v)) {
    std::string rest = v.text().substr(2);
    if (rest.empty()) {
      return Status::InvalidArgument(
          "dangling ?: marker (expected ?:CONCEPT or ?: (expr))");
    }
    return ParseMarked(sexpr::Value::MakeSymbol(rest), symbols);
  }

  if (v.IsList() && v.size() > 0 && v.at(0).IsSymbol()) {
    const std::string& head = v.at(0).text();

    if (head == "AND") {
      std::vector<DescPtr> fulls;
      std::optional<MarkerInfo> marker;
      std::vector<DescPtr> siblings;
      // Walk items, merging a bare "?:" with the following expression.
      for (size_t i = 1; i < v.size(); ++i) {
        ParsedPiece piece;
        if (v.at(i).IsSymbolNamed("?:")) {
          if (i + 1 >= v.size()) {
            return Status::InvalidArgument("?: marker with nothing after it");
          }
          CLASSIC_ASSIGN_OR_RETURN(piece, ParseMarked(v.at(i + 1), symbols));
          ++i;
        } else {
          CLASSIC_ASSIGN_OR_RETURN(piece, ParsePiece(v.at(i), symbols));
        }
        fulls.push_back(piece.full);
        if (piece.marker) {
          if (marker) {
            return Status::InvalidArgument(
                "at most one ?: marker is allowed in a query");
          }
          marker = std::move(piece.marker);
        } else {
          siblings.push_back(piece.full);
        }
      }
      ParsedPiece out;
      out.full = fulls.size() == 1 ? fulls[0] : Description::And(fulls);
      if (marker) {
        // Sibling constraints apply at this level.
        std::vector<DescPtr> level0 = siblings;
        level0.push_back(marker->constraints[0]);
        marker->constraints[0] =
            level0.size() == 1 ? level0[0] : Description::And(level0);
        out.marker = std::move(marker);
      }
      return out;
    }

    if (head == "ALL" && v.size() == 3) {
      CLASSIC_ASSIGN_OR_RETURN(
          Symbol role,
          [&]() -> Result<Symbol> {
            if (!v.at(1).IsSymbol()) {
              return Status::InvalidArgument(
                  StrCat("bad role in ALL: ", v.ToString()));
            }
            return symbols->Intern(v.at(1).text());
          }());
      // The restriction may be "?:" <expr> wrapped awkwardly; handle the
      // common "?:(...)" split (symbol "?:" is not produced here since ALL
      // has exactly 3 elements — ?: + list would make it 4). Accept that
      // form too:
      ParsedPiece inner;
      CLASSIC_ASSIGN_OR_RETURN(inner, ParsePiece(v.at(2), symbols));
      ParsedPiece out;
      out.full = Description::All(role, inner.full);
      if (inner.marker) {
        MarkerInfo m;
        m.roles.push_back(role);
        m.roles.insert(m.roles.end(), inner.marker->roles.begin(),
                       inner.marker->roles.end());
        m.constraints.push_back(Description::Thing());
        m.constraints.insert(m.constraints.end(),
                             inner.marker->constraints.begin(),
                             inner.marker->constraints.end());
        out.marker = std::move(m);
      }
      return out;
    }

    if (head == "ALL" && v.size() == 4 && v.at(2).IsSymbolNamed("?:")) {
      // (ALL role ?: (expr))
      if (!v.at(1).IsSymbol()) {
        return Status::InvalidArgument(
            StrCat("bad role in ALL: ", v.ToString()));
      }
      Symbol role = symbols->Intern(v.at(1).text());
      CLASSIC_ASSIGN_OR_RETURN(ParsedPiece inner,
                               ParseMarked(v.at(3), symbols));
      ParsedPiece out;
      out.full = Description::All(role, inner.full);
      MarkerInfo m;
      m.roles.push_back(role);
      m.constraints.push_back(Description::Thing());
      m.constraints.push_back(inner.marker->constraints[0]);
      out.marker = std::move(m);
      return out;
    }
  }

  // No marker possible in any other constructor; parse as plain concept.
  CLASSIC_ASSIGN_OR_RETURN(DescPtr d, ParseDescription(v, symbols));
  ParsedPiece out;
  out.full = d;
  return out;
}

}  // namespace

Result<Query> ParseQuery(const sexpr::Value& v, SymbolTable* symbols) {
  // Top-level "?:" followed by an expression arrives as a 2-element list
  // only if the caller wrapped it; handle the symbol form and general
  // recursion.
  CLASSIC_ASSIGN_OR_RETURN(ParsedPiece piece, ParsePiece(v, symbols));
  Query q;
  q.full = piece.full;
  if (piece.marker) {
    q.has_marker = true;
    q.marker_roles = piece.marker->roles;
    q.level_constraints = piece.marker->constraints;
  } else {
    q.level_constraints = {piece.full};
  }
  return q;
}

Result<Query> ParseQueryString(const std::string& text,
                               SymbolTable* symbols) {
  CLASSIC_ASSIGN_OR_RETURN(std::vector<sexpr::Value> forms,
                           sexpr::ParseAll(text));
  if (forms.size() == 2 && forms[0].IsSymbolNamed("?:")) {
    // "?: (expr)" at top level parses as two forms; mark the second.
    std::vector<sexpr::Value> items;
    items.push_back(sexpr::Value::MakeSymbol("AND"));
    items.push_back(forms[0]);
    items.push_back(forms[1]);
    return ParseQuery(sexpr::Value::MakeList(std::move(items)), symbols);
  }
  if (forms.size() != 1) {
    return Status::InvalidArgument("expected a single query expression");
  }
  return ParseQuery(forms[0], symbols);
}

Query QueryFromConcept(DescPtr concept_desc) {
  Query q;
  q.full = concept_desc;
  q.level_constraints = {q.full};
  return q;
}

Result<RetrievalResult> Retrieve(const KnowledgeBase& kb, const Query& query) {
  return planner::RetrieveQuery(kb, query, nullptr);
}

Result<RetrievalResult> RetrieveNaive(const KnowledgeBase& kb,
                                      const Query& query) {
  CLASSIC_ASSIGN_OR_RETURN(
      NormalFormPtr root_nf,
      kb.normalizer().NormalizeConcept(query.level_constraints[0]));
  // Full scan of the root level: no classification, no index.
  RetrievalResult root;
  for (IndId i = 0; i < kb.num_visible_individuals(); ++i) {
    ++root.stats.candidates_tested;
    if (kb.Satisfies(i, *root_nf)) root.answers.push_back(i);
  }
  return planner::WalkMarker(kb, query, std::move(root), nullptr);
}

}  // namespace classic
