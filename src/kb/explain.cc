#include "kb/explain.h"

#include <algorithm>

#include "subsume/subsume.h"
#include "util/string_util.h"

namespace classic {

std::string Explanation::ToString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += holds ? "[ok] " : "[NO] ";
  out += summary;
  out += '\n';
  for (const auto& p : parts) out += p.ToString(indent + 1);
  return out;
}

namespace {

Explanation Leaf(bool holds, std::string summary) {
  return Explanation{holds, std::move(summary), {}};
}

std::string AtomName(const Vocabulary& vocab, AtomId a) {
  return vocab.symbols().Name(vocab.atom(a).name);
}

std::string RoleName(const Vocabulary& vocab, RoleId r) {
  return vocab.symbols().Name(vocab.role(r).name);
}

std::string BoundStr(uint32_t n) {
  return n == kUnbounded ? "unbounded" : std::to_string(n);
}

}  // namespace

Explanation ExplainSatisfies(const KnowledgeBase& kb, IndId ind,
                             const NormalForm& nf) {
  const Vocabulary& vocab = kb.vocab();
  Explanation out;
  out.summary = StrCat(vocab.IndividualName(ind),
                       " satisfies ", nf.ToString(vocab), "?");
  if (nf.incoherent()) {
    out.holds = false;
    out.parts.push_back(
        Leaf(false, "the concept is incoherent (NOTHING); no individual "
                    "can satisfy it"));
    return out;
  }
  const NormalForm& derived = *kb.state(ind).derived;
  out.holds = true;

  for (AtomId a : nf.atoms()) {
    bool has = derived.atoms().count(a) > 0;
    out.parts.push_back(
        Leaf(has, StrCat("primitive ", AtomName(vocab, a),
                         has ? " is derivable" : " is not derivable")));
    out.holds &= has;
  }

  if (nf.enumeration()) {
    bool in = nf.enumeration()->count(ind) > 0;
    out.parts.push_back(Leaf(
        in, StrCat("identity ", in ? "is" : "is not",
                   " among the enumerated individuals (unique names)")));
    out.holds &= in;
  }

  for (Symbol test : nf.tests()) {
    bool ok = false;
    std::string how;
    if (derived.tests().count(test) > 0) {
      ok = true;
      how = "was asserted";
    } else {
      auto fn = vocab.FindTest(test);
      if (fn.ok()) {
        TestArg arg;
        arg.ind = ind;
        const IndInfo& info = vocab.individual(ind);
        arg.host = info.host.get();
        ok = (**fn)(arg);
        how = ok ? "evaluated to true" : "evaluated to false";
      } else {
        how = "is not registered";
      }
    }
    out.parts.push_back(Leaf(
        ok, StrCat("TEST ", vocab.symbols().Name(test), " ", how)));
    out.holds &= ok;
  }

  for (const auto& [role, rc] : nf.roles()) {
    const RoleRestriction& ri = derived.role(role);
    const std::string rn = RoleName(vocab, role);
    uint32_t ri_at_most = ri.at_most;
    if (vocab.role(role).attribute) {
      ri_at_most = std::min<uint32_t>(ri_at_most, 1);
    }

    if (rc.at_least > 0) {
      bool ok = ri.at_least >= rc.at_least;
      out.parts.push_back(Leaf(
          ok, StrCat("needs at least ", rc.at_least, " ", rn, "; ",
                     ri.at_least, " derivable")));
      out.holds &= ok;
    }
    if (rc.at_most != kUnbounded) {
      bool ok = ri_at_most <= rc.at_most;
      out.parts.push_back(Leaf(
          ok, StrCat("needs at most ", rc.at_most, " ", rn,
                     "; derivable upper bound is ", BoundStr(ri_at_most),
                     ok ? "" : " (open world: more fillers possible)")));
      out.holds &= ok;
    }
    for (IndId f : rc.fillers) {
      bool ok = ri.fillers.count(f) > 0;
      out.parts.push_back(Leaf(
          ok, StrCat(rn, " must be filled by ", vocab.IndividualName(f),
                     ok ? "; it is" : "; no such filler is known")));
      out.holds &= ok;
    }
    if (rc.closed) {
      bool ok = ri.closed;
      out.parts.push_back(
          Leaf(ok, StrCat(rn, ok ? " is closed" : " is not closed")));
      out.holds &= ok;
    }
    if (rc.value_restriction && !rc.value_restriction->IsThing() &&
        ri_at_most > 0) {
      const NormalForm& want = *rc.value_restriction;
      Explanation vr;
      vr.summary = StrCat("all ", rn, " fillers must satisfy ",
                          want.ToString(vocab));
      if (ri.value_restriction && Subsumes(want, *ri.value_restriction)) {
        vr.holds = true;
        vr.parts.push_back(Leaf(
            true, StrCat("an asserted restriction on ", rn,
                         " already entails it")));
      } else if (ri.closed) {
        vr.holds = true;
        for (IndId f : ri.fillers) {
          Explanation sub = ExplainSatisfies(kb, f, want);
          vr.holds &= sub.holds;
          vr.parts.push_back(std::move(sub));
        }
        if (ri.fillers.empty()) {
          vr.parts.push_back(
              Leaf(true, StrCat(rn, " is closed with no fillers")));
        }
      } else {
        vr.holds = false;
        vr.parts.push_back(Leaf(
            false,
            StrCat("no asserted restriction entails it and ", rn,
                   " is not closed (unknown fillers might violate it)")));
      }
      out.holds &= vr.holds;
      out.parts.push_back(std::move(vr));
    }
  }

  for (const auto& [p, q] : nf.coref().pairs()) {
    auto path_str = [&](const RolePath& path) {
      std::vector<std::string> names;
      for (RoleId r : path) names.push_back(RoleName(vocab, r));
      return "(" + Join(names, " ") + ")";
    };
    bool ok = false;
    std::string how;
    if (derived.coref().Entails(p, q)) {
      ok = true;
      how = "entailed by asserted co-references";
    } else {
      auto vp = kb.ResolvePath(ind, p);
      auto vq = kb.ResolvePath(ind, q);
      if (vp && vq && *vp == *vq) {
        ok = true;
        how = StrCat("both chains resolve to ",
                     vocab.IndividualName(*vp));
      } else if (vp && vq) {
        how = StrCat("chains resolve to distinct individuals ",
                     vocab.IndividualName(*vp), " and ",
                     vocab.IndividualName(*vq));
      } else {
        how = "a chain does not resolve to a unique known filler";
      }
    }
    out.parts.push_back(Leaf(
        ok, StrCat("co-reference ", path_str(p), " == ", path_str(q),
                   ": ", how)));
    out.holds &= ok;
  }

  if (out.parts.empty()) {
    out.parts.push_back(Leaf(true, "THING holds of everything"));
  }
  return out;
}

Explanation ExplainSubsumes(const KnowledgeBase& kb,
                            const NormalForm& general,
                            const NormalForm& specific) {
  const Vocabulary& vocab = kb.vocab();
  Explanation out;
  out.summary = StrCat(general.ToString(vocab), "  subsumes  ",
                       specific.ToString(vocab), "?");
  if (specific.incoherent()) {
    out.holds = true;
    out.parts.push_back(
        Leaf(true, "the subsumee is incoherent (NOTHING); everything "
                   "subsumes it"));
    return out;
  }
  if (general.incoherent()) {
    out.holds = false;
    out.parts.push_back(
        Leaf(false, "only NOTHING is subsumed by an incoherent concept"));
    return out;
  }
  out.holds = true;

  for (AtomId a : general.atoms()) {
    bool has = specific.atoms().count(a) > 0;
    out.parts.push_back(Leaf(
        has, StrCat("primitive ", AtomName(vocab, a),
                    has ? " required and present" : " required but absent")));
    out.holds &= has;
  }
  if (general.enumeration()) {
    bool ok = specific.enumeration() &&
              std::includes(general.enumeration()->begin(),
                            general.enumeration()->end(),
                            specific.enumeration()->begin(),
                            specific.enumeration()->end());
    out.parts.push_back(Leaf(
        ok, ok ? "the subsumee's enumeration is a subset"
               : "the subsumee is not confined to the enumeration"));
    out.holds &= ok;
  }
  for (Symbol t : general.tests()) {
    bool ok = specific.tests().count(t) > 0;
    out.parts.push_back(Leaf(
        ok, StrCat("TEST ", vocab.symbols().Name(t),
                   ok ? " present in the subsumee"
                      : " absent from the subsumee (tests are opaque)")));
    out.holds &= ok;
  }
  for (const auto& [role, rg] : general.roles()) {
    const RoleRestriction& rs = specific.role(role);
    const std::string rn = RoleName(vocab, role);
    if (rg.at_least > 0) {
      bool ok = rs.at_least >= rg.at_least;
      out.parts.push_back(Leaf(
          ok, StrCat("AT-LEAST ", rg.at_least, " ", rn, " vs subsumee's ",
                     rs.at_least)));
      out.holds &= ok;
    }
    if (rg.at_most != kUnbounded) {
      bool ok = rs.at_most <= rg.at_most;
      out.parts.push_back(Leaf(
          ok, StrCat("AT-MOST ", rg.at_most, " ", rn, " vs subsumee's ",
                     BoundStr(rs.at_most))));
      out.holds &= ok;
    }
    for (IndId f : rg.fillers) {
      bool ok = rs.fillers.count(f) > 0;
      out.parts.push_back(Leaf(
          ok, StrCat("FILLS ", rn, " ", vocab.IndividualName(f),
                     ok ? " present" : " absent")));
      out.holds &= ok;
    }
    if (rg.closed) {
      bool ok = rs.closed;
      out.parts.push_back(Leaf(
          ok, StrCat(rn, ok ? " closed in both" : " not closed in the "
                                                  "subsumee")));
      out.holds &= ok;
    }
    if (rg.value_restriction && !rg.value_restriction->IsThing()) {
      if (rs.at_most == 0) {
        out.parts.push_back(Leaf(
            true, StrCat("(ALL ", rn, " ...) holds vacuously: the "
                         "subsumee admits no ", rn, " fillers")));
      } else {
        Explanation sub = ExplainSubsumes(
            kb, *rg.value_restriction,
            rs.value_restriction ? *rs.value_restriction
                                 : ThingNormalForm());
        sub.summary = StrCat("value restriction on ", rn, ": ",
                             sub.summary);
        out.holds &= sub.holds;
        out.parts.push_back(std::move(sub));
      }
    }
  }
  for (const auto& [p, q] : general.coref().pairs()) {
    bool ok = specific.coref().Entails(p, q);
    out.parts.push_back(Leaf(
        ok, ok ? "required co-reference entailed by the subsumee"
               : "required co-reference not entailed by the subsumee"));
    out.holds &= ok;
  }
  if (out.parts.empty()) {
    out.parts.push_back(Leaf(true, "THING subsumes everything"));
  }
  return out;
}

}  // namespace classic
