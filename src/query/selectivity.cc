#include "query/selectivity.h"

#include <algorithm>
#include <set>

namespace classic {

namespace {

double SelImpl(const NormalForm& nf, const Vocabulary& vocab, size_t depth) {
  if (nf.incoherent()) return 0.0;
  if (depth > 8) return 1.0;  // defensive cap for pathological nesting
  double sel = 1.0;

  // Leaf atoms only: an atom implied by another atom present (NUMBER
  // under INTEGER) adds no selectivity of its own. The universal tops
  // (CLASSIC-THING / HOST-THING) partition the world, not a population.
  std::set<AtomId> implied;
  for (AtomId a : nf.atoms()) {
    for (AtomId b : vocab.atom(a).implies) {
      if (b != a) implied.insert(b);
    }
  }
  for (AtomId a : nf.atoms()) {
    if (a == vocab.classic_thing_atom() || a == vocab.host_thing_atom()) {
      continue;
    }
    if (implied.count(a) > 0) continue;
    // Disjoint-group primitives partition their siblings: being one of
    // the group is rarer than satisfying an independent primitive.
    sel *= vocab.atom(a).group != kNoSymbol ? 0.25 : 0.5;
  }

  if (nf.enumeration() != nullptr) {
    sel = std::min(sel,
                   static_cast<double>(nf.enumeration()->size()) / 1024.0);
  }

  for (const auto& [rid, rr] : nf.roles()) {
    if (rr.at_least >= 1) sel *= 0.5;
    if (rr.at_most != kUnbounded) sel *= 0.75;
    const NormalFormPtr& vr = rr.value_restriction;
    if (vr != nullptr && !vr->IsThing()) {
      // Fillers must come from the restricted domain; average between
      // "no filler, vacuously true" and "filler drawn from the domain".
      sel *= 0.5 * (1.0 + SelImpl(*vr, vocab, depth + 1));
    }
  }

  for (size_t t = 0; t < nf.tests().size(); ++t) sel *= 0.5;
  if (!nf.coref().pairs().empty()) sel *= 0.5;
  return sel;
}

}  // namespace

double StaticSelectivity(const NormalForm& nf, const Vocabulary& vocab) {
  return SelImpl(nf, vocab, 0);
}

}  // namespace classic
