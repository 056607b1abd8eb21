#include "query/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "query/selectivity.h"
#include "subsume/subsume.h"
#include "util/bitset.h"
#include "util/string_util.h"

namespace classic::planner {

namespace {

/// Representative display name of a taxonomy node (its first synonym).
std::string NodeName(const KnowledgeBase& kb, NodeId node) {
  const std::vector<ConceptId>& syns = kb.taxonomy().Synonyms(node);
  if (syns.empty()) return "?";
  return kb.vocab().symbols().Name(kb.vocab().concept_info(syns[0]).name);
}

std::string RoleName(const KnowledgeBase& kb, RoleId role) {
  return kb.vocab().symbols().Name(kb.vocab().role(role).name);
}

/// One complete candidate source: a set that provably contains every
/// answer the residual test could accept.
struct Source {
  enum class Kind { kTaxonomy, kFills, kHostValue, kEnum };
  Kind kind;
  size_t size = 0;
  /// The set itself: a node's extension (kTaxonomy), or a posting or
  /// enumeration set. A null `members` means provably empty (no posting
  /// list ever existed for the pair — the query can only be answered by
  /// subsumed concepts' extensions).
  const DynamicBitset* extension = nullptr;
  const IdSet<IndId>* members = nullptr;
  NodeId node = 0;       // kTaxonomy
  RoleId role = 0;       // kFills / kHostValue
  IndId filler = kNoId;  // kFills / kHostValue

  bool Contains(IndId i) const {
    if (extension != nullptr) return extension->Test(i);
    return members != nullptr && members->count(i) > 0;
  }

  /// Calls fn(member) in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (extension != nullptr) {
      extension->ForEach([&fn](size_t i) { fn(static_cast<IndId>(i)); });
    } else if (members != nullptr) {
      for (IndId i : *members) fn(i);
    }
  }
};

constexpr size_t kFullScan = std::numeric_limits<size_t>::max();

/// The plan, shared by execution and plan-only rendering.
struct Prepared {
  Classification cls;
  /// Gather order: the parents' extensions, the FILLS and host postings,
  /// the ONE-OF members.
  std::vector<Source> sources;
  /// Index into sources of the streamed base, the first smallest;
  /// kFullScan when there is no source at all (scan the visible bound).
  size_t base = kFullScan;
  size_t child_est = 0;  // summed subsumed-concept extension sizes
  IndId visible = 0;
};

Prepared Prepare(const KnowledgeBase& kb, const NormalForm& nf) {
  Prepared p;
  p.cls = kb.taxonomy().Classify(nf);
  p.visible = kb.num_visible_individuals();
  if (p.cls.equivalent) return p;

  for (NodeId child : p.cls.children) {
    p.child_est += kb.Instances(child).Count();
  }
  for (NodeId parent : p.cls.parents) {
    Source s;
    s.kind = Source::Kind::kTaxonomy;
    s.node = parent;
    s.extension = &kb.Instances(parent);
    s.size = s.extension->Count();
    p.sources.push_back(s);
  }
  for (const auto& [role, rr] : nf.roles()) {
    for (IndId filler : rr.fillers) {
      Source s;
      s.kind = kb.vocab().individual(filler).kind == IndKind::kHost
                   ? Source::Kind::kHostValue
                   : Source::Kind::kFills;
      s.role = role;
      s.filler = filler;
      s.members = kb.fills_index().Postings(role, filler);
      s.size = s.members != nullptr ? s.members->size() : 0;
      p.sources.push_back(s);
    }
  }
  if (nf.enumeration() != nullptr) {
    Source s;
    s.kind = Source::Kind::kEnum;
    s.members = nf.enumeration();
    s.size = s.members->size();
    p.sources.push_back(s);
  }
  for (size_t i = 0; i < p.sources.size(); ++i) {
    if (p.base == kFullScan || p.sources[i].size < p.sources[p.base].size) {
      p.base = i;
    }
  }
  return p;
}

PlanNode SourceNode(const KnowledgeBase& kb, const Source& s) {
  switch (s.kind) {
    case Source::Kind::kTaxonomy:
      return Node("taxonomy-instances", {NodeName(kb, s.node)}, s.size);
    case Source::Kind::kFills:
      return Node("fills-postings",
                  {RoleName(kb, s.role), kb.vocab().IndividualName(s.filler)},
                  s.size);
    case Source::Kind::kHostValue: {
      // A host value's posting: a point lookup, shown as [v..v].
      const std::string v = kb.vocab().IndividualName(s.filler);
      return Node("host-range", {RoleName(kb, s.role), StrCat("[", v, "..", v, "]")},
                  s.size);
    }
    case Source::Kind::kEnum:
      return Node("enumeration", {}, s.size);
  }
  return Node("?");
}

/// Actual cardinalities observed during execution; absent for plan-only
/// rendering.
struct Acts {
  size_t answers = 0;        // total answer count
  size_t from_children = 0;  // answers supplied by subsumed extensions
  size_t candidates = 0;     // survivors handed to the residual test
  size_t accepted = 0;       // residual-test acceptances
};

/// The canonical plan tree:
///   (concept (subsumed-instances ...)? (satisfies-filter <access path>))
/// where the access path is (full-scan) when no source constrains the
/// candidates, the lone source, or an (intersect ...) of the base
/// followed by every other source in gather order. The static
/// selectivity prior scales the estimated answers of the concept and the
/// residual test; only plans read it, so it is computed here.
PlanNode BuildTree(const KnowledgeBase& kb, const NormalForm& nf,
                   const Prepared& p, const Acts* acts) {
  const double sel = StaticSelectivity(nf, kb.vocab());
  const size_t base_size =
      p.base == kFullScan ? p.visible : p.sources[p.base].size;
  PlanNode root = Node("concept", {},
                       static_cast<uint64_t>(std::llround(
                           sel * static_cast<double>(p.visible))));
  if (acts != nullptr) root.act = acts->answers;

  if (!p.cls.children.empty()) {
    PlanNode sub = Node("subsumed-instances", {}, p.child_est);
    if (acts != nullptr) sub.act = acts->from_children;
    root.children.push_back(std::move(sub));
  }

  PlanNode filter = Node("satisfies-filter", {},
                         static_cast<uint64_t>(std::llround(
                             sel * static_cast<double>(base_size))));
  if (acts != nullptr) filter.act = acts->accepted;

  PlanNode path;
  if (p.base == kFullScan) {
    path = Node("full-scan", {}, p.visible);
  } else if (p.sources.size() == 1) {
    path = SourceNode(kb, p.sources[p.base]);
  } else {
    path = Node("intersect", {}, base_size);
    path.children.push_back(SourceNode(kb, p.sources[p.base]));
    for (size_t i = 0; i < p.sources.size(); ++i) {
      if (i != p.base) path.children.push_back(SourceNode(kb, p.sources[i]));
    }
  }
  if (acts != nullptr) path.act = acts->candidates;
  filter.children.push_back(std::move(path));
  root.children.push_back(std::move(filter));
  return root;
}

}  // namespace

PlanNode Node(std::string op, std::vector<std::string> detail, uint64_t est) {
  PlanNode n;
  n.op = std::move(op);
  n.detail = std::move(detail);
  n.est = est;
  return n;
}

std::string PlanNode::ToSexpr() const {
  std::string out = StrCat("(", op);
  for (const std::string& d : detail) out += StrCat(" ", d);
  out += StrCat(" est=", est);
  if (act != kNotExecuted) out += StrCat(" act=", act);
  for (const PlanNode& c : children) out += StrCat(" ", c.ToSexpr());
  out += ")";
  return out;
}

std::string RenderPlan(const char* kind_name, const PlanNode& root) {
  return StrCat("(plan ", kind_name, " ", root.ToSexpr(), ")");
}

PlanNode PlanConcept(const KnowledgeBase& kb, const NormalForm& nf) {
  Prepared p = Prepare(kb, nf);
  if (p.cls.equivalent) {
    const size_t n = kb.Instances(*p.cls.equivalent).Count();
    return Node("equivalent-instances", {NodeName(kb, *p.cls.equivalent)}, n);
  }
  return BuildTree(kb, nf, p, nullptr);
}

namespace {

/// RetrieveConcept's body, answering as a bitset over the visible bound
/// (RetrievePossible subtracts it from the visible set word by word).
DynamicBitset ConceptAnswers(const KnowledgeBase& kb, const NormalForm& nf,
                             PlanNode* plan, RetrievalStats* stats) {
  Prepared p = Prepare(kb, nf);
  stats->classification_tests = p.cls.subsumption_tests;

  if (p.cls.equivalent) {
    // The query names (an equivalent of) a schema concept: its extension
    // is maintained incrementally; no tests at all.
    const DynamicBitset& inst = kb.Instances(*p.cls.equivalent);
    stats->answers_from_index += inst.Count();
    CLASSIC_OBS_COUNT(kPlannerIndexPath);
    if (plan != nullptr) {
      *plan = Node("equivalent-instances", {NodeName(kb, *p.cls.equivalent)},
                   inst.Count());
      plan->act = inst.Count();
    }
    return inst;
  }

  Acts acts;
  std::vector<IndId> candidates;
  // Instances of subsumed named concepts satisfy the query by definition.
  DynamicBitset answers(p.visible);
  for (NodeId child : p.cls.children) answers.OrWith(kb.Instances(child));
  acts.from_children = answers.Count();
  stats->answers_from_index += answers.Count();

  // The paper's Section 5 retrieval and the filler index run the same
  // loop: stream the base through every other source, then test the
  // survivors. Every source is complete, so the choice of base changes
  // only which non-answers are rejected before the test. Members beyond
  // the visible bound (host literals interned while serving, e.g. by a
  // ONE-OF in the query itself) are skipped, as the full scan skips them.
  size_t pruned = 0;
  auto keep = [&](IndId i) {
    if (i >= p.visible || answers.Test(i)) return;
    for (size_t k = 0; k < p.sources.size(); ++k) {
      if (k != p.base && !p.sources[k].Contains(i)) {
        ++pruned;
        return;
      }
    }
    candidates.push_back(i);
  };
  if (p.base == kFullScan) {
    for (IndId i = 0; i < p.visible; ++i) keep(i);
    CLASSIC_OBS_COUNT(kPlannerScanPath);
  } else {
    const Source& base = p.sources[p.base];
    base.ForEach(keep);
    if (base.kind == Source::Kind::kTaxonomy) {
      CLASSIC_OBS_COUNT(kPlannerScanPath);
    } else {
      CLASSIC_OBS_COUNT(kPlannerIndexPath);
      CLASSIC_OBS_COUNT_N(kPlannerPostingsScanned, base.size);
    }
  }
  CLASSIC_OBS_COUNT_N(kPlannerCandidatesPruned, pruned);

  // Test only after the stream: calling Satisfies inside the bitset walk
  // ran BM_QueryNonSelective/10000 over 10% slower (4-vCPU x86 host).
  acts.candidates = candidates.size();
  for (IndId i : candidates) {
    ++stats->candidates_tested;
    if (kb.Satisfies(i, nf)) {
      answers.Set(i);
      ++acts.accepted;
    }
  }

  acts.answers = answers.Count();
  if (plan != nullptr) *plan = BuildTree(kb, nf, p, &acts);
  return answers;
}

// ask-possible's exclusion surface. DisjointProbe::DisjointFrom(state)
// runs DisjointWalkingB (subsume.cc) with the state as `a` and the query
// as `b`, and it can answer true only in these cases:
//
//   1. a or b is incoherent. A derived state never is (MergeInto rejects
//      an incoherent meet), so only an incoherent query excludes, and it
//      excludes everyone: RetrievePossible tests no one.
//   2. a or b carries ONE-OF or SAME-AS at the top level, and their real
//      meet is incoherent. A state carrying either is a state-site
//      holder. A query ONE-OF tests only its members (the others are
//      excluded by unique names); a query SAME-AS tests every visible
//      individual.
//   3. A grouped atom of b meets a different atom of its group in a.
//      - A user disjoint-primitive group: a carries a user grouped atom,
//        so it is a state-site holder.
//      - The built-in groups (CLASSIC-THING vs HOST-THING; INTEGER, REAL,
//        STRING, BOOLEAN): either b carries a host atom, HOST-THING or
//        below, and every visible individual is tested; or b carries
//        CLASSIC-THING and a is a host individual. Every host individual
//        is on the surface, listed by the vocabulary: a host literal a
//        snapshot reader interns never reaches propagation.
//   4. a has a record on a role b constrains, and RolesClash finds the
//      merged record incoherent. a is one of that role's record holders.
//      The loop skips only roles a holds no record for, whatever the
//      record carries: a state holding only (ALL r C) clashes with
//      (AND (AT-LEAST 1 r) (ALL r D)) for disjoint primitives C and D.
//
// So outside the two test-everyone cases the surface is the state-site
// holders, the record holders of every role the query's top level
// constrains, and the host individuals.

/// True if the query reaches every visible individual's state: a
/// top-level SAME-AS, or a host atom (cases 2 and 3 above).
bool TestsEveryIndividual(const NormalForm& q, const Vocabulary& vocab) {
  if (!q.coref().empty()) return true;
  return std::any_of(q.atoms().begin(), q.atoms().end(), [&vocab](AtomId a) {
    return vocab.atom(a).builtin && a != vocab.classic_thing_atom();
  });
}

/// The stored part of the surface for a coherent query without ONE-OF.
DynamicBitset StoredSurface(const KnowledgeBase& kb, const NormalForm& q,
                            IndId visible) {
  DynamicBitset surface = kb.StateSiteHolders();
  for (const auto& [role, rr] : q.roles()) {
    surface.OrWith(kb.RecordHolders(role));
  }
  kb.vocab().ForEachHostIndividual(visible,
                                   [&surface](IndId h) { surface.Set(h); });
  return surface;
}

}  // namespace

Result<RetrievalResult> RetrieveConcept(const KnowledgeBase& kb,
                                        const NormalForm& nf, PlanNode* plan) {
  RetrievalResult out;
  out.answers = ConceptAnswers(kb, nf, plan, &out.stats).ToVector();
  return out;
}

Result<RetrievalResult> WalkMarker(const KnowledgeBase& kb, const Query& query,
                                   RetrievalResult root, PlanNode* plan) {
  if (!query.has_marker || query.marker_roles.empty()) return root;

  // Follow the marker roles: each step keeps the known fillers of the
  // frontier that satisfy that level's constraint.
  RetrievalResult out;
  out.stats = root.stats;
  DynamicBitset frontier;
  for (IndId i : root.answers) frontier.Set(i);
  for (size_t step = 0; step < query.marker_roles.size(); ++step) {
    CLASSIC_ASSIGN_OR_RETURN(RoleId role,
                             kb.vocab().FindRole(query.marker_roles[step]));
    CLASSIC_ASSIGN_OR_RETURN(
        NormalFormPtr constraint_nf,
        kb.normalizer().NormalizeConcept(query.level_constraints[step + 1]));
    DynamicBitset next;
    frontier.ForEach([&](size_t o) {
      const NormalForm& state = *kb.state(static_cast<IndId>(o)).derived;
      for (IndId f : state.role(role).fillers) {
        if (next.Test(f)) continue;
        ++out.stats.candidates_tested;
        if (kb.Satisfies(f, *constraint_nf)) next.Set(f);
      }
    });
    if (plan != nullptr) {
      PlanNode walk =
          Node("marker-walk", {RoleName(kb, role)}, frontier.Count());
      walk.act = next.Count();
      walk.children.push_back(std::move(*plan));
      *plan = std::move(walk);
    }
    frontier = std::move(next);
  }
  out.answers = frontier.ToVector();
  return out;
}

Result<RetrievalResult> RetrieveQuery(const KnowledgeBase& kb,
                                      const Query& query, PlanNode* plan) {
  CLASSIC_ASSIGN_OR_RETURN(
      NormalFormPtr root_nf,
      kb.normalizer().NormalizeConcept(query.level_constraints[0]));
  CLASSIC_ASSIGN_OR_RETURN(RetrievalResult root,
                           RetrieveConcept(kb, *root_nf, plan));
  return WalkMarker(kb, query, std::move(root), plan);
}

Result<std::vector<IndId>> RetrievePossible(const KnowledgeBase& kb,
                                            const Query& query,
                                            PlanNode* plan) {
  if (query.has_marker) {
    return Status::NotImplemented(
        "ask-possible-set does not support ?: markers");
  }
  CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr nf,
                           kb.normalizer().NormalizeConcept(query.full));
  const NormalForm& q = *nf;
  PlanNode definite_plan;
  RetrievalStats stats;
  const DynamicBitset definite = ConceptAnswers(
      kb, q, plan != nullptr ? &definite_plan : nullptr, &stats);
  const IndId visible = kb.num_visible_individuals();
  DynamicBitset possible = DynamicBitset::Prefix(visible);
  possible.AndNotWith(definite);
  const size_t undecided = possible.Count();
  size_t tests = 0;
  if (q.incoherent()) {
    possible = DynamicBitset();
  } else {
    // Identity is definite under the unique-name assumption: an
    // enumeration excludes every non-member. Otherwise an individual is
    // excluded only if its known state contradicts the query, which can
    // happen only on the surface above.
    DynamicBitset surface;
    if (q.enumeration()) {
      for (IndId m : *q.enumeration()) surface.Set(m);
      possible.AndWith(surface);
      surface = possible;
    } else if (TestsEveryIndividual(q, kb.vocab())) {
      surface = possible;
    } else {
      surface = StoredSurface(kb, q, visible);
      surface.AndWith(possible);
    }
    const DisjointProbe query_probe(q, kb.vocab());
    surface.ForEach([&](size_t i) {
      ++tests;
      if (query_probe.DisjointFrom(*kb.state(static_cast<IndId>(i)).derived)) {
        possible.Reset(i);
      }
    });
  }
  CLASSIC_OBS_COUNT_N(kExclusionTests, tests);
  if (plan != nullptr) {
    *plan = Node("possible", {}, visible);
    plan->act = possible.Count();
    plan->children.push_back(std::move(definite_plan));
    PlanNode exclusion = Node("exclusion-test", {}, visible);
    exclusion.act = undecided - possible.Count();
    plan->children.push_back(std::move(exclusion));
  }
  return possible.ToVector();
}

}  // namespace classic::planner
