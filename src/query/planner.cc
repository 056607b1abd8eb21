#include "query/planner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "query/selectivity.h"
#include "subsume/subsume.h"
#include "util/bitset.h"
#include "util/string_util.h"

namespace classic::planner {

namespace {

std::atomic<int> g_mode{static_cast<int>(Mode::kAuto)};

/// Representative display name of a taxonomy node (its first synonym).
std::string NodeName(const KnowledgeBase& kb, NodeId node) {
  const std::vector<ConceptId>& syns = kb.taxonomy().Synonyms(node);
  if (syns.empty()) return "?";
  return kb.vocab().symbols().Name(kb.vocab().concept_info(syns[0]).name);
}

std::string RoleName(const KnowledgeBase& kb, RoleId role) {
  return kb.vocab().symbols().Name(kb.vocab().role(role).name);
}

/// Per-candidate residual test cost relative to one posting probe,
/// blended from the live memo-hit rate: when the subsumption memo is
/// cold every Satisfies recurses structurally (expensive), when it is
/// hot the test is nearly a lookup. Only the *choice* consults live
/// counters — answers are mode-independent, and estimates rendered in
/// explain output stay deterministic functions of the KB state.
double TestCostFactor() {
#if CLASSIC_OBS
  obs::CounterArray c = obs::ReadCounters();
  const uint64_t misses =
      c[static_cast<size_t>(obs::Counter::kSubsumptionTests)];
  const uint64_t hits =
      c[static_cast<size_t>(obs::Counter::kSubsumptionMemoHits)];
  if (misses + hits > 0) {
    const double miss_rate =
        static_cast<double>(misses) / static_cast<double>(misses + hits);
    return 1.0 + 7.0 * miss_rate;  // [1, 8]
  }
#endif
  return 2.0;
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
  const std::set<IndId>* members = nullptr;
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

/// Ceiling of TestCostFactor(): a filter can never save more than
/// base_size * kMaxTestCost residual tests, so sources larger than that
/// (building a bitset costs one insert per member) are dropped from the
/// index path's intersection. A constant — not the live factor — so plan
/// shape stays deterministic for a given KB state (golden-testable).
constexpr size_t kMaxTestCost = 8;

/// Everything the cost model decided, shared by execution and
/// plan-only rendering.
struct Prepared {
  Classification cls;
  std::vector<Source> sources;  // deterministic gather order
  /// Per-source: applied as a bitset filter on the index path? (The base
  /// and every source that can pay for its own materialization.) Scan
  /// ignores this — its membership probes are O(log n) per candidate,
  /// not O(|source|) up front.
  std::vector<char> filter;
  bool use_index = false;
  /// Index into sources of the chosen base (first minimum); SIZE_MAX =
  /// full scan over the visible bound (no source at all).
  size_t base = std::numeric_limits<size_t>::max();
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

  const Mode m = mode();
  for (NodeId parent : p.cls.parents) {
    Source s;
    s.kind = Source::Kind::kTaxonomy;
    s.node = parent;
    s.extension = &kb.Instances(parent);
    s.size = s.extension->Count();
    p.sources.push_back(s);
  }
  const size_t num_taxonomy = p.sources.size();
  if (m != Mode::kForceScan) {
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
    if (nf.enumeration().has_value()) {
      Source s;
      s.kind = Source::Kind::kEnum;
      s.members = &*nf.enumeration();
      s.size = s.members->size();
      p.sources.push_back(s);
    }
  }
  const bool have_index_source = p.sources.size() > num_taxonomy;

  // Scan cost: test every instance of the smallest parent (the whole
  // visible population when only THING subsumes the query). Index cost:
  // materialize every source into a bitset, then test the survivors of
  // the smallest source — bounded above by that source's size.
  size_t scan_base = p.visible;
  for (size_t i = 0; i < num_taxonomy; ++i) {
    scan_base = std::min(scan_base, p.sources[i].size);
  }
  size_t min_source = std::numeric_limits<size_t>::max();
  size_t min_at = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < p.sources.size(); ++i) {
    if (p.sources[i].size < min_source) {
      min_source = p.sources[i].size;
      min_at = i;
    }
  }
  // A filter bitset costs one insert per source member and saves at most
  // base_size residual tests (each worth <= kMaxTestCost probes), so an
  // oversized source can never pay for itself: drop it. Dropping only
  // *adds* candidates, which the residual Satisfies test rejects — answer
  // bytes are unaffected. The small absolute slack keeps cheap filters
  // when the base is near-empty.
  p.filter.assign(p.sources.size(), 1);
  size_t total_entries = min_source;
  for (size_t i = 0; i < p.sources.size(); ++i) {
    if (i == min_at) continue;
    if (p.sources[i].size > min_source * kMaxTestCost + 64) {
      p.filter[i] = 0;
    } else {
      total_entries += p.sources[i].size;
    }
  }
  switch (m) {
    case Mode::kForceScan:
      p.use_index = false;
      break;
    case Mode::kForceIndex:
      p.use_index = have_index_source;
      break;
    case Mode::kAuto: {
      const double test_cost = TestCostFactor();
      p.use_index =
          have_index_source &&
          static_cast<double>(total_entries) +
                  static_cast<double>(min_source) * test_cost <
              static_cast<double>(scan_base) * test_cost;
      break;
    }
  }
  if (p.use_index) {
    p.base = min_at;
  } else if (num_taxonomy > 0) {
    // The pre-planner behavior: smallest parent extension, the other
    // parents as membership filters.
    size_t smallest = 0;
    for (size_t i = 0; i < num_taxonomy; ++i) {
      if (p.sources[i].size < p.sources[smallest].size) smallest = i;
    }
    p.base = smallest;
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

/// The canonical plan tree both paths share:
///   (concept (subsumed-instances ...)? (satisfies-filter <access path>))
/// where the access path is a single source, an (intersect ...) of all
/// sources, or (full-scan) when nothing constrains the candidates. The
/// static selectivity prior scales the estimated answers of the concept
/// and the residual test; only plans read it, so it is computed here.
PlanNode BuildTree(const KnowledgeBase& kb, const NormalForm& nf,
                   const Prepared& p, const Acts* acts) {
  const double sel = StaticSelectivity(nf, kb.vocab());
  const size_t base_size =
      p.base == std::numeric_limits<size_t>::max() ? p.visible
                                                   : p.sources[p.base].size;
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

  if (p.base == std::numeric_limits<size_t>::max()) {
    PlanNode scan = Node("full-scan", {}, p.visible);
    if (acts != nullptr) scan.act = acts->candidates;
    filter.children.push_back(std::move(scan));
  } else if (p.use_index || p.sources.size() > 1) {
    PlanNode inter = Node("intersect", {}, base_size);
    if (acts != nullptr) inter.act = acts->candidates;
    // Base first, then the other sources in gather order.
    inter.children.push_back(SourceNode(kb, p.sources[p.base]));
    for (size_t i = 0; i < p.sources.size(); ++i) {
      if (i == p.base) continue;
      // The scan path consults only taxonomy sources; the index path
      // only the filters that pay for their own materialization.
      if (!p.use_index && p.sources[i].kind != Source::Kind::kTaxonomy) {
        continue;
      }
      if (p.use_index && !p.filter[i]) continue;
      inter.children.push_back(SourceNode(kb, p.sources[i]));
    }
    if (inter.children.size() == 1) {
      // Degenerate intersection: render the lone source directly.
      PlanNode lone = std::move(inter.children[0]);
      if (acts != nullptr) lone.act = acts->candidates;
      filter.children.push_back(std::move(lone));
    } else {
      filter.children.push_back(std::move(inter));
    }
  } else {
    PlanNode lone = SourceNode(kb, p.sources[p.base]);
    if (acts != nullptr) lone.act = acts->candidates;
    filter.children.push_back(std::move(lone));
  }
  root.children.push_back(std::move(filter));
  return root;
}

}  // namespace

void SetMode(Mode m) {
  g_mode.store(static_cast<int>(m), std::memory_order_relaxed);
}

Mode mode() {
  return static_cast<Mode>(g_mode.load(std::memory_order_relaxed));
}

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

  // Instances of subsumed named concepts satisfy the query by definition.
  DynamicBitset answers(p.visible);
  for (NodeId child : p.cls.children) answers.OrWith(kb.Instances(child));
  Acts acts;
  acts.from_children = answers.Count();
  stats->answers_from_index += answers.Count();

  if (p.use_index) {
    // Index path: every non-base source becomes a bitset filter (an
    // extension already is one; postings and enumerations are
    // materialized over the frozen visible bound), the (smallest) base
    // streams through the filters, and the survivors are residual-tested.
    // Candidates beyond the visible bound are skipped — the scan path
    // never enumerates them, and answers must not depend on the access
    // path.
    size_t postings_scanned = 0;
    std::vector<DynamicBitset> materialized;
    materialized.reserve(p.sources.size());
    std::vector<const DynamicBitset*> filters;
    for (size_t i = 0; i < p.sources.size(); ++i) {
      const Source& s = p.sources[i];
      if (i != p.base && !p.filter[i]) continue;
      if (s.kind != Source::Kind::kTaxonomy) postings_scanned += s.size;
      if (i == p.base) continue;
      if (s.extension != nullptr) {
        filters.push_back(s.extension);
        continue;
      }
      DynamicBitset bits(p.visible);
      s.ForEach([&](IndId m) {
        if (m < p.visible) bits.Set(m);
      });
      materialized.push_back(std::move(bits));
      filters.push_back(&materialized.back());
    }
    size_t pruned = 0;
    p.sources[p.base].ForEach([&](IndId i) {
      if (i >= p.visible) return;
      if (answers.Test(i)) return;
      for (const DynamicBitset* f : filters) {
        if (!f->Test(i)) {
          ++pruned;
          return;
        }
      }
      ++acts.candidates;
      ++stats->candidates_tested;
      if (kb.Satisfies(i, nf)) {
        answers.Set(i);
        ++acts.accepted;
      }
    });
    CLASSIC_OBS_COUNT(kPlannerIndexPath);
    CLASSIC_OBS_COUNT_N(kPlannerPostingsScanned, postings_scanned);
    CLASSIC_OBS_COUNT_N(kPlannerCandidatesPruned, pruned);
  } else {
    // Scan path: the paper's Section 5 technique, byte-for-byte the
    // pre-planner behavior — smallest parent extension (or the whole
    // visible population), the other parents as membership filters.
    std::vector<IndId> candidates;
    if (p.base == std::numeric_limits<size_t>::max()) {
      for (IndId i = 0; i < p.visible; ++i) {
        if (!answers.Test(i)) candidates.push_back(i);
      }
    } else {
      const Source& base = p.sources[p.base];
      base.ForEach([&](IndId i) {
        if (answers.Test(i)) return;
        for (const Source& s : p.sources) {
          if (&s == &base || s.kind != Source::Kind::kTaxonomy) continue;
          if (!s.Contains(i)) return;
        }
        candidates.push_back(i);
      });
    }
    acts.candidates = candidates.size();
    for (IndId i : candidates) {
      ++stats->candidates_tested;
      if (kb.Satisfies(i, nf)) {
        answers.Set(i);
        ++acts.accepted;
      }
    }
    CLASSIC_OBS_COUNT(kPlannerScanPath);
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
  std::set<IndId> frontier(root.answers.begin(), root.answers.end());
  for (size_t step = 0; step < query.marker_roles.size(); ++step) {
    CLASSIC_ASSIGN_OR_RETURN(RoleId role,
                             kb.vocab().FindRole(query.marker_roles[step]));
    CLASSIC_ASSIGN_OR_RETURN(
        NormalFormPtr constraint_nf,
        kb.normalizer().NormalizeConcept(query.level_constraints[step + 1]));
    const size_t frontier_size = frontier.size();
    std::set<IndId> next;
    for (IndId o : frontier) {
      for (IndId f : kb.state(o).derived->role(role).fillers) {
        if (next.count(f) > 0) continue;
        ++out.stats.candidates_tested;
        if (kb.Satisfies(f, *constraint_nf)) next.insert(f);
      }
    }
    if (plan != nullptr) {
      PlanNode walk =
          Node("marker-walk", {RoleName(kb, role)}, frontier_size);
      walk.act = next.size();
      walk.children.push_back(std::move(*plan));
      *plan = std::move(walk);
    }
    frontier = std::move(next);
  }
  out.answers.assign(frontier.begin(), frontier.end());
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
