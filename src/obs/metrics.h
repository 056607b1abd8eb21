// Inference observability: engine-wide counters (obs/metrics.h), latency
// histograms (obs/histogram.h), a serializable registry view
// (obs/registry.h) and trace spans (obs/trace.h).
//
// The paper sells CLASSIC on *predictable* inference — subsumption "in
// time proportional to the product of the two concepts' sizes",
// normalization and rule propagation to a fixed point — and this layer
// makes the engine report how much of each inference it actually performs
// per operation, at the granularity of the complete-subsumption cost
// model (one count per structural comparison).
//
// Design constraints (DESIGN.md section 9):
//
//  - The hottest site is a memoized subsumption test (~12 ns/op on the
//    reference container), so a hot-path increment must cost ~1 cycle.
//    Counters are therefore PLAIN thread-local adds: every thread owns a
//    constant-initialized TLS slab and `IncrCounter` is a single
//    non-atomic add into it. No other thread ever reads the slab.
//  - Global totals are relaxed atomics, fed by *flushing* a thread's slab
//    at operation boundaries (CounterDeltaScope destruction, or an
//    explicit FlushLocalCounters). The flush is the only synchronization;
//    hot paths never touch shared cache lines.
//  - Everything compiles out behind CLASSIC_OBS (a 0/1 macro, set by the
//    -DCLASSIC_OBS=ON/OFF CMake option): with it OFF the increment macros
//    expand to nothing and the engine byte-matches the uninstrumented
//    build. The registry API itself stays available (and reads zeros) so
//    tools compile in both configurations.
//
// Per-operation deltas: CounterDeltaScope snapshots the calling thread's
// slab on entry; Deltas() is the difference. One query is served entirely
// on one thread, so the delta is exact — and because every counted
// quantity is a deterministic function of the (immutable) snapshot being
// queried, batch totals are byte-identical between serial and concurrent
// runs on a warm snapshot (tests/obs_parallel_test.cc pins that down).

#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#ifndef CLASSIC_OBS
#define CLASSIC_OBS 1
#endif

namespace classic::obs {

/// \brief One engine-wide event class. Stable kebab-case names
/// (CounterName) are the serialization contract for classic_stats JSON
/// and the golden schema check.
enum class Counter : uint32_t {
  /// Structural subsumption comparisons actually computed (memo misses
  /// and uncached calls), at every level of the RoleSubsumes recursion —
  /// the unit of the paper's size-product cost model.
  kSubsumptionTests = 0,
  /// Subsumption verdicts answered by the persistent memo table.
  kSubsumptionMemoHits,
  /// Description -> normal form conversions (Normalizer entry points).
  kNormalizations,
  /// Hash-consing lookups answered by an existing interned form.
  kInternHits,
  /// Hash-consing lookups that created a new interned form.
  kInternMisses,
  /// Taxonomy classifications (two-phase searches), schema inserts and
  /// query classification alike.
  kClassifications,
  /// Worklist steps run by the propagation engine.
  kPropagationSteps,
  /// Forward-chaining rule applications (at most one per rule/individual).
  kRuleFirings,
  /// Realizations: top-down recognition sweeps for one individual.
  kRealizations,
  /// Open-world instance tests (KnowledgeBase::Satisfies, recursive).
  kInstanceChecks,
  /// Requests evaluated by KbEngine::ServeQuery.
  kQueriesServed,
  /// Epochs published by KbEngine::Publish.
  kEpochPublishes,
  /// Snapshot acquisitions (KbEngine::snapshot()).
  kSnapshotAcquisitions,
  /// COW chunks/values path-copied to assemble the published epoch's
  /// delta (drained from the master at each Publish) — the O(delta)
  /// publication cost in units of copies.
  kPublishChunksCopied,
  /// Approximate bytes of chunk storage the published epoch shares with
  /// the master instead of deep-copying.
  kPublishBytesShared,
  /// Wire requests admitted by the serving front-end's admission
  /// controller (src/serve) — each admitted request is dispatched into a
  /// snapshot-isolated QueryBatch.
  kServeAccepted,
  /// Wire requests shed on overload: the admission controller was at its
  /// in-flight bound, so the server answered with a typed `overloaded`
  /// error frame instead of queueing unboundedly.
  kServeShed,
  /// Wavefronts drained by the propagation engine (each individual is
  /// re-derived at most once per wavefront).
  kPropagationWavefronts,
  /// Re-enqueues absorbed by the per-wavefront dirty bitset (and
  /// duplicate seed ids dropped before scheduling) — work the worklist
  /// engine deduplicated instead of re-running.
  kPropagationDedupHits,
  /// Watermark (not a sum): the largest single wavefront ever drained.
  /// Maintained by CounterMaxTo directly on the global total.
  kPropagationMaxWavefront,
  /// Concept retrievals whose streamed base is a FILLS posting or a
  /// ONE-OF enumeration, plus those answered by the equivalent-concept
  /// extension fast path.
  kPlannerIndexPath,
  /// Concept retrievals whose streamed base is a parent's extension or
  /// the full visible scan (the paper's Section 5 technique).
  kPlannerScanPath,
  /// Members of the streamed base summed over index-path retrievals.
  kPlannerPostingsScanned,
  /// Base members another complete source rejected before the
  /// per-candidate Satisfies test.
  kPlannerCandidatesPruned,
  /// ask-possible exclusion tests: one per DisjointFrom call, i.e. per
  /// undecided individual on the query's exclusion surface.
  kExclusionTests,
  kCount
};

inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);

/// Dense value vector indexed by Counter; the exchange currency between
/// the registry, QueryAnswer stats and the classic_stats renderer.
using CounterArray = std::array<uint64_t, kNumCounters>;

/// \brief Stable serialized name ("subsumption-tests", "intern-hits", ...).
const char* CounterName(Counter c);

/// \brief Inverse of CounterName; nullopt for unknown names.
std::optional<Counter> CounterFromName(std::string_view name);

/// \brief Operations with a latency histogram: the seven QueryRequest
/// kinds plus the writer-side Mutate/Publish. OpName returns the shared
/// kind<->string mapping ("ask", "path-query", "publish", ...) that
/// QueryKindName (kb/kb_engine.h), classic_stats and the JSON output all
/// use.
enum class Op : uint32_t {
  kAsk = 0,
  kAskPossible,
  kAskDescription,
  kPathQuery,
  kDescribeIndividual,
  kMostSpecificConcepts,
  kInstancesOf,
  kMutate,
  kPublish,
  /// Serving-front-end queue wait: decode of a request frame to the start
  /// of its batch dispatch (src/serve admission + batching delay).
  kServeQueueWait,
  /// One propagation run to its fixed point, excluding normalization of
  /// the asserted expression.
  kPropagate,
  kCount
};

inline constexpr size_t kNumOps = static_cast<size_t>(Op::kCount);

const char* OpName(Op op);
std::optional<Op> OpFromName(std::string_view name);

/// \brief Monotonic wall clock in nanoseconds (steady_clock).
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if CLASSIC_OBS

namespace internal {

/// Per-thread counter slab. Constant-initialized and trivially
/// destructible, so access is a direct TLS address — no init guard, no
/// atexit registration, no function call on the hot path. `flushed` is
/// the per-counter watermark already pushed to the global totals.
struct ThreadCounters {
  uint64_t counts[kNumCounters];
  uint64_t flushed[kNumCounters];
};

inline thread_local ThreadCounters t_counters{};

}  // namespace internal

/// \brief Bumps one counter on the calling thread. A single non-atomic
/// add into thread-local storage; visible in global totals after the next
/// flush (CounterDeltaScope destruction or FlushLocalCounters).
inline void IncrCounter(Counter c, uint64_t n = 1) {
  internal::t_counters.counts[static_cast<size_t>(c)] += n;
}

/// \brief Pushes the calling thread's unflushed counts into the global
/// totals (relaxed atomics). Called automatically when a
/// CounterDeltaScope closes.
void FlushLocalCounters();

/// \brief Raises a *watermark* counter to at least `value` (CAS-max on
/// the global total, bypassing the thread-local slabs — a max cannot be
/// accumulated additively). Use only for counters documented as
/// watermarks; ResetCounters zeroes them like any other.
void CounterMaxTo(Counter c, uint64_t value);

#else  // !CLASSIC_OBS

inline void IncrCounter(Counter, uint64_t = 1) {}
inline void FlushLocalCounters() {}
inline void CounterMaxTo(Counter, uint64_t) {}

#endif  // CLASSIC_OBS

/// Hot-path increment, compiled out entirely under -DCLASSIC_OBS=OFF.
#if CLASSIC_OBS
#define CLASSIC_OBS_COUNT(counter) \
  (::classic::obs::IncrCounter(::classic::obs::Counter::counter))
#define CLASSIC_OBS_COUNT_N(counter, n) \
  (::classic::obs::IncrCounter(::classic::obs::Counter::counter, (n)))
#else
#define CLASSIC_OBS_COUNT(counter) ((void)0)
#define CLASSIC_OBS_COUNT_N(counter, n) ((void)0)
#endif

/// \brief Global totals: everything flushed so far, plus the calling
/// thread's pending counts (it is flushed first). Counts accumulated by
/// other threads that have not reached a flush point yet are not
/// included; the engine flushes at every operation boundary.
CounterArray ReadCounters();

/// \brief Zeroes the global totals. Flushes the calling thread first.
/// Only meaningful while no other thread is actively counting (tool
/// startup, test setup).
void ResetCounters();

/// \brief RAII window measuring the calling thread's counter deltas.
///
/// Deltas() is exact for work done on this thread between construction
/// and the call. Destruction flushes the thread's counts to the global
/// totals, which is what makes engine totals visible at operation
/// granularity.
class CounterDeltaScope {
 public:
#if CLASSIC_OBS
  CounterDeltaScope() {
    for (size_t i = 0; i < kNumCounters; ++i) {
      start_[i] = internal::t_counters.counts[i];
    }
  }
  ~CounterDeltaScope() { FlushLocalCounters(); }
  CounterArray Deltas() const {
    CounterArray out;
    for (size_t i = 0; i < kNumCounters; ++i) {
      out[i] = internal::t_counters.counts[i] - start_[i];
    }
    return out;
  }
#else
  CounterDeltaScope() = default;
  CounterArray Deltas() const { return CounterArray{}; }
#endif

  CounterDeltaScope(const CounterDeltaScope&) = delete;
  CounterDeltaScope& operator=(const CounterDeltaScope&) = delete;

#if CLASSIC_OBS
 private:
  uint64_t start_[kNumCounters];
#endif
};

}  // namespace classic::obs
