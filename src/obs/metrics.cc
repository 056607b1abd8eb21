#include "obs/metrics.h"

#include <atomic>

namespace classic::obs {

namespace {

constexpr const char* kCounterNames[kNumCounters] = {
    "subsumption-tests",
    "subsumption-memo-hits",
    "normalizations",
    "intern-hits",
    "intern-misses",
    "classifications",
    "propagation-steps",
    "rule-firings",
    "realizations",
    "instance-checks",
    "queries-served",
    "epoch-publishes",
    "snapshot-acquisitions",
    "publish-chunks-copied",
    "publish-bytes-shared",
    "serve-accepted",
    "serve-shed",
    "propagation-wavefronts",
    "propagation-dedup-hits",
    "propagation-max-wavefront",
    "planner-index-path",
    "planner-scan-path",
    "planner-postings-scanned",
    "planner-candidates-pruned",
    "exclusion-tests",
};

constexpr const char* kOpNames[kNumOps] = {
    "ask",
    "ask-possible",
    "ask-description",
    "path-query",
    "describe-individual",
    "most-specific-concepts",
    "instances-of",
    "mutate",
    "publish",
    "serve-queue-wait",
    "propagate",
};

/// The engine-wide totals every thread flushes into. Plain namespace
/// atomics: constant-initialized, never destroyed, safe to touch from
/// TLS flushes at any point of the process lifetime.
std::atomic<uint64_t> g_totals[kNumCounters];

}  // namespace

const char* CounterName(Counter c) {
  return kCounterNames[static_cast<size_t>(c)];
}

std::optional<Counter> CounterFromName(std::string_view name) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (name == kCounterNames[i]) return static_cast<Counter>(i);
  }
  return std::nullopt;
}

const char* OpName(Op op) { return kOpNames[static_cast<size_t>(op)]; }

std::optional<Op> OpFromName(std::string_view name) {
  for (size_t i = 0; i < kNumOps; ++i) {
    if (name == kOpNames[i]) return static_cast<Op>(i);
  }
  return std::nullopt;
}

#if CLASSIC_OBS
void CounterMaxTo(Counter c, uint64_t value) {
  std::atomic<uint64_t>& total = g_totals[static_cast<size_t>(c)];
  uint64_t cur = total.load(std::memory_order_relaxed);
  while (cur < value &&
         !total.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void FlushLocalCounters() {
  internal::ThreadCounters& tls = internal::t_counters;
  for (size_t i = 0; i < kNumCounters; ++i) {
    const uint64_t pending = tls.counts[i] - tls.flushed[i];
    if (pending != 0) {
      g_totals[i].fetch_add(pending, std::memory_order_relaxed);
      tls.flushed[i] = tls.counts[i];
    }
  }
}
#endif

CounterArray ReadCounters() {
  FlushLocalCounters();
  CounterArray out;
  for (size_t i = 0; i < kNumCounters; ++i) {
    out[i] = g_totals[i].load(std::memory_order_relaxed);
  }
  return out;
}

void ResetCounters() {
  FlushLocalCounters();
  for (auto& total : g_totals) total.store(0, std::memory_order_relaxed);
}

}  // namespace classic::obs
