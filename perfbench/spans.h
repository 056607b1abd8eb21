// In-memory span recorder for the benchmark's traced pass.
//
// A Span marks one call into a layer of the system (a wire round trip, a
// request parse, an engine serve, a publish, ...) on the thread making
// it. Spans nest through a thread-local stack, so each one records its
// parent, and every span inherits the request id of the span that caused
// it unless it names its own. Spans are kept in per-thread buffers and
// collected once at the end of the run; nothing is written while the
// benchmark measures.
//
// Recording is off by default. A disabled Span costs one relaxed load and
// a branch, which is what the untraced pass pays.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< Static string: "<layer>.<call>".
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root span.
  uint64_t request = 0;  ///< Shared by every span of one request; 0 = none.
  uint32_t thread = 0;

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Monotonic clock in nanoseconds (steady_clock), the one clock every
/// span and every client-side latency is measured on.
uint64_t NowNs();

void SetTracing(bool on);
bool Tracing();

/// \brief RAII span. `name` must be a string literal. A nonzero
/// `request` starts a new request; 0 inherits the enclosing span's.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  uint64_t enclosing_request_ = 0;
  SpanRecord rec_;
};

/// \brief Every span recorded so far by any thread, ordered by start.
/// Call only while no thread is recording.
std::vector<SpanRecord> CollectSpans();

/// \brief Self time per span name: each span's duration minus the time
/// its direct children cover (children run on the same thread, inside
/// the parent's interval, one after another). Nanoseconds, summed.
std::map<std::string, uint64_t> SelfTimeByName(
    const std::vector<SpanRecord>& spans);

/// \brief Durations (ns) of every span with this name, in record order.
std::vector<uint64_t> DurationsOf(const std::vector<SpanRecord>& spans,
                                  const std::string& name);

/// \brief Chrome trace_event JSON: one complete ("ph":"X") event per
/// span, at most `max_events` of them (earliest first), with id, parent
/// and request id in "args". `metadata` is a JSON object placed under
/// "otherData".
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            size_t max_events, const std::string& metadata);

}  // namespace perfbench
