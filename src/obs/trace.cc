#include "obs/trace.h"

#include <atomic>
#include <mutex>
#include <vector>

#include "util/string_util.h"

namespace classic::obs {

namespace {

struct TraceEvent {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint32_t tid;
  uint64_t start_ns;
  uint64_t dur_ns;
};

std::atomic<bool> g_tracing{false};
/// Span ids are never reused; 0 means "no parent".
std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint32_t> g_next_tid{1};

std::mutex g_events_mutex;
std::vector<TraceEvent>& Events() {
  static std::vector<TraceEvent>* events = new std::vector<TraceEvent>();
  return *events;
}

#if CLASSIC_OBS
constexpr size_t kMaxSpanDepth = 64;

/// Per-thread span stack; constant-initialized (tid assigned lazily).
struct ThreadSpans {
  uint64_t stack[kMaxSpanDepth];
  size_t depth;
  uint32_t tid;
};

thread_local ThreadSpans t_spans{};

uint32_t LocalTid() {
  if (t_spans.tid == 0) {
    t_spans.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return t_spans.tid;
}
#endif  // CLASSIC_OBS

}  // namespace

void StartTracing() { g_tracing.store(true, std::memory_order_relaxed); }

void StopTracing() { g_tracing.store(false, std::memory_order_relaxed); }

bool TracingActive() { return g_tracing.load(std::memory_order_relaxed); }

void ClearTrace() {
  std::lock_guard<std::mutex> lock(g_events_mutex);
  Events().clear();
}

size_t TraceSpanCount() {
  std::lock_guard<std::mutex> lock(g_events_mutex);
  return Events().size();
}

std::string TraceJson() {
  std::lock_guard<std::mutex> lock(g_events_mutex);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : Events()) {
    if (!first) out += ",";
    first = false;
    // Chrome expects microsecond timestamps; keep ns precision with a
    // fractional part.
    out += StrCat("\n{\"name\": \"", e.name,
                  "\", \"cat\": \"classic\", \"ph\": \"X\", \"pid\": 1",
                  ", \"tid\": ", e.tid, ", \"ts\": ", e.start_ns / 1000, ".",
                  e.start_ns % 1000, ", \"dur\": ", e.dur_ns / 1000, ".",
                  e.dur_ns % 1000, ", \"args\": {\"id\": ", e.id,
                  ", \"parent\": ", e.parent, "}}");
  }
  out += "\n]}\n";
  return out;
}

#if CLASSIC_OBS

TraceSpan::TraceSpan(const char* name) {
  if (!TracingActive()) return;
  if (t_spans.depth >= kMaxSpanDepth) return;  // drop, keep tree consistent
  name_ = name;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_spans.depth > 0 ? t_spans.stack[t_spans.depth - 1] : 0;
  t_spans.stack[t_spans.depth++] = id_;
  start_ns_ = MonotonicNanos();
  active_ = true;
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const uint64_t end_ns = MonotonicNanos();
  --t_spans.depth;
  // Recorded even if tracing stopped meanwhile: the span started under
  // tracing and the buffer is still valid.
  TraceEvent e{name_, id_, parent_, LocalTid(), start_ns_,
               end_ns - start_ns_};
  std::lock_guard<std::mutex> lock(g_events_mutex);
  Events().push_back(e);
}

#endif  // CLASSIC_OBS

}  // namespace classic::obs
