#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_span_id{1};

/// One thread's finished spans. Owned by the registry, so the records
/// outlive the thread that made them.
struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by the above

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<uint32_t>(g_buffers.size());
    return g_buffers.back().get();
  }();
  return buffer;
}

/// The innermost open span on this thread (0 = none) and its request.
thread_local uint64_t t_open_span = 0;
thread_local uint64_t t_open_request = 0;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request) {
  if (!Tracing()) return;
  active_ = true;
  rec_.name = name;
  rec_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_open_span;
  enclosing_request_ = t_open_request;
  rec_.request = request != 0 ? request : t_open_request;
  t_open_span = rec_.id;
  t_open_request = rec_.request;
  rec_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = NowNs();
  ThreadBuffer* buffer = LocalBuffer();
  rec_.thread = buffer->thread;
  buffer->spans.push_back(rec_);
  t_open_span = rec_.parent;
  t_open_request = enclosing_request_;
}

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns ||
                     (a.start_ns == b.start_ns && a.id < b.id);
            });
  return out;
}

std::map<std::string, uint64_t> SelfTimeByName(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.duration_ns();
  }
  std::map<std::string, uint64_t> out;
  for (const SpanRecord& s : spans) {
    const auto it = child_ns.find(s.id);
    const uint64_t children = it == child_ns.end() ? 0 : it->second;
    const uint64_t dur = s.duration_ns();
    out[s.name] += dur > children ? dur - children : 0;
  }
  return out;
}

std::vector<uint64_t> DurationsOf(const std::vector<SpanRecord>& spans,
                                  const std::string& name) {
  std::vector<uint64_t> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) out.push_back(s.duration_ns());
  }
  return out;
}

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            size_t max_events, const std::string& metadata) {
  std::string out = "{\"traceEvents\":[";
  const size_t n = std::min(max_events, spans.size());
  char buf[320];
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}",
                  i == 0 ? "" : ",\n", s.name, s.thread,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.duration_ns()) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ns\",\"otherData\":";
  out += metadata;
  out += "}\n";
  return out;
}

}  // namespace perfbench
