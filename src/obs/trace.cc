#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "obs/metrics.h"
#include "util/file_util.h"
#include "util/json_writer.h"

namespace doppler::obs {

namespace {

/// Hard cap per thread so a forgotten --trace-out on a long-running fleet
/// service cannot grow without bound; overflow is counted, not silent.
constexpr std::size_t kMaxSpansPerThread = 1 << 20;

/// Span state owned by one recording thread. The buffer mutex serialises
/// the owner's appends against snapshot/clear from an exporting thread;
/// `depth` is touched only by the owner and needs no lock.
struct ThreadState {
  std::mutex mu;
  std::vector<SpanRecord> spans;
  std::uint32_t tid = 0;
  int depth = 0;
};

struct Tracer {
  std::mutex mu;  ///< Guards the thread registry, not the buffers.
  std::vector<ThreadState*> threads;
  std::atomic<bool> enabled{false};
  std::atomic<std::uint32_t> next_tid{0};
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

Tracer& GlobalTracer() {
  // Leaked on purpose: spans may be recorded during static destruction.
  static Tracer* const kTracer = new Tracer();
  return *kTracer;
}

ThreadState* LocalState() {
  // Thread states are leaked as well: a SpanRecord snapshot must stay
  // readable after the recording thread exits.
  thread_local ThreadState* const state = [] {
    auto* s = new ThreadState();
    Tracer& tracer = GlobalTracer();
    std::lock_guard<std::mutex> lock(tracer.mu);
    s->tid = tracer.next_tid.fetch_add(1, std::memory_order_relaxed);
    tracer.threads.push_back(s);
    return s;
  }();
  return state;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - GlobalTracer().epoch)
      .count();
}

}  // namespace

void SetTracingEnabled(bool enabled) {
  GlobalTracer().enabled.store(enabled, std::memory_order_relaxed);
}

bool TracingEnabled() {
  return GlobalTracer().enabled.load(std::memory_order_relaxed);
}

void ClearTraceBuffer() {
  Tracer& tracer = GlobalTracer();
  std::lock_guard<std::mutex> registry_lock(tracer.mu);
  for (ThreadState* state : tracer.threads) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->spans.clear();
  }
}

std::vector<SpanRecord> SnapshotSpans() {
  Tracer& tracer = GlobalTracer();
  std::vector<SpanRecord> all;
  {
    std::lock_guard<std::mutex> registry_lock(tracer.mu);
    for (ThreadState* state : tracer.threads) {
      std::lock_guard<std::mutex> lock(state->mu);
      all.insert(all.end(), state->spans.begin(), state->spans.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.duration_ns > b.duration_ns;  // Parents first.
            });
  return all;
}

std::string RenderChromeTrace() {
  const std::vector<SpanRecord> spans = SnapshotSpans();
  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit").String("ms");
  json.Key("traceEvents").BeginArray();
  for (const SpanRecord& span : spans) {
    json.BeginObject();
    json.Key("name").String(span.name);
    json.Key("cat").String("doppler");
    json.Key("ph").String("X");
    json.Key("ts").Number(static_cast<double>(span.start_ns) / 1000.0);
    json.Key("dur").Number(static_cast<double>(span.duration_ns) / 1000.0);
    json.Key("pid").Int(1);
    json.Key("tid").Int(static_cast<long long>(span.thread_id));
    json.Key("args").BeginObject().Key("depth").Int(span.depth).EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Status WriteChromeTrace(const std::string& path) {
  return WriteTextFileAtomic(path, RenderChromeTrace());
}

ScopedSpan::ScopedSpan(const char* name) : name_(name), start_ns_(NowNs()) {
  ++LocalState()->depth;
}

ScopedSpan::~ScopedSpan() {
  const std::int64_t end_ns = NowNs();
  const std::int64_t duration_ns = end_ns - start_ns_;
  ThreadState* state = LocalState();
  const int depth = --state->depth;
  DefaultMetrics()
      .GetHistogram(std::string("latency.") + name_)
      ->Observe(static_cast<double>(duration_ns) / 1e9);
  if (!TracingEnabled()) return;
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->spans.size() >= kMaxSpansPerThread) {
    static Counter* const kDropped =
        DefaultMetrics().GetCounter("obs.spans_dropped");
    kDropped->Increment();
    return;
  }
  SpanRecord record;
  record.name = name_;
  record.start_ns = start_ns_;
  record.duration_ns = duration_ns;
  record.depth = depth;
  record.thread_id = state->tid;
  state->spans.push_back(std::move(record));
}

}  // namespace doppler::obs
