#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <mutex>
#include <ostream>
#include <string_view>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/recorder.hpp"

namespace aed {

namespace {

using Clock = std::chrono::steady_clock;

/// Recording toggle. A single process-wide relaxed flag: the disabled-path
/// cost is one load, and enabling mid-run only needs eventual visibility
/// (spans that raced the transition are simply not recorded).
std::atomic<bool> g_enabled{false};

/// Monotonic span ids; 0 is reserved for "no span".
std::atomic<std::uint64_t> g_nextSpanId{1};
/// The one thread index, shared by trace events and flight events.
std::atomic<std::uint32_t> g_nextTid{1};
/// Global flight-ring record order; 0 is reserved for "empty slot".
std::atomic<std::uint64_t> g_nextSeq{1};

Clock::time_point epoch() {
  static const Clock::time_point start = Clock::now();
  return start;
}

std::int64_t nowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch())
      .count();
}

/// Innermost open span on this thread. Plain thread_local (not in the
/// recorder) so ScopedParent stays cheap and usable pre-registration.
thread_local std::uint64_t t_currentSpan = 0;

}  // namespace

namespace obs_internal {

Recorders& Recorders::instance() {
  // Leaked intentionally: thread-exit retirement may run during process
  // teardown, after function-local statics would have been destroyed.
  static Recorders* recorders = new Recorders();
  return *recorders;
}

ThreadRecorder::ThreadRecorder()
    : tid(g_nextTid.fetch_add(1, std::memory_order_relaxed)) {
  Recorders& recorders = Recorders::instance();
  const std::lock_guard<std::mutex> lock(recorders.mutex);
  recorders.live.push_back(this);
}

ThreadRecorder::~ThreadRecorder() {
  Recorders& recorders = Recorders::instance();
  const std::lock_guard<std::mutex> lock(recorders.mutex);
  {
    const std::lock_guard<std::mutex> recorderLock(mutex);
    recorders.retiredTrace.insert(recorders.retiredTrace.end(),
                                  std::make_move_iterator(trace.begin()),
                                  std::make_move_iterator(trace.end()));
    appendRing(recorders.retiredRing);
  }
  // Keep only the newest kRetiredEventCap ring events across retirements.
  std::vector<FlightRecorder::Event>& retired = recorders.retiredRing;
  if (retired.size() > FlightRecorder::kRetiredEventCap) {
    std::sort(retired.begin(), retired.end(),
              [](const FlightRecorder::Event& a,
                 const FlightRecorder::Event& b) { return a.seq < b.seq; });
    retired.erase(retired.begin(),
                  retired.end() - FlightRecorder::kRetiredEventCap);
  }
  recorders.live.erase(
      std::remove(recorders.live.begin(), recorders.live.end(), this),
      recorders.live.end());
}

void ThreadRecorder::recordRing(char kind, std::int64_t timeUs,
                                std::int64_t durUs, std::string_view a,
                                std::string_view b) {
  FlightRecorder::Event& slot = ring[ringWritten++ % ring.size()];
  slot.seq = g_nextSeq.fetch_add(1, std::memory_order_relaxed);
  slot.timeUs = timeUs;
  slot.durUs = durUs;
  slot.tid = tid;
  slot.kind = kind;
  std::size_t n = 0;
  for (std::string_view part : {a, b.empty() ? b : std::string_view(" "), b}) {
    n += part.copy(slot.text + n, FlightRecorder::kTextCapacity - n);
  }
  slot.text[n] = '\0';
}

void ThreadRecorder::appendRing(
    std::vector<FlightRecorder::Event>& out) const {
  const std::size_t cap = ring.size();
  const std::size_t valid = std::min<std::uint64_t>(ringWritten, cap);
  for (std::size_t i = 0; i < valid; ++i) {
    out.push_back(ring[(ringWritten - valid + i) % cap]);
  }
}

ThreadRecorder& threadRecorder() {
  static thread_local ThreadRecorder recorder;
  return recorder;
}

}  // namespace obs_internal

using obs_internal::Recorders;
using obs_internal::ThreadRecorder;

std::int64_t tracerNowUs() { return nowUs(); }

bool Tracer::enabledFlag() {
  return g_enabled.load(std::memory_order_relaxed);
}

void Tracer::enable() {
  epoch();  // pin the epoch before the first span
  g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { g_enabled.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  Recorders& recorders = Recorders::instance();
  const std::lock_guard<std::mutex> lock(recorders.mutex);
  recorders.retiredTrace.clear();
  for (ThreadRecorder* recorder : recorders.live) {
    const std::lock_guard<std::mutex> recorderLock(recorder->mutex);
    recorder->trace.clear();
  }
}

std::vector<TraceEvent> Tracer::collect() {
  std::vector<TraceEvent> result;
  Recorders& recorders = Recorders::instance();
  {
    const std::lock_guard<std::mutex> lock(recorders.mutex);
    result = recorders.retiredTrace;
    for (ThreadRecorder* recorder : recorders.live) {
      const std::lock_guard<std::mutex> recorderLock(recorder->mutex);
      result.insert(result.end(), recorder->trace.begin(),
                    recorder->trace.end());
    }
  }
  std::sort(result.begin(), result.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.startUs != b.startUs ? a.startUs < b.startUs
                                            : a.id < b.id;
            });
  return result;
}

std::uint64_t Tracer::currentSpan() { return t_currentSpan; }

Tracer::ScopedParent::ScopedParent(std::uint64_t parent)
    : saved_(t_currentSpan) {
  t_currentSpan = parent;
}

Tracer::ScopedParent::~ScopedParent() { t_currentSpan = saved_; }

void Tracer::writeChromeTrace(std::ostream& out) {
  const std::vector<TraceEvent> events = collect();
  std::string json;
  json.reserve(events.size() * 160 + 64);
  json += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) json += ",";
    first = false;
    json += "\n{\"name\":\"";
    json += jsonEscape(event.name);
    json += "\",\"cat\":\"aed\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    json += std::to_string(event.tid);
    json += ",\"ts\":";
    json += std::to_string(event.startUs);
    json += ",\"dur\":";
    json += std::to_string(event.durUs);
    json += ",\"args\":{\"id\":";
    json += std::to_string(event.id);
    json += ",\"parent\":";
    json += std::to_string(event.parent);
    if (!event.detail.empty()) {
      json += ",\"detail\":\"";
      json += jsonEscape(event.detail);
      json += "\"";
    }
    json += "}}";
  }
  json += "\n],\"displayTimeUnit\":\"ms\"}\n";
  out << json;
}

bool Tracer::writeChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  writeChromeTrace(out);
  return static_cast<bool>(out);
}

void Span::open(const char* name) {
  name_ = name;
  if (Tracer::enabledFlag()) {
    id_ = g_nextSpanId.fetch_add(1, std::memory_order_relaxed);
    parent_ = t_currentSpan;
    t_currentSpan = id_;
  }
  flight_ = FlightRecorder::enabled();
  if (id_ != 0 || flight_ || elapsedSeconds_ != nullptr) startUs_ = nowUs();
}

Span::Span(const char* name) { open(name); }

Span::Span(const char* name, std::string detail) {
  open(name);
  // The caller already built the string; keeping it for the flight ring's
  // (truncated) text costs a move, not an allocation.
  if (id_ != 0 || flight_) detail_ = std::move(detail);
}

Span::Span(const char* name, double* elapsedSeconds)
    : elapsedSeconds_(elapsedSeconds) {
  open(name);
}

void Span::setDetail(std::string detail) {
  if (id_ != 0) detail_ = std::move(detail);
}

Span::~Span() {
  if (id_ == 0 && !flight_ && elapsedSeconds_ == nullptr) return;
  const std::int64_t durUs = nowUs() - startUs_;
  if (elapsedSeconds_ != nullptr) {
    *elapsedSeconds_ = static_cast<double>(durUs) * 1e-6;
  }
  if (id_ != 0) t_currentSpan = parent_;
  if (id_ == 0 && !flight_) return;
  ThreadRecorder& recorder = obs_internal::threadRecorder();
  const std::lock_guard<std::mutex> lock(recorder.mutex);
  if (flight_) recorder.recordRing('s', startUs_, durUs, name_, detail_);
  if (id_ != 0) {
    recorder.trace.push_back(TraceEvent{name_, std::move(detail_), id_,
                                        parent_, recorder.tid, startUs_,
                                        durUs});
  }
}

}  // namespace aed
