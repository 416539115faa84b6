// Hierarchical span tracer (the unified observability layer, DESIGN.md §10).
//
// The evaluation is a performance story: per-phase cost across network sizes
// (Figures 11-14). To attribute wall-clock inside a parallel repair round the
// engine opens one Span per unit of interesting work — synthesize, round,
// subproblem solve, SmtSession::check, violations sweep, deployment stage —
// and a closed span becomes a (name, start, duration, thread, parent) event.
// Events can be exported as Chrome trace-event JSON, loadable by
// chrome://tracing and Perfetto (aed_cli --trace, AED_TRACE_OUT for benches).
//
// One recorder, two views. Every thread has one recorder (obs/recorder.hpp)
// holding a bounded ring — the flight recorder's view (obs/flight.hpp),
// written on every span close while FlightRecorder is enabled, which is the
// default — and an unbounded event vector, the tracer's view, written only
// while Tracer is enabled. Both views stamp the same thread index, so a
// flight dump and a Chrome trace of one run agree on every `tid`.
//
// Parenting. Each thread keeps the id of its innermost open span; a new Span
// adopts it as parent. For work shipped to another thread, the submitter's
// current span id is captured at submit time and installed on the worker via
// Tracer::ScopedParent for the task's duration — aed::ThreadPool does this
// for every task, so a subproblem span opened on a worker parents correctly
// under the round span that enqueued it (asserted by tests/obs_test.cpp).
//
// Cost model. A fully inert Span (tracer off AND flight recorder off, no
// elapsed-seconds output) is two relaxed atomic loads and a few stores to a
// trivially-constructible struct: no clock read, no allocation (asserted by
// an operator-new-counting test), no lock. Otherwise a Span reads the clock
// twice and, on close, takes its thread's recorder lock once to write the
// ring slot and/or append the trace event. That lock is only ever contended
// by a concurrent collect()/clear(), so recording never blocks on other
// recording threads. Compiling with -DAED_DISABLE_TRACING removes the
// AED_SPAN statements entirely.
//
// Lifetime: recorders are registered with a process-wide registry on first
// use and hand their remaining events to it when their thread exits, so
// short-lived pool threads never lose spans.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace aed {

/// Microseconds since the tracer epoch (process start, steady_clock) — the
/// time base every TraceEvent and flight-recorder event shares.
std::int64_t tracerNowUs();

#if defined(AED_DISABLE_TRACING)
#define AED_TRACING_COMPILED 0
#else
#define AED_TRACING_COMPILED 1
#endif

/// One closed span. Times are microseconds since the tracer epoch (process
/// start), monotonic (steady_clock).
struct TraceEvent {
  const char* name = "";   // static-storage literal supplied by the Span
  std::string detail;      // optional free-form annotation ("dst=10.0.1.0/24")
  std::uint64_t id = 0;     // unique per span, never 0
  std::uint64_t parent = 0; // enclosing span id; 0 = root
  std::uint32_t tid = 0;    // small per-thread index assigned on first use
  std::int64_t startUs = 0;
  std::int64_t durUs = 0;
};

class Tracer {
 public:
  /// Starts recording. Spans opened while disabled are never recorded, even
  /// if they close after enable().
  static void enable();
  /// Stops recording; already-buffered events are kept until clear().
  static void disable();
  static bool enabled() { return enabledFlag(); }

  /// Drops every buffered event (and the enabled flag stays as-is).
  static void clear();

  /// Snapshot of all closed spans so far, across threads, in (start, id)
  /// order. Spans still open are not included.
  static std::vector<TraceEvent> collect();

  /// Writes collect() as Chrome trace-event JSON ("traceEvents" array of
  /// complete "X" events; span/parent ids and details go in "args").
  static void writeChromeTrace(std::ostream& out);
  /// Same, to a file. Returns false if the file cannot be written.
  static bool writeChromeTrace(const std::string& path);

  /// Innermost open span id on this thread (0 = none). Capture at submit
  /// time to parent work that runs on another thread.
  static std::uint64_t currentSpan();

  /// Installs `parent` as this thread's current span for the scope, so spans
  /// opened inside parent under the submitter's span instead of whatever the
  /// worker happened to be doing. Restores the previous context on exit.
  /// Near-free when tracing is disabled (two thread-local stores).
  class ScopedParent {
   public:
    explicit ScopedParent(std::uint64_t parent);
    ~ScopedParent();
    ScopedParent(const ScopedParent&) = delete;
    ScopedParent& operator=(const ScopedParent&) = delete;

   private:
    std::uint64_t saved_;
  };

 private:
  static bool enabledFlag();
  friend class Span;
};

/// RAII span: records one TraceEvent from construction to destruction when
/// tracing is enabled, writes the flight ring whenever the flight recorder is
/// enabled (the default), and is inert (no clock, no allocation) when both
/// are off and no elapsed-seconds output is set. `name` must have static
/// storage duration (string literals).
class Span {
 public:
  explicit Span(const char* name);
  /// The detail string is only constructed into the span when the tracer or
  /// the flight recorder will record it; callers on hot paths should prefer
  /// the name-only overload or setDetail() under `if (active())`.
  Span(const char* name, std::string detail);
  /// Also stores the span's duration, in seconds, into `*elapsedSeconds` on
  /// close — the same clock readings the trace and ring events carry, so a
  /// phase timed this way is timed once. Always reads the clock.
  Span(const char* name, double* elapsedSeconds);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is being recorded by the tracer (enabled at open).
  /// Deliberately excludes flight-only recording: hot paths use this to gate
  /// detail-string construction, which the bounded flight ring doesn't need.
  bool active() const { return id_ != 0; }
  /// Attaches/replaces the annotation; no-op on a tracer-inactive span.
  void setDetail(std::string detail);
  std::uint64_t id() const { return id_; }

 private:
  void open(const char* name);

  const char* name_;
  std::string detail_;
  std::uint64_t id_ = 0;      // 0 = not traced
  std::uint64_t parent_ = 0;
  std::int64_t startUs_ = 0;
  double* elapsedSeconds_ = nullptr;
  bool flight_ = false;       // recorded into the flight ring on close
};

#if AED_TRACING_COMPILED
#define AED_SPAN_CAT2(a, b) a##b
#define AED_SPAN_CAT(a, b) AED_SPAN_CAT2(a, b)
/// Opens an anonymous span for the rest of the enclosing scope.
#define AED_SPAN(name) ::aed::Span AED_SPAN_CAT(aedSpan_, __LINE__)(name)
#else
#define AED_SPAN(name) ((void)0)
#endif

}  // namespace aed
