// Always-on flight recorder (introspection layer, DESIGN.md §12).
//
// Tracing (§10) answers "where did the time go" but must be switched on
// before the run; when a synthesis degrades, throws, or a deployment stage
// aborts in production, the interesting two seconds are already in the past.
// The flight recorder keeps them. It is the bounded view of the one
// per-thread recorder behind Span (obs/trace.hpp): every Span close and
// every log line is written into the thread's fixed ring of POD slots,
// always on by default, and the rings are rendered into a self-contained
// JSON post-mortem ("flight dump") at the moment of failure — recent spans
// and log lines in global order, the metrics snapshot, the error code, and
// caller-supplied context such as per-subproblem states. Ring events carry
// the same thread index as the tracer's events.
//
// Memory budget: each thread's ring holds kEventsPerThread slots of
// sizeof(Event) bytes (~32 KiB per thread, see the constants below) —
// allocated once per thread, never grown, oldest events overwritten. Retired
// threads park their events in a process-wide buffer trimmed to
// kRetiredEventCap, so the ring view is O(threads) memory no matter how long
// the process runs.
//
// Cost model: a span close or log line is a bounded copy into the caller's
// own ring under its recorder lock — contended only by a post-mortem reader,
// so recording never blocks on other recording threads and never allocates.
// Event text is truncated into a fixed char array (no std::string).
// FlightRecorder::setEnabled(false) restores the §10 inert-span fast path
// (no clock read) — that is the configuration the <250 ns disabled-span
// budget in bench_obs measures, and flight-on recording is its spanFlight.
//
// Dump triggers: core/aed.cpp calls maybeDump() from its finalize path when
// a run exits degraded/thrown/cancelled, apply/deploy.cpp when a stage
// aborts, and src/check/fuzz.cpp renders a dump per failing seed so
// aed_check can ship it next to the shrunk repro. A dump is only written
// when a destination is configured — setDumpPath() or the AED_FLIGHT_OUT
// environment variable — so library users who never opt in get the ring
// overhead only, never surprise files.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aed {

class FlightRecorder {
 public:
  /// Ring capacity per thread; tuned so a ring holds the last few hundred
  /// spans/log lines of its thread (several repair rounds of context).
  static constexpr std::size_t kEventsPerThread = 256;
  /// Max characters of event text kept per slot (longer text is truncated).
  static constexpr std::size_t kTextCapacity = 95;
  /// Cap on events retained from exited threads.
  static constexpr std::size_t kRetiredEventCap = 1024;

  /// One recorded slot. POD: fixed-size, no heap.
  struct Event {
    std::uint64_t seq = 0;    // global record order; never 0 for a live slot
    std::int64_t timeUs = 0;  // microseconds since the tracer epoch
    std::int64_t durUs = 0;   // span duration; 0 for log lines
    std::uint32_t tid = 0;    // thread index, shared with TraceEvent::tid
    char kind = 's';          // 's' span, 'l' log
    char text[kTextCapacity + 1] = {0};
  };

  /// Context a dump site supplies; `sections` are (key, pre-rendered JSON
  /// value) pairs appended verbatim to the dump object, which keeps this
  /// layer free of core types.
  struct DumpContext {
    std::string reason;     // "synthesize-degraded", "deploy-abort", ...
    std::string errorCode;  // errorCodeName() of the classified failure
    std::string detail;     // human-readable one-liner
    std::vector<std::pair<std::string, std::string>> sections;
  };

  /// Recording toggle; on by default (this is a flight recorder).
  static void setEnabled(bool enabled);
  static bool enabled();

  /// Records one log line (already formatted, single line).
  static void recordLog(const char* level, std::string_view line);

  /// All currently-buffered events across threads (live rings + retired),
  /// in global record (seq) order.
  static std::vector<Event> collect();
  /// Drops every buffered event.
  static void clear();

  /// Where maybeDump() writes; empty disables dumping. The AED_FLIGHT_OUT
  /// environment variable seeds the path at first use.
  static void setDumpPath(std::string path);
  static std::string dumpPath();

  /// Renders the post-mortem JSON: recorder events, the global metrics
  /// snapshot, and the context. Always available (independent of dumpPath).
  static std::string renderDump(const DumpContext& context);

  /// Writes renderDump() to dumpPath() if one is configured (overwriting —
  /// the outermost failure wins). Returns the path written, or empty when
  /// dumping is not configured or the file cannot be written.
  static std::string maybeDump(const DumpContext& context);
};

}  // namespace aed
