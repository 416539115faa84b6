// The per-thread span/log recorder behind Tracer and FlightRecorder
// (internal to src/obs; DESIGN.md §10, §12). Not for use outside the layer.
//
// Each thread owns one ThreadRecorder with two views of what it records:
// the bounded flight ring, written on every span close and log line while
// the flight recorder is enabled, and the unbounded trace vector, written
// only while the tracer is enabled. One mutex guards both, and one thread
// index stamps both, so a Chrome trace and a flight dump of the same run
// name each thread alike.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace aed::obs_internal {

/// Registered with Recorders on first use; on thread exit its events move
/// into the retired buffers, so short-lived pool threads never lose them.
/// The mutex is only contended by a concurrent collect()/clear().
struct ThreadRecorder {
  std::mutex mutex;
  std::array<FlightRecorder::Event, FlightRecorder::kEventsPerThread> ring;
  std::uint64_t ringWritten = 0;  // total ring records; slot = written % cap
  std::vector<TraceEvent> trace;
  const std::uint32_t tid;

  ThreadRecorder();
  ~ThreadRecorder();
  ThreadRecorder(const ThreadRecorder&) = delete;
  ThreadRecorder& operator=(const ThreadRecorder&) = delete;

  /// Overwrites the oldest ring slot with one event whose text is `a`, a
  /// space and `b` (just `a` when `b` is empty), truncated to the slot.
  /// Caller holds `mutex`.
  void recordRing(char kind, std::int64_t timeUs, std::int64_t durUs,
                  std::string_view a, std::string_view b);
  /// Appends the ring's live events, oldest first. Caller holds `mutex`.
  void appendRing(std::vector<FlightRecorder::Event>& out) const;
};

/// Process-wide registry of live recorders plus what exited threads left:
/// every trace event, and the newest kRetiredEventCap ring events.
struct Recorders {
  std::mutex mutex;
  std::vector<ThreadRecorder*> live;
  std::vector<TraceEvent> retiredTrace;
  std::vector<FlightRecorder::Event> retiredRing;

  static Recorders& instance();
};

/// This thread's recorder, registered on first call.
ThreadRecorder& threadRecorder();

}  // namespace aed::obs_internal
