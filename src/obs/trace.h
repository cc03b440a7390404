// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// RAII spans behind MC_SPAN (see obs/obs.h) and the clock every obs
// event is stamped with. While flight recording is on, a span records a
// begin event at construction and an end event carrying its elapsed
// microseconds at destruction, through the flight recorder
// (obs/flight.h) -- the obs layer's one event sink. Its live rings serve
// telemetry; its whole-run capture (MONOCLASS_TRACE=1) becomes a bench
// run's Chrome-trace file.
//
// Timestamps come from a steady_clock epoch fixed at first use, in
// microseconds, so events are monotone per thread and comparable across
// threads. Each thread gets a small dense tid from a thread_local
// counter.

#ifndef MONOCLASS_OBS_TRACE_H_
#define MONOCLASS_OBS_TRACE_H_

#include <cstdint>

namespace monoclass {
namespace obs {

// Microseconds since the process-wide trace epoch (first use).
double NowMicros();

// Dense id of the calling thread (0 for the first thread observed).
uint32_t CurrentThreadId();

// RAII span used by MC_SPAN. Cheap when recording is off: one relaxed
// atomic load in the constructor, one branch in the destructor. A span
// whose begin entered the whole-run capture always records its end
// there, so the capture holds every such span whole.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool recorded_ = false;
  bool captured_ = false;
  uint32_t name_id_ = 0;
  double start_us_ = 0.0;
};

// A wall-clock stopwatch that doubles as a span: always measures (for
// benchmark tables) and records like MC_SPAN while recording is on. This
// is the bench-side replacement for util/timer.h's WallTimer, so one
// object both fills a table cell and shows up in the trace.
class SpanTimer {
 public:
  explicit SpanTimer(const char* name) : span_(name) {}

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  double ElapsedMillis() const;
  double ElapsedSeconds() const { return ElapsedMillis() * 1e-3; }

 private:
  double start_us_ = NowMicros();
  Span span_;
};

}  // namespace obs
}  // namespace monoclass

#endif  // MONOCLASS_OBS_TRACE_H_
