// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "obs/trace.h"

#include <chrono>

#include "obs/flight.h"
#include "util/sync_model.h"

namespace monoclass {
namespace obs {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point TraceEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

}  // namespace

double NowMicros() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   TraceEpoch())
      .count();
}

uint32_t CurrentThreadId() {
  static mc::atomic<uint32_t> next_id{0};
  thread_local const uint32_t id =
      next_id.fetch_add(1, mc::memory_order_relaxed);
  return id;
}

Span::Span(const char* name) {
  if (!FlightRecordingActive()) return;
  recorded_ = true;
  name_id_ = InternFlightName(name);
  start_us_ = NowMicros();
  captured_ = RecordFlightEvent(FlightEventType::kSpanBegin, name_id_, 0.0);
}

Span::~Span() {
  if (recorded_) {
    RecordFlightEvent(FlightEventType::kSpanEnd, name_id_,
                      NowMicros() - start_us_, captured_);
  }
}

double SpanTimer::ElapsedMillis() const {
  return (NowMicros() - start_us_) / 1e3;
}

}  // namespace obs
}  // namespace monoclass
