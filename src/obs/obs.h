// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Observability entry point: runtime gating for the metrics / tracing
// macros, plus build metadata (git SHA, build type) for run manifests.
//
// The macros are always compiled in. They are no-ops (one relaxed atomic
// load and a branch) until obs::SetEnabled(true) is called or the
// MONOCLASS_OBS environment variable is set to 1/on/true. Event
// recording into the flight recorder (obs/flight.h) has its own switch
// layered on top: MONOCLASS_TRACE=1 turns it on together with the
// whole-run capture, --telemetry-dump turns on the live rings.
//
// The macros:
//
//   MC_COUNTER("name", delta)    monotone counter += delta
//   MC_GAUGE("name", value)      last-value gauge
//   MC_HISTOGRAM("name", value)  histogram observation (count, sum,
//                                min, max)
//   MC_SPAN("name")              RAII span for the enclosing scope:
//                                flight-recorder begin/end events when
//                                recording is on
//   MC_LATENCY("name")           RAII latency-histogram timer for the
//                                enclosing scope (quantile-exact
//                                LatencyHistogram, microseconds); also
//                                emits flight-recorder begin/end events
//                                when recording is on. Names must
//                                start with "mc.lat." (lint rule MC010).
//
// Metric names are string literals; each macro expansion resolves its
// registry entry once (function-local static) so the steady-state hot
// path is one branch plus one relaxed atomic update.

#ifndef MONOCLASS_OBS_OBS_H_
#define MONOCLASS_OBS_OBS_H_

#include <string>

#include "obs/flight.h"             // IWYU pragma: export
#include "obs/latency_histogram.h"  // IWYU pragma: export
#include "obs/metrics.h"            // IWYU pragma: export
#include "obs/trace.h"              // IWYU pragma: export
#include "util/sync_model.h"

namespace monoclass {
namespace obs {

namespace internal {
// Tri-state: -1 = uninitialized (read MONOCLASS_OBS env on first query),
// 0 = disabled, 1 = enabled.
extern mc::atomic<int> g_enabled_state;
// Out-of-line slow path: parses the environment once and caches.
bool InitEnabledFromEnv();
}  // namespace internal

// Whether the metrics macros are live right now.
inline bool Enabled() {
  const int state = internal::g_enabled_state.load(mc::memory_order_relaxed);
  if (state >= 0) return state != 0;
  return internal::InitEnabledFromEnv();
}

// Overrides the environment-derived default.
void SetEnabled(bool enabled);

// Reads MONOCLASS_OBS and MONOCLASS_TRACE and applies the switches
// (benches and the CLI call this once at startup).
void InitFromEnv();

// Git SHA the library was built from ("unknown" outside a git checkout).
std::string BuildGitSha();

// CMAKE_BUILD_TYPE of this build ("unknown" if not recorded).
std::string BuildType();

// RAII timer behind MC_LATENCY: resolves its LatencyHistogram once per
// call site (the resolver is a captureless lambda holding the
// function-local static), stamps NowMicros() on entry and observes the
// elapsed microseconds on exit. When flight recording is active it also
// brackets the scope with kSpanBegin/kSpanEnd events, so latency points
// show up on the flight timeline without a separate MC_SPAN.
class LatencyScope {
 public:
  using Resolver = LatencyHistogram* (*)();

  LatencyScope(const char* name, Resolver resolver) {
    if (Enabled()) {
      histogram_ = resolver();
      start_us_ = NowMicros();
      if (FlightRecordingActive()) {
        flight_name_id_ = InternFlightName(name);
        in_flight_ = true;
        captured_ = RecordFlightEvent(FlightEventType::kSpanBegin,
                                      flight_name_id_, 0.0);
      }
    }
  }

  ~LatencyScope() {
    if (histogram_ == nullptr) return;
    const double elapsed_us = NowMicros() - start_us_;
    histogram_->Observe(elapsed_us);
    if (in_flight_) {
      RecordFlightEvent(FlightEventType::kSpanEnd, flight_name_id_,
                        elapsed_us, captured_);
    }
  }

  LatencyScope(const LatencyScope&) = delete;
  LatencyScope& operator=(const LatencyScope&) = delete;

 private:
  LatencyHistogram* histogram_ = nullptr;
  double start_us_ = 0.0;
  uint32_t flight_name_id_ = 0;
  bool in_flight_ = false;
  bool captured_ = false;  // the begin entered the whole-run capture
};

}  // namespace obs
}  // namespace monoclass

#define MC_OBS_CONCAT_INNER(a, b) a##b
#define MC_OBS_CONCAT(a, b) MC_OBS_CONCAT_INNER(a, b)

#define MC_COUNTER(name, delta)                                          \
  do {                                                                   \
    if (::monoclass::obs::Enabled()) {                                   \
      static ::monoclass::obs::Counter* mc_obs_counter =                 \
          ::monoclass::obs::MetricsRegistry::Global().GetCounter(name);  \
      const auto mc_obs_delta = (delta);                                 \
      mc_obs_counter->Add(static_cast<uint64_t>(mc_obs_delta));          \
      if (::monoclass::obs::FlightRecordingActive()) {                   \
        static const uint32_t mc_obs_flight_name =                       \
            ::monoclass::obs::InternFlightName(name);                    \
        ::monoclass::obs::RecordFlightEvent(                             \
            ::monoclass::obs::FlightEventType::kCounter,                 \
            mc_obs_flight_name, static_cast<double>(mc_obs_delta));      \
      }                                                                  \
    }                                                                    \
  } while (0)

#define MC_GAUGE(name, value)                                            \
  do {                                                                   \
    if (::monoclass::obs::Enabled()) {                                   \
      static ::monoclass::obs::Gauge* mc_obs_gauge =                     \
          ::monoclass::obs::MetricsRegistry::Global().GetGauge(name);    \
      mc_obs_gauge->Set(static_cast<double>(value));                     \
    }                                                                    \
  } while (0)

#define MC_HISTOGRAM(name, value)                                        \
  do {                                                                   \
    if (::monoclass::obs::Enabled()) {                                   \
      static ::monoclass::obs::Histogram* mc_obs_histogram =             \
          ::monoclass::obs::MetricsRegistry::Global().GetHistogram(name); \
      mc_obs_histogram->Observe(static_cast<double>(value));             \
    }                                                                    \
  } while (0)

#define MC_SPAN(name) \
  ::monoclass::obs::Span MC_OBS_CONCAT(mc_obs_span_, __LINE__)(name)

#define MC_LATENCY(name)                                                    \
  ::monoclass::obs::LatencyScope MC_OBS_CONCAT(mc_obs_latency_, __LINE__)(  \
      (name), +[]() -> ::monoclass::obs::LatencyHistogram* {                \
        static ::monoclass::obs::LatencyHistogram* mc_obs_latency =         \
            ::monoclass::obs::MetricsRegistry::Global().GetLatency(name);   \
        return mc_obs_latency;                                              \
      })

#endif  // MONOCLASS_OBS_OBS_H_
