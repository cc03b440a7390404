// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Periodic telemetry snapshots for live consumers (tools/mc_top): a
// background writer thread (its own mc::thread, outside every pool, so
// it adds nothing to the mc.pool.* metrics) wakes every `interval_ms`
// and writes
//
//   <path>         Prometheus-style exposition text
//                  (MetricsRegistry::ExposeText) prefixed with
//                  `# monoclass exposition v1` / `# ts_us <stamp>`
//   <path>.flight  binary flight dump (obs/flight.h), only while flight
//                  recording is active
//
// Each file is written to a `.tmp` sibling and renamed into place, so a
// reader polling the path never observes a half-written snapshot.
// Benches enable this through the --telemetry-dump flag parsed by
// bench/bench_util.h; StopTelemetry() writes one final snapshot so even
// a run shorter than the interval leaves complete files behind.

#ifndef MONOCLASS_OBS_TELEMETRY_H_
#define MONOCLASS_OBS_TELEMETRY_H_

#include <string>

namespace monoclass {
namespace obs {

// Starts the periodic writer. Returns false (and does nothing) if
// telemetry is already running. Not thread-safe against concurrent
// Start/Stop calls -- the intended caller is a bench main.
bool StartTelemetry(const std::string& path, int interval_ms);

// Stops the writer, joins its thread and writes one final snapshot.
// Safe to call when telemetry was never started.
void StopTelemetry();

bool TelemetryActive();

// One immediate snapshot write (also used internally by the periodic
// loop). Exposed for tests and for end-of-run flushes.
void WriteTelemetrySnapshot(const std::string& path);

}  // namespace obs
}  // namespace monoclass

#endif  // MONOCLASS_OBS_TELEMETRY_H_
