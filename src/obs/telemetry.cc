// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "obs/telemetry.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/concurrency.h"
#include "util/sync_model.h"

namespace monoclass {
namespace obs {
namespace {

struct TelemetryState {
  Mutex mu;
  CondVar cv;
  bool stop MC_GUARDED_BY(mu) = false;
  std::string path;
  int interval_ms = 0;
  // Runs the snapshot loop; joined by StopTelemetry.
  mc::thread writer;
};

TelemetryState* g_telemetry = nullptr;

// Writes `contents` to path via a .tmp sibling + rename, so a polling
// reader never sees a partial file.
void WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // unwritable dump path: drop the snapshot, not the run
    out << contents;
  }
  std::rename(tmp.c_str(), path.c_str());
}

void TelemetryLoop(TelemetryState* state) {
  for (;;) {
    WriteTelemetrySnapshot(state->path);
    MutexLock lock(state->mu);
    if (state->stop) return;
    state->cv.WaitFor(state->mu, static_cast<double>(state->interval_ms));
    if (state->stop) return;
  }
}

}  // namespace

void WriteTelemetrySnapshot(const std::string& path) {
  std::ostringstream exposition;
  exposition << "# monoclass exposition v1\n";
  exposition << "# ts_us " << NowMicros() << "\n";
  MetricsRegistry::Global().ExposeText(exposition);
  WriteFileAtomic(path, exposition.str());
  if (FlightRecordingActive()) {
    std::ostringstream dump;
    WriteFlightDump(SnapshotFlight(), dump);
    WriteFileAtomic(path + ".flight", dump.str());
  }
}

bool StartTelemetry(const std::string& path, int interval_ms) {
  if (g_telemetry != nullptr) return false;
  MC_CHECK_GE(interval_ms, 1);
  auto* state = new TelemetryState();
  state->path = path;
  state->interval_ms = interval_ms;
  g_telemetry = state;
  state->writer = mc::thread([state] { TelemetryLoop(state); });
  return true;
}

void StopTelemetry() {
  TelemetryState* state = g_telemetry;
  if (state == nullptr) return;
  {
    MutexLock lock(state->mu);
    state->stop = true;
  }
  state->cv.NotifyAll();
  state->writer.join();
  WriteTelemetrySnapshot(state->path);
  g_telemetry = nullptr;
  delete state;
}

bool TelemetryActive() { return g_telemetry != nullptr; }

}  // namespace obs
}  // namespace monoclass
