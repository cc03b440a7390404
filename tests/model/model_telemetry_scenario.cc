// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// mc_model scenario for the telemetry publisher (src/obs/telemetry.cc):
// StartTelemetry spawns an mc::thread running TelemetryLoop, which
// writes a snapshot and then blocks in a timed condition-variable wait;
// StopTelemetry races the stop-flag write and notification against the
// loop's wait/timeout/rewrite cycle, then joins the writer thread.
//
// The timed wait makes the schedule tree infinite (every timeout is
// another loop iteration), so this scenario is inherently BOUNDED:
// max_executions caps the sweep and the harness reports "bounded"
// instead of "schedule tree exhausted". The checked properties are
// that no schedule deadlocks, races, or leaves telemetry active after
// StopTelemetry returns.

#include <cstdlib>
#include <string>

#include "model/scheduler.h"
#include "obs/telemetry.h"
#include "scenario_harness.h"

namespace monoclass {
namespace {

std::string g_snapshot_path;

void TelemetryPublishVsStopBody() {
  model::Check(obs::StartTelemetry(g_snapshot_path, /*interval_ms=*/1),
               "StartTelemetry refused to start");
  model::Check(obs::TelemetryActive(), "telemetry not active after start");
  obs::StopTelemetry();
  model::Check(!obs::TelemetryActive(), "telemetry still active after stop");
}

}  // namespace
}  // namespace monoclass

int main(int argc, char** argv) {
  using monoclass::model_test::ScenarioSpec;

  const char* tmpdir = std::getenv("TMPDIR");
  monoclass::g_snapshot_path =
      std::string(tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir : "/tmp") +
      "/mc_model_telemetry_snapshot.json";

  std::map<std::string, ScenarioSpec> specs;
  ScenarioSpec good;
  // Bounded by construction (see header comment); each execution also
  // writes real snapshot files, so keep the default modest.
  good.options.max_executions = 1000;
  good.options.max_steps = 4000;
  good.body = monoclass::TelemetryPublishVsStopBody;
  specs["good"] = good;
  return monoclass::model_test::RunScenarioMain(argc, argv, specs);
}
