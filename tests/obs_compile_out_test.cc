// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Proves the MC_* macros are fully inert when compiled out: this TU
// defines MONOCLASS_OBS_DISABLE before any include, which turns off
// MC_OBS_COMPILED exactly like building with -DMONOCLASS_OBS=OFF does
// globally, so the expansion below is the compiled-out one. Macro
// arguments must not be evaluated (no side effects) and nothing may
// reach the metrics registry or the flight recorder even when the
// runtime switches are on.

#define MONOCLASS_OBS_DISABLE 1

#include "obs/obs.h"

#include <gtest/gtest.h>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace monoclass {
namespace obs {
namespace {

static_assert(MC_OBS_COMPILED == 0,
              "MONOCLASS_OBS_DISABLE must compile the obs macros out");

TEST(ObsCompileOutTest, MacroArgumentsNotEvaluated) {
  SetEnabled(true);
  int evaluations = 0;
  auto bump = [&evaluations] { return ++evaluations; };
  MC_COUNTER("compile_out.counter", bump());
  MC_GAUGE("compile_out.gauge", bump());
  MC_HISTOGRAM("compile_out.histogram", bump());
  (void)bump;
  EXPECT_EQ(evaluations, 0);
  SetEnabled(false);
}

TEST(ObsCompileOutTest, NothingReachesTheRegistry) {
  SetEnabled(true);
  MC_COUNTER("compile_out.registry_probe", 1);
  MC_LATENCY("mc.lat.compile_out_probe");
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.Find("compile_out.registry_probe"), nullptr);
  EXPECT_EQ(snapshot.Find("mc.lat.compile_out_probe"), nullptr);
  SetEnabled(false);
}

TEST(ObsCompileOutTest, LatencyScopeRecordsNothing) {
  // MC_LATENCY compiled out must not create a scope object, register a
  // histogram, or feed the flight recorder.
  SetEnabled(true);
  StartFlightRecording();
  {
    MC_LATENCY("mc.lat.compile_out_scope");
  }
  StopFlightRecording();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.Find("mc.lat.compile_out_scope"), nullptr);
  const FlightSnapshot flight = SnapshotFlight();
  for (const FlightEvent& event : flight.events) {
    ASSERT_LT(event.name_id, flight.names.size());
    EXPECT_NE(flight.names[event.name_id], "mc.lat.compile_out_scope");
  }
  ResetFlightRecorder();
  SetEnabled(false);
}

TEST(ObsCompileOutTest, SpansRecordNothing) {
  // MC_SPAN compiled out must reach neither the rings nor the capture,
  // even with both on.
  SetEnabled(true);
  StartFlightCapture();
  {
    MC_SPAN("compile_out.span");
    MC_SPAN("compile_out.nested");
  }
  StopFlightCapture();
  StopFlightRecording();
  EXPECT_TRUE(SnapshotFlightCapture().events.empty());
  const FlightSnapshot flight = SnapshotFlight();
  for (const FlightEvent& event : flight.events) {
    ASSERT_LT(event.name_id, flight.names.size());
    EXPECT_NE(flight.names[event.name_id], "compile_out.span");
    EXPECT_NE(flight.names[event.name_id], "compile_out.nested");
  }
  ResetFlightRecorder();
  SetEnabled(false);
}

TEST(ObsCompileOutTest, MacrosAreSingleStatements) {
  // The compiled-out forms must still parse as one statement so they are
  // safe inside unbraced if/else (the do-while(0) contract).
  if (true)
    MC_COUNTER("compile_out.if", 1);
  else
    MC_GAUGE("compile_out.else", 2);
  SUCCEED();
}

}  // namespace
}  // namespace obs
}  // namespace monoclass
