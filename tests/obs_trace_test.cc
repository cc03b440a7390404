// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for spans (obs/trace.h) as seen through the flight recorder's
// whole-run capture (obs/flight.h): balanced begin/end streams,
// per-thread monotone timestamps, a span open across the capture's stop
// captured whole, Chrome-trace JSON validity, spans still open when a
// bench writes its trace reported, and the end-to-end acceptance
// scenario -- a multi_d active run whose span tree
// covers chain decomposition -> per-chain 1D sampling -> passive
// min-cut, with probe counters exactly matching the oracle.

#include "obs/trace.h"

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "active/multi_d.h"
#include "active/oracle.h"
#include "bench/bench_util.h"
#include "data/synthetic.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/concurrency.h"
#include "util/json.h"

namespace monoclass {
namespace obs {
namespace {

// Restarts the capture from an empty recorder for each test.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    ResetFlightRecorder();
    StartFlightCapture();
  }
  void TearDown() override {
    StopFlightCapture();
    StopFlightRecording();
    ResetFlightRecorder();
    SetEnabled(false);
  }
};

// The captured span events, in snapshot order.
struct SpanEvent {
  std::string name;
  bool begin = false;
  uint32_t tid = 0;
  double ts_us = 0.0;
};

std::vector<SpanEvent> CapturedSpans() {
  const FlightSnapshot snapshot = SnapshotFlightCapture();
  std::vector<SpanEvent> spans;
  for (const FlightEvent& event : snapshot.events) {
    if (event.type != FlightEventType::kSpanBegin &&
        event.type != FlightEventType::kSpanEnd) {
      continue;
    }
    spans.push_back(SpanEvent{snapshot.names[event.name_id],
                              event.type == FlightEventType::kSpanBegin,
                              event.tid, event.ts_us});
  }
  return spans;
}

TEST_F(TraceTest, SpansEmitBalancedEvents) {
  {
    Span outer("outer");
    { Span inner("inner"); }
    { Span inner("inner"); }
  }
  const std::vector<SpanEvent> events = CapturedSpans();
  ASSERT_EQ(events.size(), 6u);
  // Record order: B outer, B inner, E inner, B inner, E inner, E outer.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_TRUE(events[0].begin);
  EXPECT_EQ(events[5].name, "outer");
  EXPECT_FALSE(events[5].begin);
  int depth = 0;
  for (const SpanEvent& event : events) {
    depth += event.begin ? 1 : -1;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(FlightCaptureDropped(), 0u);
}

TEST_F(TraceTest, TimestampsMonotonePerThread) {
  for (int i = 0; i < 50; ++i) {
    Span span("tick");
  }
  std::map<uint32_t, double> last;
  for (const SpanEvent& event : CapturedSpans()) {
    const auto it = last.find(event.tid);
    if (it != last.end()) {
      EXPECT_GE(event.ts_us, it->second);
    }
    last[event.tid] = event.ts_us;
  }
  EXPECT_EQ(last.size(), 1u);
}

TEST_F(TraceTest, SpansInactiveWhenTracingStopped) {
  StopFlightCapture();
  { Span span("ignored"); }
  EXPECT_TRUE(CapturedSpans().empty());
}

TEST_F(TraceTest, SpanOpenAcrossStopStillCloses) {
  {
    Span span("crossing");
    StopFlightCapture();
  }  // the end must still be captured for the already-captured begin
  const std::vector<SpanEvent> events = CapturedSpans();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "crossing");
  EXPECT_TRUE(events[0].begin);
  EXPECT_EQ(events[1].name, "crossing");
  EXPECT_FALSE(events[1].begin);
}

TEST_F(TraceTest, ChromeTraceCountsSpansStillOpen) {
  // A span still open when the capture is written is closed at its
  // thread's last event, with a made-up duration; the writer reports it
  // so a bench that leaves a span open can fail.
  std::ostringstream out;
  {
    Span open("left_open");
    { Span done("done"); }
    EXPECT_EQ(WriteFlightChromeTrace(SnapshotFlightCapture(), out), 1u);
  }
  EXPECT_EQ(WriteFlightChromeTrace(SnapshotFlightCapture(), out), 0u);
}

TEST_F(TraceTest, BenchFinishFailsWhileASpanIsOpen) {
  // BenchReport::Finish() writes TRACE_<id>.json from the capture and
  // returns false when a span is still open, so a bench that calls it
  // too early fails its run instead of shipping a stretched span.
  ASSERT_EQ(setenv("MONOCLASS_BENCH_OUT", ::testing::TempDir().c_str(), 1),
            0);
  bench::BenchReport& report = bench::BenchReport::Global();
  report.Begin("OBS_TRACE_TEST_OPEN", "obs_trace_test", "span left open");
  {
    Span open("bench/left_open");
    EXPECT_FALSE(report.Finish());
  }
  EXPECT_FALSE(report.Finish());  // idempotent, verdict included
  report.Begin("OBS_TRACE_TEST_CLOSED", "obs_trace_test", "spans closed");
  { Span done("bench/closed"); }
  EXPECT_TRUE(report.Finish());
  unsetenv("MONOCLASS_BENCH_OUT");
}

TEST_F(TraceTest, ChromeTraceIsValidJson) {
  {
    Span outer("phase one");
    Span inner("with \"quotes\"");
  }
  std::ostringstream out;
  WriteFlightChromeTrace(SnapshotFlightCapture(), out);
  std::string error;
  const auto doc = JsonValue::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->AsArray().size(), 2u);
  for (const JsonValue& event : events->AsArray()) {
    EXPECT_TRUE(event.Find("name")->is_string());
    EXPECT_TRUE(event.Find("ts")->is_number());
    EXPECT_TRUE(event.Find("dur")->is_number());
    EXPECT_TRUE(event.Find("pid")->is_number());
    EXPECT_TRUE(event.Find("tid")->is_number());
    EXPECT_EQ(event.Find("ph")->AsString(), "X");
  }
  // Outer first: equal-start ties sort the longer span ahead.
  EXPECT_EQ(events->AsArray()[0].Find("name")->AsString(), "phase one");
  EXPECT_EQ(events->AsArray()[1].Find("name")->AsString(),
            "with \"quotes\"");
  EXPECT_EQ(doc->Find("displayTimeUnit")->AsString(), "ms");
}

TEST_F(TraceTest, MultiThreadedSpansKeepPerThreadBalance) {
  // Four concurrent emitters via the library's own pool (raw
  // standard-library threads are banned outside util/concurrency;
  // mc_lint rule MC006).
  ParallelForEach(4, ParallelOptions{.threads = 4}, [](size_t) {
    for (int i = 0; i < 100; ++i) {
      Span outer("mt/outer");
      Span inner("mt/inner");
    }
  });
  std::map<uint32_t, int> depth;
  std::map<uint32_t, double> last;
  size_t begins = 0;
  for (const SpanEvent& event : CapturedSpans()) {
    depth[event.tid] += event.begin ? 1 : -1;
    EXPECT_GE(depth[event.tid], 0);
    const auto it = last.find(event.tid);
    if (it != last.end()) {
      EXPECT_GE(event.ts_us, it->second);
    }
    last[event.tid] = event.ts_us;
    if (event.begin) ++begins;
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
  EXPECT_EQ(begins, 4u * 100u * 2u);
}

// --- acceptance scenario ------------------------------------------------
// A real multi_d run with obs fully on: the trace must contain the
// documented span hierarchy and the probe counters must match the
// oracle's own accounting exactly.
TEST_F(TraceTest, EndToEndActiveRunTracesPipelineAndCountsProbes) {
  MetricsRegistry::Global().ResetAll();
  PlantedOptions options;
  options.num_points = 300;
  options.dimension = 2;
  options.noise_flips = 6;
  options.seed = 11;
  const PlantedInstance instance = GeneratePlanted(options);
  InMemoryOracle oracle(instance.data);

  const uint64_t calls_before =
      MetricsRegistry::Global().Snapshot().CounterValue("oracle.probe_calls");
  const uint64_t distinct_before = MetricsRegistry::Global()
                                       .Snapshot()
                                       .CounterValue("oracle.probes_distinct");

  ActiveSolveOptions solve_options;
  solve_options.sampling = ActiveSamplingParams::Practical(1.0, 0.1);
  const ActiveSolveResult result =
      SolveActiveMultiD(instance.data.points(), oracle, solve_options);

  // Probe counters match the oracle exactly.
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("oracle.probe_calls") - calls_before,
            oracle.NumProbeCalls());
  EXPECT_EQ(snapshot.CounterValue("oracle.probes_distinct") - distinct_before,
            oracle.NumProbes());
  EXPECT_EQ(result.probes, oracle.NumProbes());

  // The span tree covers the documented pipeline phases, balanced on
  // every thread.
  std::map<std::string, int> begins;
  std::map<uint32_t, int> depth;
  for (const SpanEvent& event : CapturedSpans()) {
    if (event.begin) ++begins[event.name];
    depth[event.tid] += event.begin ? 1 : -1;
    EXPECT_GE(depth[event.tid], 0);
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
  EXPECT_EQ(begins["active/solve"], 1);
  EXPECT_EQ(begins["active/chain_decomposition"], 1);
  EXPECT_EQ(begins["par.chain"], static_cast<int>(result.num_chains));
  EXPECT_EQ(begins["passive/solve"], 1);
  EXPECT_GE(begins["passive/maxflow"], 1);

  // The probe budget was filled in against the Theorem 2 bound.
  EXPECT_EQ(result.probe_budget.measured_probes, oracle.NumProbes());
  EXPECT_EQ(result.probe_budget.n, instance.data.size());
  EXPECT_EQ(result.probe_budget.w, result.num_chains);
  EXPECT_GT(result.probe_budget.theorem2_bound, 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace monoclass
