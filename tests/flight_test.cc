// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Flight recorder (obs/flight.h): ring wraparound keeps the newest
// events, concurrent writers stay decodable (the per-slot seqlock is
// what tsan exercises here), exited threads hand their rings on, the
// whole-run capture keeps every event up to its cap, the binary dump
// round-trips, and the Chrome-trace conversion produces a
// validator-clean event stream.

#include "obs/flight.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "obs/trace.h"
#include "util/concurrency.h"
#include "util/json.h"
#include "util/sync_model.h"

namespace monoclass {
namespace obs {
namespace {

class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StopFlightRecording();
    ResetFlightRecorder();
  }
  void TearDown() override {
    StopFlightCapture();
    StopFlightRecording();
    ResetFlightRecorder();
    SetEnabled(false);
  }
};

// Events recorded under `name_id`, in snapshot order.
std::vector<FlightEvent> EventsNamed(const FlightSnapshot& snapshot,
                                     uint32_t name_id) {
  std::vector<FlightEvent> out;
  for (const FlightEvent& event : snapshot.events) {
    if (event.name_id == name_id) out.push_back(event);
  }
  return out;
}

TEST_F(FlightTest, RecordsNothingWhileInactive) {
  const uint32_t name = InternFlightName("flight_test.inactive");
  RecordFlightEvent(FlightEventType::kCounter, name, 1.0);
  const FlightSnapshot snapshot = SnapshotFlight();
  EXPECT_TRUE(EventsNamed(snapshot, name).empty());
}

TEST_F(FlightTest, RecordsTypedEventsInTimeOrder) {
  StartFlightRecording();
  const uint32_t begin = InternFlightName("flight_test.span");
  const uint32_t counter = InternFlightName("flight_test.count");
  RecordFlightEvent(FlightEventType::kSpanBegin, begin, 0.0);
  RecordFlightEvent(FlightEventType::kCounter, counter, 7.0);
  RecordFlightEvent(FlightEventType::kSpanEnd, begin, 12.5);
  StopFlightRecording();

  const FlightSnapshot snapshot = SnapshotFlight();
  EXPECT_EQ(snapshot.torn, 0u);
  ASSERT_GE(snapshot.names.size(), 2u);
  const auto spans = EventsNamed(snapshot, begin);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].type, FlightEventType::kSpanBegin);
  EXPECT_EQ(spans[1].type, FlightEventType::kSpanEnd);
  EXPECT_DOUBLE_EQ(spans[1].value, 12.5);
  EXPECT_LE(spans[0].ts_us, spans[1].ts_us);
  const auto counts = EventsNamed(snapshot, counter);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_DOUBLE_EQ(counts[0].value, 7.0);
  EXPECT_EQ(snapshot.names[counts[0].name_id], "flight_test.count");
}

TEST_F(FlightTest, WraparoundKeepsTheNewestEvents) {
  StartFlightRecording();
  const uint32_t name = InternFlightName("flight_test.wrap");
  constexpr size_t kExtra = 100;
  constexpr size_t kTotal = internal::kFlightRingSlots + kExtra;
  for (size_t i = 0; i < kTotal; ++i) {
    RecordFlightEvent(FlightEventType::kCounter, name,
                      static_cast<double>(i));
  }
  StopFlightRecording();

  const FlightSnapshot snapshot = SnapshotFlight();
  const auto events = EventsNamed(snapshot, name);
  ASSERT_EQ(events.size(), internal::kFlightRingSlots);
  EXPECT_EQ(snapshot.overwritten, kExtra);
  EXPECT_EQ(snapshot.torn, 0u);
  // The survivors must be exactly the newest kFlightRingSlots values,
  // still in write order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(kExtra + i));
  }
}

TEST_F(FlightTest, EightConcurrentWritersStayDecodable) {
  StartFlightRecording();
  constexpr size_t kWriters = 8;
  constexpr size_t kEventsPerWriter = 20000;  // > ring: forces wraparound
  std::vector<uint32_t> names;
  for (size_t w = 0; w < kWriters; ++w) {
    names.push_back(
        InternFlightName(("flight_test.writer" + std::to_string(w)).c_str()));
  }
  // Rendezvous before writing so each task lands on its own worker
  // thread (own ring): a worker that ran two tasks would overwrite the
  // first task's events entirely.
  mc::atomic<size_t> arrived{0};
  {
    ThreadPool pool(kWriters);
    for (size_t w = 0; w < kWriters; ++w) {
      pool.Submit([w, &names, &arrived] {
        arrived.fetch_add(1);
        while (arrived.load() < kWriters) {
        }
        for (size_t i = 0; i < kEventsPerWriter; ++i) {
          RecordFlightEvent(FlightEventType::kCounter, names[w],
                            static_cast<double>(i));
        }
      });
    }
    // Snapshot while writers are running: consistency, not completeness,
    // is the contract -- every surfaced event must still decode.
    for (int probe = 0; probe < 5; ++probe) {
      const FlightSnapshot live = SnapshotFlight();
      for (const FlightEvent& event : live.events) {
        ASSERT_LT(event.name_id, live.names.size());
        ASSERT_LE(static_cast<int>(event.type),
                  static_cast<int>(FlightEventType::kPoolTask));
      }
    }
  }  // pool drains + joins
  StopFlightRecording();

  const FlightSnapshot snapshot = SnapshotFlight();
  EXPECT_EQ(snapshot.torn, 0u);  // writers quiesced: no torn slots
  std::set<uint32_t> tids;
  for (size_t w = 0; w < kWriters; ++w) {
    const auto events = EventsNamed(snapshot, names[w]);
    ASSERT_FALSE(events.empty()) << "writer " << w;
    // Each writer's surviving tail is contiguous and in order.
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_DOUBLE_EQ(events[i].value, events[i - 1].value + 1.0);
    }
    EXPECT_DOUBLE_EQ(events.back().value,
                     static_cast<double>(kEventsPerWriter - 1));
    tids.insert(events.front().tid);
  }
  EXPECT_EQ(tids.size(), kWriters);
}

TEST_F(FlightTest, ExitedThreadsHandTheirRingsOn) {
  // 64 threads one after another, each recording one event and exiting:
  // each takes over the ring its predecessor freed (and resets it), so
  // the ring count -- and the memory -- stays at the peak number of live
  // recording threads instead of growing by a ring per thread.
  StartFlightRecording();
  const uint32_t name = InternFlightName("flight_test.churn");
  for (int i = 0; i < 64; ++i) {
    ThreadPool pool(1);  // joined at scope exit, which frees the ring
    pool.Submit([name, i] {
      RecordFlightEvent(FlightEventType::kCounter, name,
                        static_cast<double>(i));
    });
  }
  StopFlightRecording();

  const auto events = EventsNamed(SnapshotFlight(), name);
  // The last thread's event stays visible until its ring is reused.
  ASSERT_GE(events.size(), 1u);
  EXPECT_LE(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events.back().value, 63.0);
}

TEST_F(FlightTest, CaptureKeepsTheWholeRunInRecordOrder) {
  StartFlightCapture();
  const uint32_t name = InternFlightName("flight_test.capture");
  constexpr size_t kTotal = 3 * internal::kFlightRingSlots;
  for (size_t i = 0; i < kTotal; ++i) {
    RecordFlightEvent(FlightEventType::kCounter, name,
                      static_cast<double>(i));
  }
  StopFlightCapture();
  StopFlightRecording();

  const auto captured = EventsNamed(SnapshotFlightCapture(), name);
  ASSERT_EQ(captured.size(), kTotal);
  for (size_t i = 0; i < captured.size(); ++i) {
    EXPECT_DOUBLE_EQ(captured[i].value, static_cast<double>(i));
  }
  EXPECT_EQ(FlightCaptureDropped(), 0u);

  // The ring, recording the same stream, keeps only the newest slots.
  const FlightSnapshot ring = SnapshotFlight();
  EXPECT_EQ(EventsNamed(ring, name).size(), internal::kFlightRingSlots);
  EXPECT_EQ(ring.overwritten, 2 * internal::kFlightRingSlots);
}

TEST_F(FlightTest, CaptureCountsEventsPastItsCap) {
  StartFlightCapture();
  const uint32_t name = InternFlightName("flight_test.capture_cap");
  constexpr size_t kExtra = 5;
  for (size_t i = 0; i < internal::kMaxCapturedEvents + kExtra; ++i) {
    RecordFlightEvent(FlightEventType::kCounter, name,
                      static_cast<double>(i));
  }
  StopFlightCapture();
  StopFlightRecording();

  EXPECT_EQ(FlightCaptureDropped(), kExtra);
  {
    // The capture holds the first kMaxCapturedEvents; later ones drop.
    const FlightSnapshot capture = SnapshotFlightCapture();
    ASSERT_EQ(capture.events.size(), internal::kMaxCapturedEvents);
    EXPECT_DOUBLE_EQ(capture.events.back().value,
                     static_cast<double>(internal::kMaxCapturedEvents - 1));
  }
  ResetFlightRecorder();
  EXPECT_EQ(FlightCaptureDropped(), 0u);
  EXPECT_TRUE(SnapshotFlightCapture().events.empty());
}

TEST_F(FlightTest, SpentSpanBudgetKeepsEndsOfCapturedSpans) {
  StartFlightCapture();
  const uint32_t filler = InternFlightName("flight_test.budget_filler");
  const uint32_t counter = InternFlightName("flight_test.budget_counter");
  {
    Span open("flight_test/open_at_cap");
    for (size_t i = 1; i < internal::kMaxCapturedEvents; ++i) {
      RecordFlightEvent(FlightEventType::kSpanBegin, filler, 0.0);
    }
    // The span budget is spent: a new span is refused whole...
    { Span refused("flight_test/refused"); }
    // ...while counters draw on a budget of their own...
    RecordFlightEvent(FlightEventType::kCounter, counter, 1.0);
    StopFlightCapture();
  }  // ...and the span open across the cap and the stop keeps its end.
  StopFlightRecording();

  EXPECT_EQ(FlightCaptureDropped(), 1u);
  const FlightSnapshot capture = SnapshotFlightCapture();
  ASSERT_EQ(capture.events.size(), internal::kMaxCapturedEvents + 2);
  const FlightEvent& first = capture.events.front();
  const FlightEvent& last = capture.events.back();
  EXPECT_EQ(capture.names[first.name_id], "flight_test/open_at_cap");
  EXPECT_EQ(first.type, FlightEventType::kSpanBegin);
  EXPECT_EQ(capture.names[last.name_id], "flight_test/open_at_cap");
  EXPECT_EQ(last.type, FlightEventType::kSpanEnd);
  EXPECT_EQ(EventsNamed(capture, counter).size(), 1u);
  const uint32_t refused = InternFlightName("flight_test/refused");
  EXPECT_TRUE(EventsNamed(capture, refused).empty());
}

TEST_F(FlightTest, CapturedSpansPairIntoCompleteEventsPerThread) {
  StartFlightCapture();
  constexpr size_t kThreads = 2;
  constexpr int kSpans = 50;
  // Rendezvous so each task runs on its own worker thread.
  mc::atomic<size_t> arrived{0};
  {
    ThreadPool pool(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      pool.Submit([&arrived] {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) {
        }
        for (int i = 0; i < kSpans; ++i) {
          Span outer("flight_test/pair_outer");
          Span inner("flight_test/pair_inner");
        }
      });
    }
  }
  StopFlightCapture();
  StopFlightRecording();

  std::stringstream trace;
  WriteFlightChromeTrace(SnapshotFlightCapture(), trace);
  std::string error;
  const auto root = JsonValue::Parse(trace.str(), &error);
  ASSERT_TRUE(root.has_value()) << error;
  // tid -> (start, dur) of each outer span, in trace (start) order.
  std::map<double, std::vector<std::pair<double, double>>> outer_by_tid;
  std::map<double, int> inner_by_tid;
  for (const JsonValue& event : root->Find("traceEvents")->AsArray()) {
    if (event.Find("ph")->AsString() != "X") continue;  // pool instants
    const double tid = event.Find("tid")->AsNumber();
    const std::string& name = event.Find("name")->AsString();
    if (name == "flight_test/pair_outer") {
      outer_by_tid[tid].emplace_back(event.Find("ts")->AsNumber(),
                                     event.Find("dur")->AsNumber());
    } else if (name == "flight_test/pair_inner") {
      ++inner_by_tid[tid];
    }
  }
  ASSERT_EQ(outer_by_tid.size(), kThreads);
  for (const auto& [tid, outers] : outer_by_tid) {
    ASSERT_EQ(outers.size(), static_cast<size_t>(kSpans)) << "tid " << tid;
    EXPECT_EQ(inner_by_tid[tid], kSpans) << "tid " << tid;
    // Really paired, not closed at the thread's last event: one
    // thread's loop iterations never overlap.
    for (size_t i = 1; i < outers.size(); ++i) {
      EXPECT_LE(outers[i - 1].first + outers[i - 1].second, outers[i].first)
          << "tid " << tid << " span " << i;
    }
  }
}

TEST_F(FlightTest, BinaryDumpRoundTrips) {
  StartFlightRecording();
  const uint32_t span = InternFlightName("flight_test.dump_span");
  const uint32_t counter = InternFlightName("flight_test.dump_count");
  RecordFlightEvent(FlightEventType::kSpanBegin, span, 0.0);
  RecordFlightEvent(FlightEventType::kCounter, counter, 3.0);
  RecordFlightEvent(FlightEventType::kSpanEnd, span, 9.0);
  StopFlightRecording();
  const FlightSnapshot original = SnapshotFlight();

  std::stringstream stream;
  WriteFlightDump(original, stream);
  FlightSnapshot decoded;
  std::string error;
  ASSERT_TRUE(ReadFlightDump(stream, &decoded, &error)) << error;
  EXPECT_EQ(decoded.names, original.names);
  EXPECT_EQ(decoded.overwritten, original.overwritten);
  EXPECT_EQ(decoded.torn, original.torn);
  ASSERT_EQ(decoded.events.size(), original.events.size());
  for (size_t i = 0; i < decoded.events.size(); ++i) {
    EXPECT_EQ(decoded.events[i].tid, original.events[i].tid);
    EXPECT_EQ(decoded.events[i].name_id, original.events[i].name_id);
    EXPECT_EQ(decoded.events[i].type, original.events[i].type);
    EXPECT_DOUBLE_EQ(decoded.events[i].ts_us, original.events[i].ts_us);
    EXPECT_DOUBLE_EQ(decoded.events[i].value, original.events[i].value);
  }
}

TEST_F(FlightTest, MalformedDumpsAreRejected) {
  FlightSnapshot decoded;
  std::string error;
  {
    std::stringstream bad_magic("NOTFLIGHTDATA");
    EXPECT_FALSE(ReadFlightDump(bad_magic, &decoded, &error));
    EXPECT_FALSE(error.empty());
  }
  {
    // Valid prefix, then truncation mid-stream.
    StartFlightRecording();
    RecordFlightEvent(FlightEventType::kCounter,
                      InternFlightName("flight_test.trunc"), 1.0);
    StopFlightRecording();
    std::stringstream stream;
    WriteFlightDump(SnapshotFlight(), stream);
    const std::string whole = stream.str();
    std::stringstream truncated(whole.substr(0, whole.size() / 2));
    EXPECT_FALSE(ReadFlightDump(truncated, &decoded, &error));
    EXPECT_FALSE(error.empty());
  }
}

TEST_F(FlightTest, ChromeTraceIsWellFormed) {
  StartFlightRecording();
  const uint32_t outer = InternFlightName("flight_test.outer");
  const uint32_t inner = InternFlightName("flight_test.inner");
  const uint32_t count = InternFlightName("flight_test.trace_count");
  const uint32_t orphan = InternFlightName("flight_test.orphan");
  RecordFlightEvent(FlightEventType::kSpanBegin, outer, 0.0);
  RecordFlightEvent(FlightEventType::kSpanBegin, inner, 0.0);
  RecordFlightEvent(FlightEventType::kCounter, count, 2.0);
  RecordFlightEvent(FlightEventType::kSpanEnd, inner, 1.0);
  RecordFlightEvent(FlightEventType::kSpanEnd, outer, 2.0);
  // An end whose begin was lost to wraparound must be dropped, and a
  // begin with no end must be synthetically closed.
  RecordFlightEvent(FlightEventType::kSpanEnd, orphan, 1.0);
  RecordFlightEvent(FlightEventType::kSpanBegin, orphan, 0.0);
  StopFlightRecording();

  std::stringstream trace;
  WriteFlightChromeTrace(SnapshotFlight(), trace);
  std::string error;
  const auto root = JsonValue::Parse(trace.str(), &error);
  ASSERT_TRUE(root.has_value()) << error;
  const JsonValue* events = root->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  size_t complete = 0, counters = 0;
  double last_ts = 0.0;
  std::set<std::string> names;
  for (const JsonValue& event : events->AsArray()) {
    ASSERT_TRUE(event.is_object());
    const std::string ph = event.Find("ph")->AsString();
    const double ts = event.Find("ts")->AsNumber();
    names.insert(event.Find("name")->AsString());
    EXPECT_GE(ts, last_ts);  // single-tid stream: globally sorted
    last_ts = ts;
    if (ph == "X") {
      ++complete;
      EXPECT_GE(event.Find("dur")->AsNumber(), 0.0);
    } else if (ph == "C") {
      ++counters;
      EXPECT_DOUBLE_EQ(event.Find("args")->Find("value")->AsNumber(), 2.0);
    }
  }
  // outer + inner + the synthetically closed orphan begin = 3 X events;
  // the orphan *end* contributes nothing.
  EXPECT_EQ(complete, 3u);
  EXPECT_EQ(counters, 1u);
  EXPECT_TRUE(names.count("flight_test.outer"));
  EXPECT_TRUE(names.count("flight_test.inner"));
  EXPECT_TRUE(names.count("flight_test.orphan"));
}

TEST_F(FlightTest, SpansAndLatencyScopesFeedTheRecorder) {
  SetEnabled(true);
  StartFlightRecording();
  {
    MC_SPAN("flight_test/macro_span");
    MC_LATENCY("mc.lat.flight_test_scope");
  }
  MC_COUNTER("flight_test.macro_counter", 5);
  StopFlightRecording();

  const FlightSnapshot snapshot = SnapshotFlight();
  std::set<std::string> seen;
  int span_pairs = 0;
  for (const FlightEvent& event : snapshot.events) {
    ASSERT_LT(event.name_id, snapshot.names.size());
    const std::string& name = snapshot.names[event.name_id];
    seen.insert(name);
    if (name == "flight_test/macro_span" &&
        event.type == FlightEventType::kSpanEnd) {
      ++span_pairs;
    }
    if (name == "flight_test.macro_counter") {
      EXPECT_EQ(event.type, FlightEventType::kCounter);
      EXPECT_DOUBLE_EQ(event.value, 5.0);
    }
  }
  EXPECT_TRUE(seen.count("flight_test/macro_span"));
  EXPECT_TRUE(seen.count("mc.lat.flight_test_scope"));
  EXPECT_TRUE(seen.count("flight_test.macro_counter"));
  EXPECT_EQ(span_pairs, 1);
}

}  // namespace
}  // namespace obs
}  // namespace monoclass
