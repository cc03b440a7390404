// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Per-thread lock-free flight recorder: the obs layer's one event sink.
// Spans (MC_SPAN, SpanTimer), latency scopes (MC_LATENCY), counter deltas
// (MC_COUNTER) and pool task starts all record through
// RecordFlightEvent(), which feeds two windows onto the same stream:
//
//   * the live ring -- each thread owns a fixed-size ring of timestamped
//     events written with relaxed atomics through a per-slot seqlock.
//     Writers never block and never allocate after their ring exists;
//     the newest kFlightRingSlots events per thread are snapshotable at
//     any moment without stopping them (SnapshotFlight: the telemetry
//     publisher, monoclassd and mc_top read this window).
//   * the whole-run capture -- while it is on (MONOCLASS_TRACE=1 or
//     StartFlightCapture()), every event is also appended to its
//     thread's capture log in record order. Span events and the rest
//     (counter deltas, pool tasks) each have a budget of
//     kMaxCapturedEvents across all threads; a spent budget refuses new
//     begins, counters and pool tasks, which are counted, not kept. The
//     end of a span whose begin was captured is always kept, even past
//     the budget or after the capture stops, so every captured begin
//     gets its end. SnapshotFlightCapture() returns the log once writers
//     are quiet; bench runs write it as TRACE_<id>.json.
//
// Snapshot consistency: a reader validates each slot's sequence word
// before and after copying the payload; a slot caught mid-write is
// counted in FlightSnapshot::torn and discarded rather than surfaced
// half-updated. Events overwritten by ring wraparound are counted in
// FlightSnapshot::overwritten.
//
// Ring lifetime: a ring outlives its thread. An exiting thread marks its
// ring free, and the next thread that needs a ring takes a free one and
// resets it, so the ring count follows the peak number of live
// recording threads. A departed thread's events stay in snapshots until
// its ring is reused; its captured events stay until the next
// ResetFlightRecorder().
//
// Event names are interned into a process-wide table (mutex-guarded, but
// off the record path: MC_LATENCY / Span cache the id per site/object),
// so an event is 4 small atomic stores. The binary dump written by
// WriteFlightDump() round-trips through ReadFlightDump() and converts to
// Chrome-trace JSON ("X" complete events, counters as "C", pool tasks as
// instants) via WriteFlightChromeTrace() / `mc_report --flight`.

#ifndef MONOCLASS_OBS_FLIGHT_H_
#define MONOCLASS_OBS_FLIGHT_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/sync_model.h"

namespace monoclass {
namespace obs {

enum class FlightEventType : uint8_t {
  kSpanBegin = 0,  // value unused
  kSpanEnd = 1,    // value = elapsed microseconds of the span
  kCounter = 2,    // value = delta added
  kPoolTask = 3,   // value = queue wait in microseconds
};

// One decoded event. `name_id` indexes FlightSnapshot::names.
struct FlightEvent {
  uint32_t tid = 0;
  uint32_t name_id = 0;
  FlightEventType type = FlightEventType::kSpanBegin;
  double ts_us = 0.0;
  double value = 0.0;
};

struct FlightSnapshot {
  std::vector<std::string> names;   // indexed by FlightEvent::name_id
  std::vector<FlightEvent> events;  // see SnapshotFlight*() for the order
  uint64_t overwritten = 0;         // events lost to ring wraparound
  uint64_t torn = 0;                // slots discarded mid-write
};

namespace internal {
extern mc::atomic<bool> g_flight_active;
// Slots per thread ring; must be a power of two. At 32 bytes per slot a
// ring is 128 KiB. Model builds shrink the ring so each execution's
// per-thread ring is cheap to allocate and destroy (the mc_model
// scenarios run thousands of executions, and every slot atomic's
// destructor is a model hook).
#if MC_MODEL_COMPILED
constexpr std::size_t kFlightRingSlots = 16;
#else
constexpr std::size_t kFlightRingSlots = 4096;
#endif

// Budget of each whole-run capture stream across all threads: span
// events (begins and ends) and the rest (counter deltas, pool tasks), so
// a counter-heavy run cannot crowd spans out. At 32 bytes per event the
// log stays near 64 MiB; only the ends of spans open when the span
// budget ran out go past it.
constexpr std::size_t kMaxCapturedEvents = std::size_t{1} << 20;

// Frees every registered ring and empties the registry. ONLY for tests
// that spawn short-lived recording threads in a loop (the mc_model
// scenarios run thousands of executions and want a fresh ring per
// execution). Every thread that ever recorded must have exited first --
// a live thread's cached ring pointer dangles after this call.
void DropAllRingsForTesting();
}  // namespace internal

// Ring recording control (--telemetry-dump and monoclassd turn it on).
// Cheap when off: one relaxed load per would-be event.
void StartFlightRecording();
void StopFlightRecording();
inline bool FlightRecordingActive() {
  return internal::g_flight_active.load(mc::memory_order_relaxed);
}

// Whole-run capture control (MONOCLASS_TRACE=1 turns it on from the
// environment via obs::InitFromEnv). The capture is fed from the record
// path, so StartFlightCapture() also starts ring recording;
// StopFlightCapture() stops only the capture. A span still open when the
// capture stops still records its end into the capture.
void StartFlightCapture();
void StopFlightCapture();
bool FlightCaptureActive();

// Empties every ring and the capture and zeroes the overwrite and drop
// accounting (interned names persist; ids remain valid). Callers must
// quiesce writers first.
void ResetFlightRecorder();

// Stable id for `name` in the process-wide name table. Safe to call from
// any thread; intended to be cached per call site, not per event.
uint32_t InternFlightName(const char* name);

// Appends one event to the calling thread's ring while recording is on,
// and to its capture log while the capture is on and the event's budget
// has room. For a kSpanEnd, `begin_captured` says whether the span's
// begin entered the capture: the end then enters it too (and the ring,
// even if recording has stopped), and otherwise stays out of it.
// Returns whether the event entered the capture; a span passes that on
// to its end. The ring write is lock-free and allocation-free after the
// thread's first call; the capture append grows a vector.
bool RecordFlightEvent(FlightEventType type, uint32_t name_id, double value,
                       bool begin_captured = false);

// Copies every ring without stopping writers, sorted by (ts_us, tid);
// see the header comment for the consistency contract.
FlightSnapshot SnapshotFlight();

// Every event the capture holds since the last ResetFlightRecorder(),
// each thread's events in record order. `overwritten` and `torn` are
// always 0. Callers must quiesce writers first (the capture logs are
// plain vectors).
FlightSnapshot SnapshotFlightCapture();

// Begins, counter deltas and pool tasks recorded while the capture was
// on that it refused because their budget was spent.
uint64_t FlightCaptureDropped();

// Binary dump (versioned magic + name table + packed events) and its
// inverse. ReadFlightDump returns false and fills `error` on a
// malformed stream.
void WriteFlightDump(const FlightSnapshot& snapshot, std::ostream& out);
bool ReadFlightDump(std::istream& in, FlightSnapshot* snapshot,
                    std::string* error);

// Chrome-trace JSON (chrome://tracing, Perfetto): begin/end pairs become
// "X" complete events, counters "C", pool tasks instant "i". Unpaired
// begins -- spans still open when the snapshot was taken -- are closed
// at the last timestamp seen on their thread; unpaired ends (their begin
// was overwritten) are dropped. Works on either window: a ring snapshot
// or the whole-run capture. Returns the number of unpaired begins, which
// a capture taken after every span ended never has.
std::size_t WriteFlightChromeTrace(const FlightSnapshot& snapshot,
                                   std::ostream& out);

}  // namespace obs
}  // namespace monoclass

#endif  // MONOCLASS_OBS_FLIGHT_H_
