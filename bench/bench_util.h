// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Shared scaffolding for the experiment harnesses in bench/. Each binary
// reproduces one experiment from DESIGN.md / EXPERIMENTS.md and prints
// paper-style tables to stdout.
//
// Alongside the human-readable tables, every bench run emits one
// machine-readable report, BENCH_<id>.json, into $MONOCLASS_BENCH_OUT
// (or the working directory): per-phase wall time, per-phase counter
// deltas, a final metrics snapshot and a run manifest (git SHA, build
// type, obs state). With MONOCLASS_TRACE=1 the run's whole flight-event
// stream is captured and written next to it as the Chrome-trace file
// TRACE_<id>.json. Pretty-print or schema-validate either file with
// tools/mc_report.

#ifndef MONOCLASS_BENCH_BENCH_UTIL_H_
#define MONOCLASS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "io/serialization.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tools/flag_parse.h"
#include "util/json.h"
#include "util/table.h"

namespace monoclass {
namespace bench {

// Version of the BENCH_*.json layout; bump when fields change shape.
// v2: manifest gained the required "threads" field (parallel runs).
// v3: metrics snapshots gained the "latencies" section (LatencyHistogram
//     quantiles: p50/p90/p99/p999 in microseconds).
inline constexpr int kBenchSchemaVersion = 3;

// Collects phase timings and metric deltas over one bench run and writes
// BENCH_<id>.json when the process exits (or on explicit Finish()).
// PrintHeader()/PrintSection() below feed it, so existing bench binaries
// get the JSON output without extra calls.
class BenchReport {
 public:
  static BenchReport& Global() {
    static BenchReport report;
    return report;
  }

  // Starts the report. Also applies the MONOCLASS_OBS / MONOCLASS_TRACE
  // environment switches so bench binaries need no explicit obs setup.
  void Begin(const std::string& id, const std::string& artifact,
             const std::string& claim) {
    obs::InitFromEnv();
    manifest_ = MakeRunManifest(id, artifact, claim);
    started_ = true;
    finished_ = false;
    open_spans_ = 0;
    phases_.clear();
  }

  // Closes the current phase (if any) and opens a new one.
  void BeginPhase(const std::string& name) {
    CloseCurrentPhase();
    current_ = Phase{};
    current_.name = name;
    current_.start_us = obs::NowMicros();
    current_.begin = obs::MetricsRegistry::Global().Snapshot();
    in_phase_ = true;
  }

  // Attaches a free-form parameter to the manifest (seed, n, solver...).
  void AddParam(const std::string& key, const std::string& value) {
    manifest_.params.emplace_back(key, value);
  }

  // Records the worker-thread count this run's parallel phases used
  // (manifest "threads"; defaults to the machine's resolved count).
  void SetThreads(size_t threads) { manifest_.threads = threads; }

  // Writes BENCH_<id>.json (and TRACE_<id>.json when the flight capture
  // is on). Idempotent; called automatically at process exit. Returns
  // false when a span was still open as the trace was written -- the
  // trace closes it at its thread's last event, so its duration is made
  // up -- so a bench that calls Finish() itself can fail its run.
  bool Finish() {
    if (!started_ || finished_) return open_spans_ == 0;
    finished_ = true;
    CloseCurrentPhase();
    // Flush the live-telemetry writer first (no-op when --telemetry-dump
    // was not given) so its final exposition/flight snapshot reflects the
    // completed run.
    obs::StopTelemetry();
    const std::string base = OutputDir();
    {
      std::ofstream out(base + "/BENCH_" + manifest_.experiment + ".json");
      if (out) WriteJson(out);
    }
    if (obs::FlightCaptureActive()) {
      const std::string trace = "TRACE_" + manifest_.experiment + ".json";
      std::ofstream out(base + "/" + trace);
      if (out) {
        open_spans_ =
            obs::WriteFlightChromeTrace(obs::SnapshotFlightCapture(), out);
      }
      if (open_spans_ > 0) {
        std::cerr << "WARNING: " << open_spans_ << " span(s) still open when "
                  << trace << " was written\n";
      }
    }
    return open_spans_ == 0;
  }

  void WriteJson(std::ostream& out) {
    out << "{\"schema_version\":" << kBenchSchemaVersion << ",\"manifest\":";
    WriteRunManifestJson(manifest_, out);
    out << ",\"phases\":[";
    for (size_t i = 0; i < phases_.size(); ++i) {
      const Phase& phase = phases_[i];
      if (i > 0) out << ",";
      out << "{\"name\":\"" << JsonEscape(phase.name)
          << "\",\"wall_ms\":" << JsonNumber(phase.wall_ms)
          << ",\"counters\":{";
      bool first = true;
      for (const obs::MetricSample& sample : phase.end.samples) {
        if (sample.kind != obs::MetricSample::Kind::kCounter) continue;
        const uint64_t before = phase.begin.CounterValue(sample.name);
        const auto after = static_cast<uint64_t>(sample.value);
        if (after <= before) continue;  // only counters that moved
        if (!first) out << ",";
        first = false;
        out << "\"" << JsonEscape(sample.name) << "\":" << (after - before);
      }
      out << "}}";
    }
    out << "],\"metrics\":";
    obs::MetricsRegistry::Global().WriteJson(out);
    // Keeps its schema-v3 name; counts the events the capture refused.
    out << ",\"dropped_spans\":" << obs::FlightCaptureDropped() << "}\n";
  }

 private:
  struct Phase {
    std::string name;
    double start_us = 0.0;
    double wall_ms = 0.0;
    obs::MetricsSnapshot begin;
    obs::MetricsSnapshot end;
  };

  BenchReport() = default;
  ~BenchReport() { Finish(); }

  static std::string OutputDir() {
    const char* dir = std::getenv("MONOCLASS_BENCH_OUT");
    return (dir != nullptr && *dir != '\0') ? dir : ".";
  }

  void CloseCurrentPhase() {
    if (!in_phase_) return;
    in_phase_ = false;
    current_.wall_ms = (obs::NowMicros() - current_.start_us) * 1e-3;
    current_.end = obs::MetricsRegistry::Global().Snapshot();
    phases_.push_back(std::move(current_));
  }

  RunManifest manifest_;
  std::vector<Phase> phases_;
  Phase current_;
  bool started_ = false;
  bool in_phase_ = false;
  bool finished_ = false;
  size_t open_spans_ = 0;  // spans the trace had to close at Finish()
};

// Parses the telemetry flags every bench harness shares:
//
//   --telemetry-dump <path>        enable obs + flight recording and
//                                  write periodic exposition / flight
//                                  snapshots to <path> / <path>.flight
//                                  (see obs/telemetry.h and tools/mc_top)
//   --telemetry-interval-ms <n>    snapshot period, default 250
//
// A missing or malformed value exits 2 (tools/flag_parse.h). Consumed
// flags are stripped from argv in place; the returned value is the new
// argc, so a bench with its own flags parses the remainder:
//
//   int main(int argc, char** argv) {
//     argc = bench::ParseBenchArgs(argc, argv);
//     ...bench-specific flags...
//   }
inline int ParseBenchArgs(int argc, char** argv) {
  const std::string program =
      std::filesystem::path(argv[0]).filename().string();
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", program.c_str(),
                   argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  std::string telemetry_path;
  int interval_ms = 250;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry-dump") == 0) {
      telemetry_path = value(i);
    } else if (std::strcmp(argv[i], "--telemetry-interval-ms") == 0) {
      interval_ms = tools::ParseFlagValue<int>(
          program.c_str(), "--telemetry-interval-ms", value(i), 1);
    } else {
      argv[out++] = argv[i];
    }
  }
  if (!telemetry_path.empty()) {
    obs::SetEnabled(true);
    obs::StartFlightRecording();
    obs::StartTelemetry(telemetry_path, interval_ms);
  }
  return out;
}

// Prints the experiment banner: id, paper artifact, claim under test.
// Also opens the machine-readable report for this run.
inline void PrintHeader(const std::string& id, const std::string& artifact,
                        const std::string& claim) {
  BenchReport::Global().Begin(id, artifact, claim);
  std::cout << "=== Experiment " << id << " -- " << artifact << " ===\n"
            << "Claim: " << claim << "\n\n";
}

// Starts a named section; sections double as report phases.
inline void PrintSection(const std::string& title) {
  BenchReport::Global().BeginPhase(title);
  std::cout << "\n--- " << title << " ---\n";
}

inline void PrintTable(const TextTable& table) {
  table.Print(std::cout);
  std::cout << std::flush;
}

}  // namespace bench
}  // namespace monoclass

#endif  // MONOCLASS_BENCH_BENCH_UTIL_H_
