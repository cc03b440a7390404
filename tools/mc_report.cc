// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Pretty-printer and schema validator for the machine-readable outputs
// the repo emits: BENCH_*.json (bench reports) and TRACE_*.json (Chrome
// traces).
//
// Usage:
//   mc_report [--validate] file.json...
//   mc_report --compare baseline.json current.json [--ignore prefix]...
//   mc_report --flight dump.flight
//
// Without --validate, prints a human-readable summary of each file.
// With --validate, checks each file against the expected schema and
// exits non-zero on the first violation (CI runs this over the bench
// smoke artifacts). The file kind is sniffed from its top-level keys:
//   bench report  -- has "schema_version" and "phases"
//   chrome trace  -- has "traceEvents"
//
// With --compare, diffs two bench reports of the same experiment as a
// deterministic regression gate: both inputs must first pass full bench
// schema validation (a baseline missing a manifest field is a hard
// error, not a silent vacuous pass), then per-phase counter deltas and
// the final counter/gauge snapshot must match exactly, while keys
// under an --ignore prefix (machine-dependent pool metrics, say) are
// skipped and wall-clock timings are reported but never gate. Exits
// non-zero on any drift, listing every drifted key. CI uses this to pin
// the network edge/vertex counts of the checked-in BENCH_E*.json
// baselines.
//
// With --flight, decodes a binary flight-recorder dump (the
// "<path>.flight" file written by --telemetry-dump runs, see
// obs/flight.h) and writes the equivalent Chrome-trace JSON to stdout;
// a decode summary (events, threads, wraparound losses) goes to stderr.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "util/json.h"

namespace monoclass {
namespace {

struct Options {
  bool validate = false;
  bool compare = false;
  bool flight = false;
  std::vector<std::string> files;
  // --compare gating rules. Prefixes match the *metric* name (the
  // counter/gauge key, e.g. "mc.pool.tasks"), not the phase name,
  // so one --ignore silences a family across every phase.
  std::vector<std::string> ignore_prefixes;
};

// Collects human-readable schema complaints for one file.
class Validator {
 public:
  void Fail(const std::string& message) { problems_.push_back(message); }
  bool ok() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }

  // Checks that object `value` has a member `key` of type `type`;
  // returns the member or nullptr (after recording the problem).
  const JsonValue* Require(const JsonValue& value, const std::string& key,
                           JsonValue::Type type) {
    const JsonValue* member = value.Find(key);
    if (member == nullptr) {
      Fail("missing key \"" + key + "\"");
      return nullptr;
    }
    if (member->type() != type) {
      Fail("key \"" + key + "\" has wrong type");
      return nullptr;
    }
    return member;
  }

 private:
  std::vector<std::string> problems_;
};

void ValidateManifest(const JsonValue& manifest, Validator& v) {
  v.Require(manifest, "experiment", JsonValue::Type::kString);
  v.Require(manifest, "artifact", JsonValue::Type::kString);
  v.Require(manifest, "claim", JsonValue::Type::kString);
  v.Require(manifest, "git_sha", JsonValue::Type::kString);
  v.Require(manifest, "build_type", JsonValue::Type::kString);
  v.Require(manifest, "obs_enabled", JsonValue::Type::kBool);
  // Schema v2: every run records its worker-thread count.
  v.Require(manifest, "threads", JsonValue::Type::kNumber);
  v.Require(manifest, "params", JsonValue::Type::kObject);
}

void ValidateBenchReport(const JsonValue& root, Validator& v) {
  const JsonValue* schema =
      v.Require(root, "schema_version", JsonValue::Type::kNumber);
  const JsonValue* manifest =
      v.Require(root, "manifest", JsonValue::Type::kObject);
  if (manifest != nullptr) ValidateManifest(*manifest, v);
  const JsonValue* metrics =
      v.Require(root, "metrics", JsonValue::Type::kObject);
  if (metrics != nullptr) {
    v.Require(*metrics, "counters", JsonValue::Type::kObject);
    v.Require(*metrics, "gauges", JsonValue::Type::kObject);
    v.Require(*metrics, "histograms", JsonValue::Type::kObject);
    // Schema v3: the snapshot carries latency quantiles.
    if (schema != nullptr && schema->AsNumber() >= 3) {
      v.Require(*metrics, "latencies", JsonValue::Type::kObject);
    }
  }
  v.Require(root, "dropped_spans", JsonValue::Type::kNumber);
  const JsonValue* phases =
      v.Require(root, "phases", JsonValue::Type::kArray);
  if (phases == nullptr) return;
  for (size_t i = 0; i < phases->AsArray().size(); ++i) {
    const JsonValue& phase = phases->AsArray()[i];
    if (!phase.is_object()) {
      v.Fail("phase " + std::to_string(i) + " is not an object");
      continue;
    }
    v.Require(phase, "name", JsonValue::Type::kString);
    const JsonValue* wall =
        v.Require(phase, "wall_ms", JsonValue::Type::kNumber);
    if (wall != nullptr && wall->AsNumber() < 0) {
      v.Fail("phase " + std::to_string(i) + " has negative wall_ms");
    }
    v.Require(phase, "counters", JsonValue::Type::kObject);
  }
}

void ValidateChromeTrace(const JsonValue& root, Validator& v) {
  const JsonValue* events =
      v.Require(root, "traceEvents", JsonValue::Type::kArray);
  if (events == nullptr) return;
  // Monotone timestamps per thread, over the shapes the flight recorder
  // emits (obs/flight.h): "X" (complete) events with a non-negative
  // "dur", "C" (counter) and "i" (instant) events.
  std::map<uint64_t, double> last_ts; // tid -> last timestamp seen
  for (size_t i = 0; i < events->AsArray().size(); ++i) {
    const JsonValue& event = events->AsArray()[i];
    if (!event.is_object()) {
      v.Fail("event " + std::to_string(i) + " is not an object");
      continue;
    }
    const JsonValue* ph = v.Require(event, "ph", JsonValue::Type::kString);
    const JsonValue* ts = v.Require(event, "ts", JsonValue::Type::kNumber);
    const JsonValue* tid = v.Require(event, "tid", JsonValue::Type::kNumber);
    v.Require(event, "name", JsonValue::Type::kString);
    v.Require(event, "pid", JsonValue::Type::kNumber);
    if (ph == nullptr || ts == nullptr || tid == nullptr) continue;
    const auto thread = static_cast<uint64_t>(tid->AsNumber());
    if (ph->AsString() == "X") {
      const JsonValue* dur =
          v.Require(event, "dur", JsonValue::Type::kNumber);
      if (dur != nullptr && dur->AsNumber() < 0) {
        v.Fail("event " + std::to_string(i) + ": X with negative dur");
      }
    } else if (ph->AsString() == "C" || ph->AsString() == "i") {
      // Duration-free; nothing further to check.
    } else {
      v.Fail("event " + std::to_string(i) + ": unexpected ph \"" +
             ph->AsString() + "\"");
    }
    const auto [it, inserted] = last_ts.emplace(thread, ts->AsNumber());
    if (!inserted && ts->AsNumber() + 1e-9 < it->second) {
      v.Fail("event " + std::to_string(i) +
             ": timestamp not monotone within thread");
    }
    it->second = ts->AsNumber();
  }
}

enum class FileKind { kBench, kTrace, kUnknown };

FileKind SniffKind(const JsonValue& root) {
  if (!root.is_object()) return FileKind::kUnknown;
  if (root.Find("schema_version") != nullptr && root.Find("phases") != nullptr)
    return FileKind::kBench;
  if (root.Find("traceEvents") != nullptr) return FileKind::kTrace;
  return FileKind::kUnknown;
}

void PrintBenchReport(const JsonValue& root) {
  const JsonValue* manifest = root.Find("manifest");
  if (manifest != nullptr) {
    auto field = [&](const char* key) -> std::string {
      const JsonValue* value = manifest->Find(key);
      return value != nullptr && value->is_string() ? value->AsString()
                                                    : std::string("?");
    };
    std::cout << "experiment " << field("experiment") << " -- "
              << field("artifact") << "\n  claim: " << field("claim")
              << "\n  build: " << field("git_sha") << " ("
              << field("build_type") << ")";
    const JsonValue* obs = manifest->Find("obs_enabled");
    if (obs != nullptr && obs->is_bool()) {
      std::cout << ", obs " << (obs->AsBool() ? "on" : "off");
    }
    const JsonValue* threads = manifest->Find("threads");
    if (threads != nullptr && threads->is_number()) {
      std::cout << ", threads " << static_cast<int>(threads->AsNumber());
    }
    std::cout << "\n";
  }
  const JsonValue* phases = root.Find("phases");
  if (phases != nullptr && phases->is_array()) {
    std::cout << "  phases:\n";
    for (const JsonValue& phase : phases->AsArray()) {
      if (!phase.is_object()) continue;
      const JsonValue* name = phase.Find("name");
      const JsonValue* wall = phase.Find("wall_ms");
      std::printf("    %-55s %10.3f ms\n",
                  name != nullptr && name->is_string()
                      ? name->AsString().c_str()
                      : "?",
                  wall != nullptr && wall->is_number() ? wall->AsNumber()
                                                       : -1.0);
      const JsonValue* counters = phase.Find("counters");
      if (counters != nullptr && counters->is_object()) {
        for (const auto& [key, value] : counters->AsObject()) {
          std::printf("      %-53s %12.0f\n", key.c_str(),
                      value.is_number() ? value.AsNumber() : -1.0);
        }
      }
    }
  }
  const JsonValue* dropped = root.Find("dropped_spans");
  if (dropped != nullptr && dropped->is_number() &&
      dropped->AsNumber() > 0) {
    std::cout << "  WARNING: " << dropped->AsNumber()
              << " events dropped (trace capture full)\n";
  }
}

void PrintChromeTrace(const JsonValue& root) {
  const JsonValue* events = root.Find("traceEvents");
  const size_t count =
      events != nullptr && events->is_array() ? events->AsArray().size() : 0;
  std::cout << "chrome trace: " << count
            << " events (load at https://ui.perfetto.dev)\n";
  // Top-level span histogram by name.
  std::vector<std::pair<std::string, size_t>> by_name;
  if (events != nullptr && events->is_array()) {
    for (const JsonValue& event : events->AsArray()) {
      const JsonValue* ph = event.Find("ph");
      const JsonValue* name = event.Find("name");
      if (ph == nullptr || name == nullptr || !ph->is_string() ||
          !name->is_string() || ph->AsString() != "X") {
        continue;
      }
      bool found = false;
      for (auto& entry : by_name) {
        if (entry.first == name->AsString()) {
          ++entry.second;
          found = true;
          break;
        }
      }
      if (!found) by_name.emplace_back(name->AsString(), 1);
    }
  }
  for (const auto& [name, n] : by_name) {
    std::printf("  %-55s x%zu\n", name.c_str(), n);
  }
}

// ---------------------------------------------------------------------------
// --compare: deterministic bench-regression gate.

// One gate-able value extracted from a bench report. `metric` is the
// bare counter/gauge name (what --ignore matches against);
// `where` says which phase or snapshot section it came from.
struct GatedValue {
  std::string where;   // "phase <name>" or "snapshot counters" / "gauges"
  std::string metric;  // e.g. "mc.net.infinite_edges"
  double value = 0.0;
};

// Flattens the deterministic parts of a bench report: per-phase counter
// deltas plus the final metrics counters/gauges snapshot. wall_ms and
// histograms are intentionally absent -- timings never gate.
std::map<std::string, GatedValue> FlattenBenchReport(const JsonValue& root) {
  std::map<std::string, GatedValue> out;
  const JsonValue* phases = root.Find("phases");
  if (phases != nullptr && phases->is_array()) {
    for (const JsonValue& phase : phases->AsArray()) {
      if (!phase.is_object()) continue;
      const JsonValue* name = phase.Find("name");
      const JsonValue* counters = phase.Find("counters");
      if (name == nullptr || !name->is_string() || counters == nullptr ||
          !counters->is_object()) {
        continue;
      }
      for (const auto& [key, value] : counters->AsObject()) {
        if (!value.is_number()) continue;
        out["phase " + name->AsString() + " / " + key] = GatedValue{
            "phase " + name->AsString(), key, value.AsNumber()};
      }
    }
  }
  const JsonValue* metrics = root.Find("metrics");
  if (metrics != nullptr && metrics->is_object()) {
    for (const char* section : {"counters", "gauges"}) {
      const JsonValue* group = metrics->Find(section);
      if (group == nullptr || !group->is_object()) continue;
      for (const auto& [key, value] : group->AsObject()) {
        if (!value.is_number()) continue;
        out[std::string("snapshot ") + section + " / " + key] = GatedValue{
            std::string("snapshot ") + section, key, value.AsNumber()};
      }
    }
  }
  return out;
}

bool MatchesPrefix(const std::string& metric,
                   const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (metric.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::optional<JsonValue> LoadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << path << ": cannot open\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  auto root = JsonValue::Parse(buffer.str(), &error);
  if (!root.has_value()) {
    std::cerr << path << ": invalid JSON: " << error << "\n";
  }
  return root;
}

int CompareBenchReports(const Options& options) {
  const std::string& baseline_path = options.files[0];
  const std::string& current_path = options.files[1];
  const auto baseline = LoadJson(baseline_path);
  const auto current = LoadJson(current_path);
  if (!baseline.has_value() || !current.has_value()) return 1;
  // Both inputs must be schema-valid bench reports before any diffing: a
  // malformed baseline (say, a manifest missing "threads") used to slip
  // through and let the gate pass vacuously. Now it is a hard error.
  bool inputs_ok = true;
  for (const auto& [path, root] :
       {std::pair<const std::string&, const JsonValue&>{baseline_path,
                                                        *baseline},
        std::pair<const std::string&, const JsonValue&>{current_path,
                                                        *current}}) {
    if (SniffKind(root) != FileKind::kBench) {
      std::cerr << path << ": not a bench report\n";
      return 1;
    }
    Validator v;
    ValidateBenchReport(root, v);
    if (!v.ok()) {
      for (const std::string& problem : v.problems()) {
        std::cerr << path << ": " << problem << "\n";
      }
      inputs_ok = false;
    }
  }
  if (!inputs_ok) {
    std::cerr << "mc_report --compare: FAIL (invalid input report)\n";
    return 1;
  }

  size_t drifts = 0;
  auto experiment = [](const JsonValue& root) -> std::string {
    const JsonValue* manifest = root.Find("manifest");
    const JsonValue* id =
        manifest != nullptr ? manifest->Find("experiment") : nullptr;
    return id != nullptr && id->is_string() ? id->AsString() : "?";
  };
  if (experiment(*baseline) != experiment(*current)) {
    std::cerr << "DRIFT experiment id: baseline " << experiment(*baseline)
              << " vs current " << experiment(*current) << "\n";
    ++drifts;
  }

  const auto base_values = FlattenBenchReport(*baseline);
  const auto cur_values = FlattenBenchReport(*current);
  size_t compared = 0;
  size_t ignored = 0;
  for (const auto& [key, base] : base_values) {
    if (MatchesPrefix(base.metric, options.ignore_prefixes)) {
      ++ignored;
      continue;
    }
    const auto it = cur_values.find(key);
    if (it == cur_values.end()) {
      std::cerr << "DRIFT " << key << ": present in baseline ("
                << base.value << ") but missing from current run\n";
      ++drifts;
      continue;
    }
    ++compared;
    if (it->second.value != base.value) {
      std::cerr << "DRIFT " << key << ": baseline " << base.value
                << " vs current " << it->second.value
                << " (exact match required)\n";
      ++drifts;
    }
  }
  for (const auto& [key, cur] : cur_values) {
    if (MatchesPrefix(cur.metric, options.ignore_prefixes)) continue;
    if (base_values.find(key) == base_values.end()) {
      std::cerr << "DRIFT " << key << ": new in current run (" << cur.value
                << "), absent from baseline\n";
      ++drifts;
    }
  }

  // Timings: informational only. Print side-by-side so a perf regression
  // is visible in the CI log without ever failing the gate.
  auto wall_by_phase = [](const JsonValue& root) {
    std::map<std::string, double> out;
    const JsonValue* phases = root.Find("phases");
    if (phases == nullptr || !phases->is_array()) return out;
    for (const JsonValue& phase : phases->AsArray()) {
      const JsonValue* name = phase.Find("name");
      const JsonValue* wall = phase.Find("wall_ms");
      if (name != nullptr && name->is_string() && wall != nullptr &&
          wall->is_number()) {
        out[name->AsString()] = wall->AsNumber();
      }
    }
    return out;
  };
  const auto base_wall = wall_by_phase(*baseline);
  const auto cur_wall = wall_by_phase(*current);
  std::cout << "timings (informational, never gate):\n";
  for (const auto& [name, base_ms] : base_wall) {
    const auto it = cur_wall.find(name);
    if (it == cur_wall.end()) continue;
    std::printf("  %-55s %10.3f -> %10.3f ms\n", name.c_str(), base_ms,
                it->second);
  }

  std::cout << "compared " << compared << " value(s), ignored " << ignored
            << ", " << drifts << " drift(s)\n";
  if (drifts > 0) {
    std::cerr << "mc_report --compare: FAIL (" << baseline_path << " vs "
              << current_path << ")\n";
    return 1;
  }
  std::cout << "mc_report --compare: OK (" << current_path
            << " matches baseline " << baseline_path << ")\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --flight: binary flight-recorder dump -> Chrome trace on stdout.

int ConvertFlightDump(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << path << ": cannot open\n";
    return 1;
  }
  obs::FlightSnapshot snapshot;
  std::string error;
  if (!obs::ReadFlightDump(in, &snapshot, &error)) {
    std::cerr << path << ": " << error << "\n";
    return 1;
  }
  std::set<uint32_t> threads;
  for (const obs::FlightEvent& event : snapshot.events) {
    threads.insert(event.tid);
  }
  std::cerr << path << ": " << snapshot.events.size() << " event(s), "
            << threads.size() << " thread(s), " << snapshot.names.size()
            << " name(s), " << snapshot.overwritten
            << " overwritten, " << snapshot.torn << " torn\n";
  obs::WriteFlightChromeTrace(snapshot, std::cout);
  return 0;
}

int ProcessFile(const std::string& path, bool validate) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << path << ": cannot open\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  const auto root = JsonValue::Parse(buffer.str(), &error);
  if (!root.has_value()) {
    std::cerr << path << ": invalid JSON: " << error << "\n";
    return 1;
  }
  const FileKind kind = SniffKind(*root);
  if (validate) {
    Validator v;
    switch (kind) {
      case FileKind::kBench:
        ValidateBenchReport(*root, v);
        break;
      case FileKind::kTrace:
        ValidateChromeTrace(*root, v);
        break;
      case FileKind::kUnknown:
        v.Fail("unrecognized file kind (no bench/trace keys)");
        break;
    }
    if (!v.ok()) {
      for (const std::string& problem : v.problems()) {
        std::cerr << path << ": " << problem << "\n";
      }
      return 1;
    }
    std::cout << path << ": OK\n";
    return 0;
  }
  std::cout << "== " << path << " ==\n";
  switch (kind) {
    case FileKind::kBench:
      PrintBenchReport(*root);
      break;
    case FileKind::kTrace:
      PrintChromeTrace(*root);
      break;
    case FileKind::kUnknown:
      std::cout << "  (unrecognized JSON; valid but not a monoclass "
                   "report)\n";
      break;
  }
  return 0;
}

constexpr char kUsage[] =
    "usage: mc_report [--validate] file.json...\n"
    "       mc_report --compare baseline.json current.json "
    "[--ignore prefix]...\n"
    "       mc_report --flight dump.flight   (Chrome trace to stdout)\n";

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--validate") {
      options.validate = true;
    } else if (arg == "--compare") {
      options.compare = true;
    } else if (arg == "--flight") {
      options.flight = true;
    } else if (arg == "--ignore") {
      if (i + 1 >= argc) {
        std::cerr << "--ignore needs a prefix argument\n" << kUsage;
        return 2;
      }
      options.ignore_prefixes.emplace_back(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag: " << arg << "\n" << kUsage;
      return 2;
    } else {
      options.files.push_back(arg);
    }
  }
  if (options.flight) {
    if (options.validate || options.compare || options.files.size() != 1) {
      std::cerr << "--flight takes exactly one binary dump file\n" << kUsage;
      return 2;
    }
    return ConvertFlightDump(options.files[0]);
  }
  if (options.compare) {
    if (options.validate || options.files.size() != 2) {
      std::cerr << "--compare takes exactly a baseline and a current "
                   "report\n" << kUsage;
      return 2;
    }
    return CompareBenchReports(options);
  }
  if (!options.ignore_prefixes.empty()) {
    std::cerr << "--ignore only applies to --compare\n" << kUsage;
    return 2;
  }
  if (options.files.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  int status = 0;
  for (const std::string& file : options.files) {
    status |= ProcessFile(file, options.validate);
  }
  return status;
}

}  // namespace
}  // namespace monoclass

int main(int argc, char** argv) {
  return monoclass::Main(argc, argv);
}
