// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace mcbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Mirrors "end_to_end" in BENCHMARK.json. Every workload reports each
// of these; benchmark/README.md says what the unit operation is per
// workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"op_ms.p50", "ms"},
    {"op_ms.p90", "ms"},
    {"throughput_per_s", "1/s"},
    {"labels_per_point", "ratio"},
    {"error_ratio", "ratio"},
};

// Mirrors "per_layer" in BENCHMARK.json. A workload that never enters a
// layer reports 0 for that layer's metrics.
constexpr MetricSpec kPerLayer[] = {
    {"env.calib_ms", "ms"},
    {"env.calib_drift_pct", "%"},
    {"trace_overhead_pct", "%"},
    {"passive.solve_s.p50", "s"},
    {"passive.contending_s.p50", "s"},
    {"passive.build_s.p50", "s"},
    {"graph.maxflow_s.p50", "s"},
    {"graph.cut_s.p50", "s"},
    {"passive.assign_s.p50", "s"},
    {"passive.finalize_s.p50", "s"},
    {"passive.unattributed_s.p50", "s"},
    {"passive.contending_points", "count"},
    {"passive.chains", "count"},
    {"passive.relays", "count"},
    {"passive.network_edges", "count"},
    {"passive.generators", "count"},
    {"active.decompose_s.p50", "s"},
    {"active.sigma_solve_s.p50", "s"},
    {"active.sigma_finalize_s.p50", "s"},
    {"active.chains_s.p50", "s"},
    {"active.chain_ms.p50", "ms"},
    {"active.chain_ms.p99", "ms"},
    {"active.sigma_points", "count"},
    {"active.probe_calls", "count"},
    {"active.levels", "count"},
    {"inc.insert_ms.p50", "ms"},
    {"inc.insert_ms.p99", "ms"},
    {"inc.erase_ms.p50", "ms"},
    {"inc.erase_ms.p99", "ms"},
    {"inc.relabel_ms.p50", "ms"},
    {"inc.relabel_ms.p99", "ms"},
    {"inc.augment_ms.p50", "ms"},
    {"inc.augment_ms.p99", "ms"},
    {"inc.extract_s.p50", "s"},
    {"inc.enter_contending", "1/delta"},
    {"inc.leave_contending", "1/delta"},
    {"inc.retarget_edges", "1/delta"},
    {"inc.drained_paths", "1/delta"},
    {"inc.augment_calls", "1/delta"},
    {"inc.rebuilds", "1/delta"},
    {"inc.noop_deltas", "count"},
    {"serve.open_ms.p50", "ms"},
    {"serve.open_ms.p99", "ms"},
    {"serve.step_ms.p50", "ms"},
    {"serve.step_ms.p99", "ms"},
    {"serve.passive_ms.p50", "ms"},
    {"serve.passive_ms.p99", "ms"},
    {"serve.session_ms.p50", "ms"},
    {"serve.session_ms.p99", "ms"},
    {"serve.conn_wait_ms.p50", "ms"},
    {"serve.gen_late_ms.p99", "ms"},
    {"net.session_step_ms.p50", "ms"},
    {"net.session_step_ms.p99", "ms"},
    {"net.codec_us.p50", "us"},
    {"srv.handler_ms.p50", "ms"},
    {"srv.handler_ms.p99", "ms"},
    {"srv.pool_wait_ms.p50", "ms"},
    {"srv.pool_wait_ms.p99", "ms"},
    {"srv.pool_run_ms.p50", "ms"},
    {"srv.pool_run_ms.p99", "ms"},
    {"srv.replays_per_session", "ratio"},
    {"srv.bytes_per_request", "B"},
};

template <size_t N>
const MetricSpec* FindSpec(const MetricSpec (&catalog)[N],
                           const std::string& name) {
  for (const MetricSpec& spec : catalog) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Span storage.

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t request_id;
  uint32_t thread;
  double start_us;
  double end_us;
};

// Bounds trace memory on long serve runs; spans past it are counted.
constexpr size_t kMaxSpans = size_t{1} << 21;

struct SpanStore {
  WallTimer clock;
  monoclass::mc::atomic<bool> enabled{false};
  monoclass::mc::atomic<uint64_t> next_id{1};
  monoclass::mc::atomic<uint32_t> next_thread{1};
  monoclass::Mutex mu;
  std::vector<SpanRecord> records MC_GUARDED_BY(mu);
  uint64_t dropped MC_GUARDED_BY(mu) = 0;
};

SpanStore& Store() {
  static SpanStore* store = new SpanStore();
  return *store;
}

thread_local uint64_t t_current_span = 0;
thread_local uint32_t t_thread = 0;

uint32_t ThreadNumber() {
  if (t_thread == 0) t_thread = Store().next_thread.fetch_add(1);
  return t_thread;
}

void AppendJsonString(std::ostream& out, const std::string& text) {
  out << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

volatile uint64_t g_calibration_sink = 0;

}  // namespace

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed, stream).Next();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double total = 0.0;
  for (const double v : values_) total += v;
  return total;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

void BatchRate::Add(double ops, double seconds) {
  ops_ += ops;
  seconds_ += seconds;
  if (ops_ >= batch_ops_ && seconds_ > 0.0) {
    rates_.Add(ops_ / seconds_);
    ops_ = 0.0;
    seconds_ = 0.0;
  }
}

double BatchRate::Median() const {
  if (rates_.empty()) return seconds_ > 0.0 ? ops_ / seconds_ : 0.0;
  return rates_.Median();
}

void Report::Set(const std::string& name, double value) {
  MC_CHECK(FindSpec(kEndToEnd, name) != nullptr ||
           FindSpec(kPerLayer, name) != nullptr)
      << "metric " << name << " is not in the catalog";
  values_[name] = value;
}

void Report::Gate(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::AddOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

int Report::Print() {
  Gate(failed_ == 0, "ops_failed = " + std::to_string(failed_));
  Gate(attempted_ > 0, "no operation was attempted");
  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const MetricSpec& spec, double value) {
    std::printf("  %-30s %20.6f %s\n", spec.name, value, spec.unit);
    metrics << (first ? "" : ", ");
    first = false;
    AppendJsonString(metrics, spec.name);
    metrics << ": {\"value\": " << FormatNumber(value) << ", \"unit\": ";
    AppendJsonString(metrics, spec.unit);
    metrics << "}";
  };
  auto value_of = [&](const MetricSpec& spec, bool required) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) {
      if (required) Gate(false, std::string("metric not measured: ") + spec.name);
      return 0.0;
    }
    if (!std::isfinite(it->second)) {
      Gate(false, std::string("metric is not finite: ") + spec.name);
      return 0.0;
    }
    if (required && it->second <= 0.0) {
      Gate(false, std::string("end-to-end metric is not positive: ") +
                      spec.name);
    }
    return it->second;
  };
  // Resolve every value first so the gates they raise are known before
  // the correctness verdict prints.
  std::vector<std::pair<const MetricSpec*, double>> rows;
  if (traced_) {
    for (const MetricSpec& spec : kPerLayer) {
      rows.emplace_back(&spec, value_of(spec, false));
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      rows.emplace_back(&spec, value_of(spec, true));
    }
  }
  std::printf("%s metrics:\n", traced_ ? "per-layer" : "end-to-end");
  for (const auto& [spec, value] : rows) emit(*spec, value);
  for (const std::string& failure : failures_) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
  const bool correct = failures_.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

Span::Span(const char* name, uint64_t request_id)
    : name_(name), request_id_(request_id),
      start_us_(Store().clock.ElapsedMicros()) {
  if (Store().enabled.load()) {
    id_ = Store().next_id.fetch_add(1);
    parent_ = t_current_span;
    t_current_span = id_;
  }
}

double Span::Stop() {
  if (seconds_ >= 0.0) return seconds_;
  SpanStore& store = Store();
  const double end_us = store.clock.ElapsedMicros();
  seconds_ = (end_us - start_us_) * 1e-6;
  if (id_ != 0) {
    t_current_span = parent_;
    const uint32_t thread = ThreadNumber();
    monoclass::MutexLock lock(store.mu);
    if (store.records.size() < kMaxSpans) {
      store.records.push_back({name_, id_, parent_, request_id_, thread,
                               start_us_, end_us});
    } else {
      ++store.dropped;
    }
  }
  return seconds_;
}

void SetTracing(bool enabled) { Store().enabled.store(enabled); }

bool WriteChromeTrace(const std::string& path) {
  SpanStore& store = Store();
  std::ofstream out(path);
  if (!out) return false;
  monoclass::MutexLock lock(store.mu);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_spans\": "
      << store.dropped << "},\n\"traceEvents\": [\n";
  bool first = true;
  for (const SpanRecord& span : store.records) {
    out << (first ? "" : ",\n");
    first = false;
    out << "{\"name\": ";
    AppendJsonString(out, span.name);
    out << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
        << ", \"ts\": " << FormatNumber(span.start_us)
        << ", \"dur\": " << FormatNumber(span.end_us - span.start_us)
        << ", \"args\": {\"span\": " << span.id << ", \"parent\": "
        << span.parent << ", \"request\": " << span.request_id << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double TraceOverheadPct(size_t count, const std::function<void(size_t)>& op) {
  double traced = 0.0;
  double untraced = 0.0;
  for (size_t i = 0; i < count; ++i) {
    {
      Span span("overhead.traced", i);
      op(i);
      traced += span.Stop();
    }
    monoclass::obs::SetEnabled(false);
    SetTracing(false);
    {
      Span span("overhead.untraced", i);
      op(i);
      untraced += span.Stop();
    }
    SetTracing(true);
    monoclass::obs::SetEnabled(true);
  }
  return 100.0 * (traced / untraced - 1.0);
}

double CalibrationMs() {
  Samples runs;
  for (int run = 0; run < 5; ++run) {
    WallTimer timer;
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_calibration_sink = x;
    runs.Add(timer.ElapsedMillis());
  }
  return runs.Median();
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

CpuTicks ReadCpuTicks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks ticks;
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t value = 0;
    in >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double PeakRssMiB(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

LabeledPointSet PlantedInstance2D(size_t n, size_t flips, uint64_t seed) {
  Rng rng(seed);
  monoclass::PointSet points;
  std::vector<monoclass::Label> labels(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.UniformDouble();
    const double y = rng.UniformDouble();
    points.Add(monoclass::Point({x, y}));
    labels[i] = PlantedLabel(x, y);
  }
  for (const size_t i : rng.SampleWithoutReplacement(n, flips)) {
    labels[i] = static_cast<monoclass::Label>(1 - labels[i]);
  }
  return LabeledPointSet(std::move(points), std::move(labels));
}

}  // namespace mcbench
