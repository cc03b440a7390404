// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Measuring machinery shared by the benchmark workloads: run settings,
// sample sets with nearest-rank quantiles, the metric report whose JSON
// object is the run's last line of output, in-memory spans written out
// as a Chrome trace, the host-drift calibration loop, peak-RSS reads and
// the seeded input generators.
//
// Everything here times calls into the library's public functions from
// the outside; nothing in src/ is instrumented for the benchmark.

#ifndef MONOCLASS_BENCHMARK_HARNESS_H_
#define MONOCLASS_BENCHMARK_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "monoclass.h"

namespace mcbench {

using monoclass::LabeledPointSet;
using monoclass::Rng;
using monoclass::WallTimer;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Length of the measured window.
  double seconds = 30.0;
  // Traced run: obs on, spans recorded, per-layer metrics reported.
  bool traced = false;
  // Where the trace, the daemon's port file, log and telemetry go.
  std::string out_dir;
  std::string daemon_path;
};

// Threads of every solver call: one, as the run has one CPU (see
// PinToOneCpu). On a shared host a multi-threaded solve waits for its
// slowest thread, so it slows with any busy core (README.md,
// "Steadiness").
inline constexpr size_t kSolverThreads = 1;

// Independent seed for stream `stream` of a run seeded with `seed`.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

// A bag of observations with nearest-rank quantiles.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  double Sum() const;
  // Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  bool empty() const { return values_.empty(); }

 private:
  std::vector<double> values_;
};

// Operations per second over consecutive batches of at least
// `batch_ops` operations; Median() is the median batch's rate, and its
// inverse the median batch's mean time per operation. Unlike one rate
// over the whole run, it ignores the stretches in which a busy host
// slowed the run. Unlike a median over single operations shorter than a
// few milliseconds, it does not jump between the host's fast and slow
// states (README.md, "Steadiness"). A partial last batch is dropped
// unless it is the only one.
class BatchRate {
 public:
  explicit BatchRate(double batch_ops) : batch_ops_(batch_ops) {}
  // `ops` operations that took `seconds`.
  void Add(double ops, double seconds);
  double Median() const;

 private:
  double batch_ops_;
  double ops_ = 0.0;
  double seconds_ = 0.0;
  Samples rates_;
};

// The metrics of one run. Names and units come from the catalog in
// harness.cc, which mirrors BENCHMARK.json: an untraced run prints every
// end-to-end metric, a traced run every per-layer metric.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  // Records a metric of either kind; the run prints only its own kind.
  void Set(const std::string& name, double value);
  // A correctness gate; any failure makes the run incorrect.
  void Gate(bool ok, const std::string& what);
  void AddOps(uint64_t attempted, uint64_t failed);

  // Prints a name/value/unit table, then the JSON result line. Returns
  // the process exit code: 0 iff every gate passed.
  int Print();

 private:
  bool traced_;
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Spans mcbench keeps in memory around each call into a layer:
// name, start, end, the enclosing span on the same thread, and the id
// of the request or operation they belong to. Recording is on only in
// traced runs; the timing itself always runs, so a Span doubles as the
// stopwatch for the measurement it brackets.
class Span {
 public:
  explicit Span(const char* name, uint64_t request_id = 0);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span (once) and returns its length in seconds.
  double Stop();

 private:
  const char* name_;
  uint64_t request_id_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  double start_us_;
  double seconds_ = -1.0;
};

// Turns span recording on or off (off by default).
void SetTracing(bool enabled);
// Writes every recorded span as Chrome trace-event JSON.
bool WriteChromeTrace(const std::string& path);

// trace_overhead_pct of a traced run: `count` operations `op(i)`, each
// run traced and then at once untraced, so that the host drifts little
// within a pair. Returns 100 * (traced time / untraced time - 1).
double TraceOverheadPct(size_t count, const std::function<void(size_t)>& op);

// Median time of a fixed single-threaded integer loop, in ms. Run
// before and after a workload; a move of more than kNoisyDriftPct
// between the two flags the host as noisy.
double CalibrationMs();
inline constexpr double kNoisyDriftPct = 10.0;

// Restricts this process, and every process it starts later, to the
// highest-numbered CPU it may run on, and returns that CPU (-1 if the
// affinity calls fail). On one CPU a thread that blocks hands the CPU
// straight to the thread it woke; across CPUs each hand-off waits for an
// idle virtual CPU to be scheduled again on the host.
int PinToOneCpu();

// Cumulative CPU time of the whole machine from /proc/stat, in ticks:
// all of it, and the part the hypervisor stole from this VM.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

// Peak resident set (VmHWM) of `pid`, or of this process when pid is 0,
// in MiB; 0 when unreadable.
double PeakRssMiB(int pid = 0);

// A planted 2D instance: uniform points in [0,1]^2 labelled 1 iff
// x + y > 1, then exactly `flips` labels flipped. Same distribution as
// data/synthetic.h GeneratePlanted without its O(n^2) classifier build.
LabeledPointSet PlantedInstance2D(size_t n, size_t flips, uint64_t seed);

// The planted label of a 2D point (before noise).
inline uint8_t PlantedLabel(double x, double y) { return x + y > 1.0 ? 1 : 0; }

// Workloads. Each fills `report` with its metrics and gates.
void RunPassiveCold(const RunConfig& config, Report& report);
void RunActiveSolve(const RunConfig& config, Report& report);
void RunIncrementalStream(const RunConfig& config, Report& report);
void RunServe(const RunConfig& config, Report& report);

}  // namespace mcbench

#endif  // MONOCLASS_BENCHMARK_HARNESS_H_
