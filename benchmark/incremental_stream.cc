// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// incremental_stream: planted instances, each bulk-loaded into
// IncrementalPassiveSolver (set-up), then a seeded stream of inserts,
// erases and relabels with a Solve() extraction every kDeltasPerSolve
// deltas. Writes exercise the O(dn) conflict scans and the warm Augment;
// reads exercise extraction, which shares FinalizePassiveResult with the
// cold solve. The unit operation is one delta.
//
// A run moves to a fresh instance every kCyclesPerInstance cycles. Delta
// costs differ by about 15 % from one instance to the next, so a run
// that kept one instance would mostly measure its seed.

#include <optional>
#include <utility>
#include <vector>

#include "harness.h"

namespace mcbench {
namespace {

using monoclass::IncrementalPassiveSolver;
using monoclass::IncrementalStats;
using monoclass::Label;

constexpr size_t kInitialPoints = 6000;
constexpr size_t kInitialFlips = kInitialPoints / 100;  // 1 % label noise
constexpr double kInsertNoise = 0.01;
constexpr double kInsertShare = 0.4;
constexpr double kEraseShare = 0.3;  // the remaining 0.3 relabels
constexpr size_t kDeltasPerSolve = 500;
// A cycle is kDeltasPerSolve deltas and one extraction.
constexpr size_t kCyclesPerInstance = 2;
constexpr size_t kMinCycles = 2;

// Instance `i` of a run and the seed of its delta stream.
LabeledPointSet Instance(uint64_t seed, size_t i) {
  return PlantedInstance2D(kInitialPoints, kInitialFlips,
                           StreamSeed(seed, 2 * i));
}
uint64_t DeltaSeed(uint64_t seed, size_t i) { return StreamSeed(seed, 2 * i + 1); }

// `after - before`, field by field, added to `total`.
void AddStats(const IncrementalStats& before, const IncrementalStats& after,
              IncrementalStats& total) {
  total.enter_contending += after.enter_contending - before.enter_contending;
  total.leave_contending += after.leave_contending - before.leave_contending;
  total.retarget_edges += after.retarget_edges - before.retarget_edges;
  total.drained_paths += after.drained_paths - before.drained_paths;
  total.augment_calls += after.augment_calls - before.augment_calls;
  total.rebuilds += after.rebuilds - before.rebuilds;
}

// The seeded delta stream. It tracks the live ids and their labels
// itself, so drawing a delta never calls into the solver.
class DeltaStream {
 public:
  DeltaStream(uint64_t seed, const LabeledPointSet& initial)
      : rng_(seed), labels_(initial.labels()) {
    live_.resize(initial.size());
    for (size_t id = 0; id < live_.size(); ++id) live_[id] = id;
  }

  enum class Kind { kInsert, kErase, kRelabel };

  // Draws the next delta, applies it to `solver` inside a span and
  // returns its kind and latency in seconds.
  std::pair<Kind, double> Apply(IncrementalPassiveSolver& solver,
                                uint64_t delta_index) {
    const double u = rng_.UniformDouble();
    if (u < kInsertShare || live_.size() < 2) {
      const double x = rng_.UniformDouble();
      const double y = rng_.UniformDouble();
      Label label = PlantedLabel(x, y);
      if (rng_.Bernoulli(kInsertNoise)) label = static_cast<Label>(1 - label);
      Span span("inc.insert", delta_index);
      const size_t id = solver.Insert(monoclass::Point({x, y}), label);
      const double seconds = span.Stop();
      MC_CHECK_EQ(id, labels_.size());  // ids are dense
      labels_.push_back(label);
      live_.push_back(id);
      return {Kind::kInsert, seconds};
    }
    const size_t slot = static_cast<size_t>(rng_.UniformInt(live_.size()));
    const size_t id = live_[slot];
    if (u < kInsertShare + kEraseShare) {
      live_[slot] = live_.back();
      live_.pop_back();
      Span span("inc.erase", delta_index);
      solver.Erase(id);
      return {Kind::kErase, span.Stop()};
    }
    labels_[id] = static_cast<Label>(1 - labels_[id]);  // always a flip
    Span span("inc.relabel", delta_index);
    solver.Relabel(id, labels_[id]);
    return {Kind::kRelabel, span.Stop()};
  }

 private:
  Rng rng_;
  std::vector<Label> labels_;  // by id, dead ids included
  std::vector<size_t> live_;
};

}  // namespace

void RunIncrementalStream(const RunConfig& config, Report& report) {
  monoclass::IncrementalSolveOptions options;
  options.parallel.threads = kSolverThreads;

  // Set-up: a bulk load (conflict counts, chains, network, cold flow),
  // once per instance.
  Samples setup_s;
  std::optional<IncrementalPassiveSolver> solver;
  std::optional<DeltaStream> stream;
  IncrementalStats before;
  IncrementalStats total;
  auto load = [&](size_t i) {
    if (solver) AddStats(before, solver->stats(), total);
    const LabeledPointSet initial = Instance(config.seed, i);
    solver.reset();
    Span span("setup.bulk_load", i);
    solver.emplace(monoclass::WeightedPointSet::UnitWeights(initial), options);
    setup_s.Add(span.Stop());
    stream.emplace(DeltaSeed(config.seed, i), initial);
    before = solver->stats();
  };
  load(0);

  monoclass::obs::MetricsRegistry::Global().ResetAll();
  Samples delta_s, insert_s, erase_s, relabel_s, extract_s, first_batch_s;
  BatchRate rate(kDeltasPerSolve);
  uint64_t deltas = 0;
  uint64_t noop_deltas = 0;
  const WallTimer window;
  for (size_t cycle = 0;
       cycle < kMinCycles || window.ElapsedSeconds() < config.seconds;
       ++cycle) {
    if (cycle > 0 && cycle % kCyclesPerInstance == 0) {
      load(cycle / kCyclesPerInstance);
    }
    double cycle_s = 0.0;
    for (size_t k = 0; k < kDeltasPerSolve; ++k) {
      const uint64_t applied_before = solver->stats().deltas;
      const auto [kind, seconds] = stream->Apply(*solver, deltas++);
      if (solver->stats().deltas == applied_before) ++noop_deltas;
      delta_s.Add(seconds);
      cycle_s += seconds;
      if (cycle == 0) first_batch_s.Add(seconds);
      switch (kind) {
        case DeltaStream::Kind::kInsert: insert_s.Add(seconds); break;
        case DeltaStream::Kind::kErase: erase_s.Add(seconds); break;
        case DeltaStream::Kind::kRelabel: relabel_s.Add(seconds); break;
      }
    }
    Span span("inc.extract", cycle);
    solver->Solve();
    const double extract_seconds = span.Stop();
    extract_s.Add(extract_seconds);
    rate.Add(kDeltasPerSolve, cycle_s + extract_seconds);
  }
  AddStats(before, solver->stats(), total);
  const monoclass::PassiveSolveResult& solved = solver->Solve();
  report.AddOps(deltas, 0);
  report.Set("peak_rss_mb", PeakRssMiB());
  report.Set("setup_s", setup_s.Median());
  report.Set("op_ms.p50", delta_s.Median() * 1e3);
  report.Set("op_ms.p90", delta_s.Quantile(0.9) * 1e3);
  report.Set("throughput_per_s", rate.Median());
  report.Set("labels_per_point", 1.0);  // every point arrives labelled
  report.Set("error_ratio", solved.optimal_weighted_error / solved.flow_value);
  report.Gate(noop_deltas == 0,
              std::to_string(noop_deltas) + " deltas changed nothing");

  const double per_delta = 1.0 / static_cast<double>(deltas);
  report.Set("inc.insert_ms.p50", insert_s.Median() * 1e3);
  report.Set("inc.insert_ms.p99", insert_s.Quantile(0.99) * 1e3);
  report.Set("inc.erase_ms.p50", erase_s.Median() * 1e3);
  report.Set("inc.erase_ms.p99", erase_s.Quantile(0.99) * 1e3);
  report.Set("inc.relabel_ms.p50", relabel_s.Median() * 1e3);
  report.Set("inc.relabel_ms.p99", relabel_s.Quantile(0.99) * 1e3);
  report.Set("inc.extract_s.p50", extract_s.Median());
  report.Set("inc.enter_contending",
             per_delta * static_cast<double>(total.enter_contending));
  report.Set("inc.leave_contending",
             per_delta * static_cast<double>(total.leave_contending));
  report.Set("inc.retarget_edges",
             per_delta * static_cast<double>(total.retarget_edges));
  report.Set("inc.drained_paths",
             per_delta * static_cast<double>(total.drained_paths));
  report.Set("inc.augment_calls",
             per_delta * static_cast<double>(total.augment_calls));
  report.Set("inc.rebuilds", per_delta * static_cast<double>(total.rebuilds));
  report.Set("inc.noop_deltas", static_cast<double>(noop_deltas));

  // Off the clock: the last instance's repaired cut against a cold solve
  // of its snapshot.
  {
    Span span("inc.audit");
    const monoclass::AuditResult audit = solver->AuditIncrementalCut();
    report.Gate(audit.ok, "AuditIncrementalCut: " + audit.failure);
  }
  if (!config.traced) return;

  const monoclass::obs::MetricsSnapshot snapshot =
      monoclass::obs::MetricsRegistry::Global().Snapshot();
  if (const auto* augment = snapshot.Find("mc.lat.inc_augment")) {
    report.Set("inc.augment_ms.p50", augment->p50 * 1e-3);
    report.Set("inc.augment_ms.p99", augment->p99 * 1e-3);
  }
  // The first batch again, on a fresh bulk load with tracing off.
  solver.reset();
  monoclass::obs::SetEnabled(false);
  SetTracing(false);
  const LabeledPointSet initial = Instance(config.seed, 0);
  solver.emplace(monoclass::WeightedPointSet::UnitWeights(initial), options);
  DeltaStream replay(DeltaSeed(config.seed, 0), initial);
  Samples untraced_s;
  for (uint64_t k = 0; k < kDeltasPerSolve; ++k) {
    untraced_s.Add(replay.Apply(*solver, k).second);
  }
  SetTracing(true);
  monoclass::obs::SetEnabled(true);
  report.Set("trace_overhead_pct",
             100.0 * (first_batch_s.Sum() / untraced_s.Sum() - 1.0));
}

}  // namespace mcbench
