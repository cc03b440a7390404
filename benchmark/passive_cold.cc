// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// passive_cold: cold SolvePassiveWeighted calls (Theorem 4), one distinct
// planted 2D instance each, at a size where the O(n^2) stages dominate.
// The unit operation is one solve.

#include <optional>
#include <utility>

#include "harness.h"

namespace mcbench {
namespace {

using monoclass::PassiveSolveOptions;
using monoclass::PassiveSolveResult;
using monoclass::WeightedPointSet;

// About 0.17 s a solve, so a window holds over a hundred of them and
// op_ms.p90 has ten or more solves beyond it.
constexpr size_t kPoints = 5000;
constexpr size_t kFlips = kPoints / 100;  // 1 % label noise
constexpr size_t kMinSolves = 3;
// Solves per throughput batch, and set-ups per set-up batch.
constexpr double kBatchSolves = 5;
constexpr double kBatchSetups = 10;
// Instances re-solved stage by stage in a traced run (an untraced run
// re-solves only the first, for the correctness gate).
constexpr size_t kStagedTraced = 5;
// Instances solved again with tracing off for trace_overhead_pct.
constexpr size_t kOverheadSolves = 2;

struct StagedSolve {
  double contending_s = 0.0;
  double build_s = 0.0;
  double maxflow_s = 0.0;
  double cut_s = 0.0;
  double assign_s = 0.0;
  double finalize_s = 0.0;
  size_t contending_points = 0;
  size_t chains = 0;
  size_t relays = 0;
  size_t network_edges = 0;
  std::optional<PassiveSolveResult> result;

  double Sum() const {
    return contending_s + build_s + maxflow_s + cut_s + assign_s + finalize_s;
  }
};

// SolvePassiveWeighted, called stage by stage through the public
// functions it is built from (passive/flow_solver.cc), in its order.
StagedSolve SolveByStages(const WeightedPointSet& set,
                          const PassiveSolveOptions& options, uint64_t id) {
  StagedSolve staged;
  Span whole("passive.stages", id);
  std::vector<size_t> active;
  {
    Span span("passive.contending", id);
    active = monoclass::ComputeContending(set.points(), set.labels(),
                                          options.parallel)
                 .contending;
    staged.contending_s = span.Stop();
  }
  // The instance is sized so that SolvePassiveWeighted's kAuto choice is
  // always the sparse network; the recomposition mirrors only that path.
  MC_CHECK_GE(active.size(), options.sparse_auto_threshold);
  monoclass::SparseNetworkPlan plan;
  {
    Span span("passive.build", id);
    plan = monoclass::BuildSparseChainRelayNetwork(
        set, active, monoclass::PassiveInfiniteCapacity(set),
        options.parallel);
    staged.build_s = span.Stop();
  }
  PassiveSolveResult result{
      .classifier = monoclass::MonotoneClassifier::AlwaysZero(set.dimension())};
  {
    Span span("graph.maxflow", id);
    result.flow_value = monoclass::CreateMaxFlowSolver(options.algorithm)
                            ->Solve(plan.network, 0, 1);
    staged.maxflow_s = span.Stop();
  }
  std::vector<bool> reachable;
  {
    Span span("graph.cut", id);
    reachable = monoclass::ResidualReachable(plan.network, 0);
    staged.cut_s = span.Stop();
  }
  {
    Span span("passive.assign", id);
    result.assignment = set.labels();
    for (size_t k = 0; k < active.size(); ++k) {
      result.assignment[active[k]] = reachable[k + 2] ? 0 : 1;
    }
    staged.assign_s = span.Stop();
  }
  {
    Span span("passive.finalize", id);
    monoclass::FinalizePassiveResult(set, result);
    staged.finalize_s = span.Stop();
  }
  staged.contending_points = active.size();
  staged.chains = plan.num_chains;
  staged.relays = plan.num_relays;
  staged.network_edges = plan.finite_edges + plan.infinite_edges;
  staged.result = std::move(result);
  return staged;
}

bool SameSolve(const PassiveSolveResult& a, const PassiveSolveResult& b) {
  return a.classifier.generators() == b.classifier.generators() &&
         a.optimal_weighted_error == b.optimal_weighted_error &&
         a.flow_value == b.flow_value && a.assignment == b.assignment;
}

}  // namespace

void RunPassiveCold(const RunConfig& config, Report& report) {
  PassiveSolveOptions options;
  options.parallel.threads = kSolverThreads;
  auto instance = [&](size_t i) {
    return WeightedPointSet::UnitWeights(
        PlantedInstance2D(kPoints, kFlips, StreamSeed(config.seed, i)));
  };

  // Warm-up, untimed: the first solve in a process also faults in its
  // memory.
  monoclass::SolvePassiveWeighted(instance(0), options);

  // Set-up is building a solve's input, timed for every solve: samples
  // spread over the window, unlike a burst at start, see the host in all
  // the states the solves see. setup_s is the median batch's mean.
  BatchRate setups(kBatchSetups);
  Samples solve_s;
  BatchRate rate(kBatchSolves);
  size_t solves = 0;
  std::vector<PassiveSolveResult> kept;  // the first solves, for the gates
  double error = 0.0;
  double optimum = 0.0;
  const WallTimer window;
  for (size_t i = 0;
       i < kMinSolves || window.ElapsedSeconds() < config.seconds; ++i) {
    Span setup("setup.instance", i);
    const WeightedPointSet set = instance(i);
    setups.Add(1.0, setup.Stop());
    Span span("passive.solve", i);
    PassiveSolveResult result = monoclass::SolvePassiveWeighted(set, options);
    const double seconds = span.Stop();
    solve_s.Add(seconds);
    rate.Add(1.0, seconds);
    ++solves;
    error += result.optimal_weighted_error;
    optimum += result.flow_value;
    if (kept.size() < kStagedTraced) kept.push_back(std::move(result));
  }
  report.AddOps(solves, 0);
  report.Set("peak_rss_mb", PeakRssMiB());
  report.Set("setup_s", 1.0 / setups.Median());
  report.Set("op_ms.p50", solve_s.Median() * 1e3);
  report.Set("op_ms.p90", solve_s.Quantile(0.9) * 1e3);
  report.Set("throughput_per_s", rate.Median());
  report.Set("labels_per_point", 1.0);  // a passive solve reads every label
  report.Set("error_ratio", error / optimum);

  // Off the clock: the stage recomposition must reproduce the solve bit
  // for bit, so the stage times below are the solve's own stages.
  const size_t staged_count = config.traced ? kept.size() : 1;
  Samples contending_s, build_s, maxflow_s, cut_s, assign_s, finalize_s,
      unattributed_s, contending_points, chains, relays, edges, generators;
  for (size_t i = 0; i < staged_count; ++i) {
    const WeightedPointSet set = instance(i);
    // The solve again, just before its recomposition, so that the host
    // drifts little between the two times that unattributed_s compares.
    double solve_seconds = 0.0;
    if (config.traced) {
      Span solve("passive.solve", i);
      monoclass::SolvePassiveWeighted(set, options);
      solve_seconds = solve.Stop();
    }
    const StagedSolve staged = SolveByStages(set, options, i);
    report.Gate(SameSolve(*staged.result, kept[i]),
                "passive stage recomposition differs from "
                "SolvePassiveWeighted on instance " +
                    std::to_string(i));
    contending_s.Add(staged.contending_s);
    build_s.Add(staged.build_s);
    maxflow_s.Add(staged.maxflow_s);
    cut_s.Add(staged.cut_s);
    assign_s.Add(staged.assign_s);
    finalize_s.Add(staged.finalize_s);
    unattributed_s.Add(solve_seconds - staged.Sum());
    contending_points.Add(static_cast<double>(staged.contending_points));
    chains.Add(static_cast<double>(staged.chains));
    relays.Add(static_cast<double>(staged.relays));
    edges.Add(static_cast<double>(staged.network_edges));
    generators.Add(
        static_cast<double>(staged.result->classifier.generators().size()));
  }
  report.Set("passive.solve_s.p50", solve_s.Median());
  report.Set("passive.contending_s.p50", contending_s.Median());
  report.Set("passive.build_s.p50", build_s.Median());
  report.Set("graph.maxflow_s.p50", maxflow_s.Median());
  report.Set("graph.cut_s.p50", cut_s.Median());
  report.Set("passive.assign_s.p50", assign_s.Median());
  report.Set("passive.finalize_s.p50", finalize_s.Median());
  report.Set("passive.unattributed_s.p50", unattributed_s.Median());
  report.Set("passive.contending_points", contending_points.Median());
  report.Set("passive.chains", chains.Median());
  report.Set("passive.relays", relays.Median());
  report.Set("passive.network_edges", edges.Median());
  report.Set("passive.generators", generators.Median());

  if (config.traced) {
    report.Set("trace_overhead_pct",
               TraceOverheadPct(kOverheadSolves, [&](size_t i) {
                 monoclass::SolvePassiveWeighted(instance(i), options);
               }));
  }
}

}  // namespace mcbench
