// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// active_solve: SolveActiveMultiD (Theorems 2-3) through InMemoryOracle on
// seeded chain instances, in the sublinear-probe regime: a few percent of
// the points are probed, and no O(n^2) scan runs on the full set. The
// unit operation is one solve.

#include <utility>
#include <vector>

#include "harness.h"

namespace mcbench {
namespace {

using monoclass::ActiveSolveOptions;
using monoclass::ActiveSolveResult;
using monoclass::ChainInstance;
using monoclass::WeightedPointSet;

constexpr size_t kChains = 8;
constexpr size_t kChainLength = 16384;
constexpr size_t kNoisePerChain = 20;
constexpr double kEpsilon = 1.0;
constexpr double kDelta = 0.01;
constexpr size_t kMinSolves = 3;
// Solves per throughput batch, and set-ups per set-up batch.
constexpr double kBatchSolves = 5;
constexpr double kBatchSetups = 10;
// Solves whose stages are re-run in a traced run.
constexpr size_t kStagedTraced = 5;
// Solves repeated with tracing off for trace_overhead_pct.
constexpr size_t kOverheadSolves = 3;
// Keeps solve seeds apart from instance seeds.
constexpr uint64_t kSolveSeedStream = uint64_t{1} << 32;

ChainInstance MakeInstance(uint64_t seed, size_t i) {
  monoclass::ChainInstanceOptions options;
  options.num_chains = kChains;
  options.chain_length = kChainLength;
  options.dimension = 2;
  options.noise_per_chain = kNoisePerChain;
  options.seed = StreamSeed(seed, i);
  return monoclass::GenerateChainInstance(options);
}

// Exact k*: the chains are mutually incomparable, so the optimum is the
// sum of the per-chain 1D optima over chain ranks.
double OptimalError(const ChainInstance& instance) {
  double total = 0.0;
  for (const std::vector<size_t>& chain : instance.chains.chains) {
    std::vector<monoclass::Weighted1DPoint> ranked(chain.size());
    for (size_t r = 0; r < chain.size(); ++r) {
      ranked[r] = {.value = static_cast<double>(r),
                   .label = instance.data.label(chain[r]),
                   .weight = 1.0};
    }
    total += monoclass::Solve1DWeighted(ranked).optimal_weighted_error;
  }
  return total;
}

ActiveSolveOptions SolveOptions(const RunConfig& config, size_t i) {
  ActiveSolveOptions options;
  options.sampling =
      monoclass::ActiveSamplingParams::Practical(kEpsilon, kDelta);
  options.seed = StreamSeed(config.seed, kSolveSeedStream + i);
  options.use_fast_2d_chains = true;
  options.parallel.threads = kSolverThreads;
  options.passive.parallel.threads = kSolverThreads;
  return options;
}

}  // namespace

void RunActiveSolve(const RunConfig& config, Report& report) {
  // Warm-up, untimed: the first solve in a process also faults in its
  // memory.
  {
    const ChainInstance instance = MakeInstance(config.seed, 0);
    monoclass::InMemoryOracle oracle(instance.data);
    monoclass::SolveActiveMultiD(instance.data.points(), oracle,
                                 SolveOptions(config, 0));
  }

  monoclass::obs::MetricsRegistry::Global().ResetAll();
  // Set-up is generating an instance and its oracle, timed for every
  // solve (see passive_cold.cc).
  BatchRate setups(kBatchSetups);
  Samples solve_s, probe_calls, sigma_points, levels;
  BatchRate rate(kBatchSolves);
  size_t solves = 0;
  std::vector<WeightedPointSet> sigmas;  // of the first solves
  double errors = 0.0;
  double optimum = 0.0;
  double probes = 0.0;
  double points = 0.0;
  const WallTimer window;
  for (size_t i = 0;
       i < kMinSolves || window.ElapsedSeconds() < config.seconds; ++i) {
    Span setup("setup.instance", i);
    const ChainInstance instance = MakeInstance(config.seed, i);
    monoclass::InMemoryOracle oracle(instance.data);
    setups.Add(1.0, setup.Stop());
    const ActiveSolveOptions options = SolveOptions(config, i);
    Span span("active.solve", i);
    ActiveSolveResult result = monoclass::SolveActiveMultiD(
        instance.data.points(), oracle, options);
    const double seconds = span.Stop();
    solve_s.Add(seconds);
    rate.Add(1.0, seconds);
    ++solves;
    errors += static_cast<double>(
        monoclass::CountErrors(result.classifier, instance.data));
    optimum += OptimalError(instance);
    probes += static_cast<double>(result.probes);
    points += static_cast<double>(instance.data.size());
    probe_calls.Add(static_cast<double>(oracle.NumProbeCalls()));
    sigma_points.Add(static_cast<double>(result.sigma.size()));
    levels.Add(static_cast<double>(result.total_levels));
    if (sigmas.size() < kStagedTraced) sigmas.push_back(std::move(result.sigma));
  }
  const double error_ratio = errors / optimum;
  report.AddOps(solves, 0);
  report.Set("peak_rss_mb", PeakRssMiB());
  report.Set("setup_s", 1.0 / setups.Median());
  report.Set("op_ms.p50", solve_s.Median() * 1e3);
  report.Set("op_ms.p90", solve_s.Quantile(0.9) * 1e3);
  report.Set("throughput_per_s", rate.Median());
  report.Set("labels_per_point", probes / points);
  report.Set("error_ratio", error_ratio);
  report.Gate(error_ratio <= 1.0 + kEpsilon,
              "active error ratio " + std::to_string(error_ratio) +
                  " exceeds 1 + epsilon");
  if (!config.traced) return;

  const monoclass::obs::MetricsSnapshot snapshot =
      monoclass::obs::MetricsRegistry::Global().Snapshot();
  if (const auto* chain = snapshot.Find("mc.lat.active_chain")) {
    report.Set("active.chain_ms.p50", chain->p50 * 1e-3);
    report.Set("active.chain_ms.p99", chain->p99 * 1e-3);
  }
  report.Set("active.sigma_points", sigma_points.Median());
  report.Set("active.probe_calls", probe_calls.Median());
  report.Set("active.levels", levels.Median());

  // The decomposition and the Sigma solve, re-run on identical inputs;
  // the per-chain sampling is what remains of the solve. The solve is
  // timed again just before, so that the host drifts little between the
  // times chains_s subtracts.
  Samples decompose_s, sigma_solve_s, sigma_finalize_s, chains_s;
  for (size_t i = 0; i < sigmas.size(); ++i) {
    const ChainInstance instance = MakeInstance(config.seed, i);
    const ActiveSolveOptions options = SolveOptions(config, i);
    monoclass::InMemoryOracle oracle(instance.data);
    Span solve("active.solve", i);
    monoclass::SolveActiveMultiD(instance.data.points(), oracle, options);
    const double solve_seconds = solve.Stop();
    Span decompose("active.decompose", i);
    monoclass::MinimumChainDecomposition2D(instance.data.points());
    const double decompose_seconds = decompose.Stop();
    Span sigma_solve("active.sigma_solve", i);
    monoclass::PassiveSolveResult sigma =
        monoclass::SolvePassiveWeighted(sigmas[i], options.passive);
    const double sigma_seconds = sigma_solve.Stop();
    Span finalize("passive.finalize", i);
    monoclass::FinalizePassiveResult(sigmas[i], sigma);
    sigma_finalize_s.Add(finalize.Stop());
    decompose_s.Add(decompose_seconds);
    sigma_solve_s.Add(sigma_seconds);
    chains_s.Add(solve_seconds - decompose_seconds - sigma_seconds);
  }
  report.Set("active.decompose_s.p50", decompose_s.Median());
  report.Set("active.sigma_solve_s.p50", sigma_solve_s.Median());
  report.Set("active.sigma_finalize_s.p50", sigma_finalize_s.Median());
  report.Set("active.chains_s.p50", chains_s.Median());

  report.Set("trace_overhead_pct",
             TraceOverheadPct(kOverheadSolves, [&](size_t i) {
               const ChainInstance instance = MakeInstance(config.seed, i);
               monoclass::InMemoryOracle oracle(instance.data);
               monoclass::SolveActiveMultiD(instance.data.points(), oracle,
                                            SolveOptions(config, i));
             }));
}

}  // namespace mcbench
