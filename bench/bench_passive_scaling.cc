// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Experiment E2: Theorem 4 runtime scaling. The claim is
// O(d n^2) + T_maxflow(n): the graph build dominates for small flows, and
// the total stays polynomial. The dominance passes (contending, the
// Lemma 16 check, generator pruning) test points against one label's
// minimal or maximal points only, O(n log n) at d = 2, so the d = 2 rows
// grow well below n^2. Also reports the contending-reduction
// ablation (network size and runtime with/without Lemma 15) and verifies
// the optimum against brute force at the smallest n.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "data/synthetic.h"
#include "passive/brute_force.h"
#include "passive/contending.h"
#include "passive/flow_solver.h"
#include "passive/staircase_2d.h"
#include "util/concurrency.h"

namespace monoclass {
namespace {

void Run() {
  bench::PrintHeader(
      "E2", "Theorem 4",
      "passive weighted classification solves exactly in O(dn^2) + "
      "T_maxflow(n), with the dominance passes O(n log n) at d = 2; the "
      "Lemma 15 reduction shrinks the network");

  bench::PrintSection("runtime scaling in n (d = 2, 1% label noise)");
  {
    TextTable table({"n", "contending", "net-verts", "inf-edges",
                     "k*", "time-ms", "time/n^2 (us)"});
    for (const size_t n : {256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
      PlantedOptions options;
      options.num_points = n;
      options.dimension = 2;
      options.noise_flips = n / 100;
      options.seed = n;
      const PlantedInstance instance = GeneratePlanted(options);
      obs::SpanTimer timer("bench/solve");
      const PassiveSolveResult result =
          SolvePassiveUnweighted(instance.data);
      const double ms = timer.ElapsedMillis();
      table.AddRowValues(
          n, result.num_contending, result.network_vertices,
          result.network_infinite_edges,
          static_cast<size_t>(result.optimal_weighted_error + 0.5),
          FormatDouble(ms, 4),
          FormatDouble(1e3 * ms / (static_cast<double>(n) *
                                   static_cast<double>(n)),
                       3));
    }
    bench::PrintTable(table);
  }

  bench::PrintSection("runtime scaling in d (n = 2048, 1% noise)");
  {
    TextTable table({"d", "contending", "k*", "time-ms"});
    for (const size_t d : {2u, 4u, 8u, 16u}) {
      PlantedOptions options;
      options.num_points = 2048;
      options.dimension = d;
      options.noise_flips = 20;
      options.seed = 17 + d;
      const PlantedInstance instance = GeneratePlanted(options);
      obs::SpanTimer timer("bench/solve");
      const PassiveSolveResult result =
          SolvePassiveUnweighted(instance.data);
      table.AddRowValues(
          d, result.num_contending,
          static_cast<size_t>(result.optimal_weighted_error + 0.5),
          FormatDouble(timer.ElapsedMillis(), 4));
    }
    bench::PrintTable(table);
  }

  bench::PrintSection(
      "ablation: Lemma 15 contending reduction on vs off (d = 2)");
  {
    TextTable table({"n", "verts (on)", "verts (off)", "ms (on)", "ms (off)",
                     "same optimum"});
    for (const size_t n : {512u, 2048u, 4096u}) {
      PlantedOptions options;
      options.num_points = n;
      options.noise_flips = n / 50;
      options.seed = 3 * n;
      const PlantedInstance instance = GeneratePlanted(options);
      PassiveSolveOptions on;
      on.reduce_to_contending = true;
      PassiveSolveOptions off;
      off.reduce_to_contending = false;
      obs::SpanTimer timer_on("bench/solve_contending_on");
      const auto result_on = SolvePassiveUnweighted(instance.data, on);
      const double ms_on = timer_on.ElapsedMillis();
      obs::SpanTimer timer_off("bench/solve_contending_off");
      const auto result_off = SolvePassiveUnweighted(instance.data, off);
      const double ms_off = timer_off.ElapsedMillis();
      table.AddRowValues(n, result_on.network_vertices,
                         result_off.network_vertices,
                         FormatDouble(ms_on, 4), FormatDouble(ms_off, 4),
                         result_on.optimal_weighted_error ==
                                 result_off.optimal_weighted_error
                             ? "yes"
                             : "NO");
    }
    bench::PrintTable(table);
  }

  bench::PrintSection(
      "network build: dense vs sparse chain relays (d = 2, 25% noise)");
  {
    // Both builders produce the identical min cut and classifier
    // (tests/sparse_network_test.cc); what differs is the edge count:
    // Theta(n^2) dominating pairs dense vs O(n w) relay-routed sparse.
    TextTable table({"n", "contending", "chains", "inf-edges (dense)",
                     "inf-edges (sparse)", "ratio", "ms (dense)",
                     "ms (sparse)", "identical"});
    for (const size_t n : {1024u, 2048u, 4096u}) {
      PlantedOptions options;
      options.num_points = n;
      options.dimension = 2;
      options.noise_flips = n / 4;
      options.seed = 5 * n;
      const PlantedInstance instance = GeneratePlanted(options);
      PassiveSolveOptions dense;
      dense.network = PassiveNetworkBuild::kDense;
      PassiveSolveOptions sparse;
      sparse.network = PassiveNetworkBuild::kSparseChainRelay;
      obs::SpanTimer dense_timer("bench/solve_dense");
      const auto dense_result = SolvePassiveUnweighted(instance.data, dense);
      const double dense_ms = dense_timer.ElapsedMillis();
      obs::SpanTimer sparse_timer("bench/solve_sparse");
      const auto sparse_result = SolvePassiveUnweighted(instance.data, sparse);
      const double sparse_ms = sparse_timer.ElapsedMillis();
      table.AddRowValues(
          n, sparse_result.num_contending, sparse_result.network_chains,
          dense_result.network_infinite_edges,
          sparse_result.network_infinite_edges,
          FormatDouble(static_cast<double>(dense_result.network_infinite_edges) /
                           static_cast<double>(std::max<size_t>(
                               1, sparse_result.network_infinite_edges)),
                       3),
          FormatDouble(dense_ms, 4), FormatDouble(sparse_ms, 4),
          sparse_result.assignment == dense_result.assignment ? "yes" : "NO");
      if (sparse_result.assignment != dense_result.assignment) {
        std::cerr << "bench_passive_scaling: sparse build diverged from "
                     "dense at n = "
                  << n << "\n";
      }
    }
    bench::PrintTable(table);
  }

  bench::PrintSection(
      "sparse scaling: n = 20000, ~all points contending (d = 2)");
  {
    // At this size the dense build is the wall (tens of millions of
    // infinity edges); the dense pair count is *counted* by the same
    // O(n^2) scan the dense builder would run, without materializing
    // the network, and exported as mc.net.dense_pairs_counted so the
    // O(n^2) -> O(n w) drop is visible in BENCH_E2.json.
    PlantedOptions options;
    options.num_points = 20000;
    options.dimension = 2;
    options.noise_flips = 10000;  // labels ~uniform: the adversarial regime
    options.seed = 20000;
    const PlantedInstance instance = GeneratePlanted(options);
    const WeightedPointSet weighted =
        WeightedPointSet::UnitWeights(instance.data);

    PassiveSolveOptions sparse;
    sparse.network = PassiveNetworkBuild::kSparseChainRelay;
    obs::SpanTimer sparse_timer("bench/solve_sparse_20k");
    const auto result = SolvePassiveUnweighted(instance.data, sparse);
    const double sparse_ms = sparse_timer.ElapsedMillis();

    obs::SpanTimer count_timer("bench/count_dense_pairs");
    const auto active =
        ComputeContending(weighted.points(), weighted.labels()).contending;
    const size_t shards = std::max<size_t>(1, ParallelOptions{}.Resolve());
    std::vector<size_t> shard_pairs(shards, 0);
    ParallelFor(active.size(), ParallelOptions{},
                [&](size_t begin, size_t end, size_t shard) {
                  size_t pairs = 0;
                  for (size_t a = begin; a < end; ++a) {
                    const size_t p = active[a];
                    if (weighted.label(p) != 0) continue;
                    for (const size_t q : active) {
                      if (weighted.label(q) == 1 &&
                          DominatesEq(weighted.point(p), weighted.point(q))) {
                        ++pairs;
                      }
                    }
                  }
                  shard_pairs[shard] = pairs;
                });
    size_t dense_pairs = 0;
    for (const size_t pairs : shard_pairs) dense_pairs += pairs;
    const double count_ms = count_timer.ElapsedMillis();
    MC_COUNTER("mc.net.dense_pairs_counted", dense_pairs);

    TextTable table({"contending", "chains", "relays", "inf-edges (sparse)",
                     "dense pairs", "ratio", "k*", "ms (sparse solve)",
                     "ms (dense pair scan)"});
    table.AddRowValues(
        result.num_contending, result.network_chains, result.network_relays,
        result.network_infinite_edges, dense_pairs,
        FormatDouble(static_cast<double>(dense_pairs) /
                         static_cast<double>(std::max<size_t>(
                             1, result.network_infinite_edges)),
                     3),
        static_cast<size_t>(result.optimal_weighted_error + 0.5),
        FormatDouble(sparse_ms, 4), FormatDouble(count_ms, 4));
    bench::PrintTable(table);
  }

  bench::PrintSection(
      "extension: flow solver vs 2D staircase DP (both exact; d = 2)");
  {
    TextTable table({"n", "flow ms", "staircase ms", "same optimum"});
    for (const size_t n : {512u, 2048u, 8192u}) {
      PlantedOptions options;
      options.num_points = n;
      options.noise_flips = n / 100;
      options.seed = 7 * n;
      const PlantedInstance instance = GeneratePlanted(options);
      const WeightedPointSet weighted =
          WeightedPointSet::UnitWeights(instance.data);
      obs::SpanTimer flow_timer("bench/flow_solver");
      const double flow =
          SolvePassiveWeighted(weighted).optimal_weighted_error;
      const double flow_ms = flow_timer.ElapsedMillis();
      obs::SpanTimer staircase_timer("bench/staircase_dp");
      const double staircase =
          SolvePassiveStaircase2D(weighted).optimal_weighted_error;
      const double staircase_ms = staircase_timer.ElapsedMillis();
      table.AddRowValues(n, FormatDouble(flow_ms, 4),
                         FormatDouble(staircase_ms, 4),
                         flow == staircase ? "yes" : "NO");
    }
    bench::PrintTable(table);
  }

  bench::PrintSection(
      "thread sweep: sharded network build (n = 8192, d = 4, 2% noise)");
  {
    // The network build's wiring shards across the pool; the dominance
    // passes and the max-flow step stay serial. The determinism contract
    // requires the network -- and so the classifier and k* -- to be
    // bit-identical to the serial build at every thread count.
    PlantedOptions options;
    options.num_points = 8192;
    options.dimension = 4;
    options.noise_flips = 8192 / 50;
    options.seed = 97;
    const PlantedInstance instance = GeneratePlanted(options);

    PassiveSolveOptions solve_options;
    solve_options.parallel.threads = 1;
    obs::SpanTimer serial_timer("bench/solve_serial");
    const PassiveSolveResult serial =
        SolvePassiveUnweighted(instance.data, solve_options);
    const double serial_ms = serial_timer.ElapsedMillis();

    bench::BenchReport::Global().SetThreads(ParallelOptions{}.Resolve());
    bench::BenchReport::Global().AddParam(
        "hardware_threads", std::to_string(ParallelOptions{}.Resolve()));

    TextTable table({"threads", "time-ms", "speedup", "k*", "identical"});
    table.AddRowValues(
        1, FormatDouble(serial_ms, 4), FormatDouble(1.0, 2),
        static_cast<size_t>(serial.optimal_weighted_error + 0.5), "yes");
    for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
      solve_options.parallel.threads = threads;
      obs::SpanTimer timer("bench/solve_parallel");
      const PassiveSolveResult result =
          SolvePassiveUnweighted(instance.data, solve_options);
      const double ms = timer.ElapsedMillis();
      const bool identical =
          result.assignment == serial.assignment &&
          result.network_infinite_edges == serial.network_infinite_edges &&
          result.optimal_weighted_error == serial.optimal_weighted_error;
      table.AddRowValues(
          threads, FormatDouble(ms, 4), FormatDouble(serial_ms / ms, 2),
          static_cast<size_t>(result.optimal_weighted_error + 0.5),
          identical ? "yes" : "NO");
      if (!identical) {
        std::cerr << "bench_passive_scaling: parallel run (threads="
                  << threads << ") diverged from serial output\n";
      }
    }
    bench::PrintTable(table);
  }

  bench::PrintSection("cross-check vs brute force (n = 18)");
  {
    TextTable table({"seed", "flow k*", "brute k*", "match"});
    for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      PlantedOptions options;
      options.num_points = 18;
      options.noise_flips = 4;
      options.seed = seed;
      const PlantedInstance instance = GeneratePlanted(options);
      const size_t flow = OptimalError(instance.data);
      const size_t brute = OptimalErrorBruteForce(instance.data);
      table.AddRowValues(seed, flow, brute, flow == brute ? "yes" : "NO");
    }
    bench::PrintTable(table);
  }
}

}  // namespace
}  // namespace monoclass

int main(int argc, char** argv) {
  argc = monoclass::bench::ParseBenchArgs(argc, argv);
  (void)argc;
  (void)argv;
  monoclass::Run();
  return 0;
}
