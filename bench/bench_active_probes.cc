// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Experiment E5: Theorem 2's probe bound O((w/eps^2) log n log(n/w)).
// Three sweeps isolate the three factors:
//   * n grows at fixed w       -> probes grow polylogarithmically;
//   * w grows at fixed n       -> probes grow ~linearly in w;
//   * eps shrinks at fixed n,w -> probes grow ~1/eps^2.
// A fourth table shows the greedy-decomposition ablation: how many more
// chains greedy finds (the w sweep shows probes scale with the chain
// count). Chain decompositions are supplied by the generator (the
// Lemma 6 cost is measured separately in E4), and every cell averages
// several seeds. Run with the Practical constant preset (see
// ActiveSamplingParams and EXPERIMENTS.md).

#include <cmath>
#include <iostream>

#include "active/multi_d.h"
#include "active/oracle.h"
#include "bench_util.h"
#include "data/synthetic.h"
#include "util/stats.h"

namespace monoclass {
namespace {

constexpr int kTrials = 3;

// Mean probes of the Theorem 2 algorithm over seeds.
RunningStat MeasureProbes(const ChainInstance& instance, double epsilon) {
  RunningStat probes;
  for (int trial = 0; trial < kTrials; ++trial) {
    InMemoryOracle oracle(instance.data);
    ActiveSolveOptions options;
    options.sampling = ActiveSamplingParams::Practical(epsilon, 0.05);
    options.seed = 1000 + static_cast<uint64_t>(trial);
    options.precomputed_chains = instance.chains;
    const auto result =
        SolveActiveMultiD(instance.data.points(), oracle, options);
    probes.Add(static_cast<double>(result.probes));
  }
  return probes;
}

void Run() {
  bench::PrintHeader(
      "E5", "Theorem 2 (probing cost)",
      "probes = O((w/eps^2) log n log(n/w)): polylog in n, linear in w, "
      "quadratic in 1/eps");

  bench::PrintSection("n sweep (w = 8, eps = 1.0, 1% noise per chain)");
  {
    TextTable table({"n", "probes (mean)", "probes/n", "probes/log^2(n)"});
    for (const size_t length : {1024u, 4096u, 16384u, 65536u}) {
      ChainInstanceOptions options;
      options.num_chains = 8;
      options.chain_length = length;
      options.noise_per_chain = length / 100;
      options.seed = length;
      const ChainInstance instance = GenerateChainInstance(options);
      const RunningStat probes = MeasureProbes(instance, 1.0);
      const double n = static_cast<double>(instance.data.size());
      const double log_n = std::log2(n);
      table.AddRowValues(instance.data.size(),
                         FormatDouble(probes.Mean(), 6),
                         FormatDouble(probes.Mean() / n, 3),
                         FormatDouble(probes.Mean() / (log_n * log_n), 4));
    }
    bench::PrintTable(table);
  }

  bench::PrintSection("w sweep (n = 65536, eps = 1.0, 1% noise)");
  {
    TextTable table({"w", "chain len", "probes (mean)", "probes/w"});
    for (const size_t w : {2u, 4u, 8u, 16u, 32u}) {
      ChainInstanceOptions options;
      options.num_chains = w;
      options.chain_length = 65536 / w;
      options.noise_per_chain = options.chain_length / 100;
      options.seed = 7 * w;
      const ChainInstance instance = GenerateChainInstance(options);
      const RunningStat probes = MeasureProbes(instance, 1.0);
      table.AddRowValues(w, options.chain_length,
                         FormatDouble(probes.Mean(), 6),
                         FormatDouble(probes.Mean() / static_cast<double>(w),
                                      5));
    }
    bench::PrintTable(table);
  }

  bench::PrintSection("eps sweep (w = 8, chain length 16384, 1% noise)");
  {
    ChainInstanceOptions options;
    options.num_chains = 8;
    options.chain_length = 16384;
    options.noise_per_chain = 160;
    options.seed = 99;
    const ChainInstance instance = GenerateChainInstance(options);
    TextTable table({"eps", "probes (mean)", "probes*eps^2", "probes/n"});
    for (const double eps : {1.0, 0.5, 0.25}) {
      const RunningStat probes = MeasureProbes(instance, eps);
      table.AddRowValues(
          eps, FormatDouble(probes.Mean(), 6),
          FormatDouble(probes.Mean() * eps * eps, 5),
          FormatDouble(probes.Mean() /
                           static_cast<double>(instance.data.size()),
                       3));
    }
    bench::PrintTable(table);
  }

  bench::PrintSection(
      "ablation: minimum vs greedy decomposition on uniform sets "
      "(chain-count inflation; per the w sweep above, the probe bill "
      "scales with the chain count whenever chains are long enough "
      "to sample)");
  {
    TextTable table(
        {"n", "d", "min chains w", "greedy chains", "inflation"});
    for (const size_t d : {2u, 3u, 4u}) {
      PlantedOptions planted;
      planted.num_points = 4000;
      planted.dimension = d;
      planted.noise_flips = 40;
      planted.seed = 5 + d;
      const PlantedInstance instance = GeneratePlanted(planted);
      const size_t min_chains =
          MinimumChainDecomposition(instance.data.points()).NumChains();
      const size_t greedy_chains =
          GreedyChainDecomposition(instance.data.points()).NumChains();
      table.AddRowValues(4000, d, min_chains, greedy_chains,
                         FormatDouble(static_cast<double>(greedy_chains) /
                                          static_cast<double>(min_chains),
                                      3));
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
