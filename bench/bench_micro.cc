// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Google-benchmark micro benchmarks for the hot kernels: max-flow solvers,
// bipartite matching, dominance digraph construction, chain decomposition,
// classifier evaluation, and the passive solve pipeline.

#include <benchmark/benchmark.h>

#include "core/chain_decomposition.h"
#include "core/classifier.h"
#include "core/dominance.h"
#include "data/synthetic.h"
#include "graph/matching.h"
#include "graph/max_flow.h"
#include "passive/flow_solver.h"
#include "passive/threshold_index.h"
#include "util/random.h"

namespace monoclass {
namespace {

PlantedInstance MakePlanted(size_t n) {
  PlantedOptions options;
  options.num_points = n;
  options.dimension = 2;
  options.noise_flips = n / 50;
  options.seed = n;
  return GeneratePlanted(options);
}

void BM_DominanceDag(benchmark::State& state) {
  const auto instance = MakePlanted(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildDominanceDag(instance.data.points()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DominanceDag)->Range(256, 2048)->Complexity();

void BM_MinimumChainDecomposition(benchmark::State& state) {
  const auto instance = MakePlanted(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MinimumChainDecomposition(instance.data.points()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinimumChainDecomposition)->Range(256, 2048)->Complexity();

void BM_GreedyChainDecomposition(benchmark::State& state) {
  const auto instance = MakePlanted(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GreedyChainDecomposition(instance.data.points()));
  }
}
BENCHMARK(BM_GreedyChainDecomposition)->Range(256, 2048);

void BM_PassiveSolve(benchmark::State& state) {
  const auto instance = MakePlanted(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolvePassiveUnweighted(instance.data));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PassiveSolve)->Range(512, 4096)->Complexity();

void BM_ClassifierEvaluation(benchmark::State& state) {
  const auto instance = MakePlanted(4096);
  const auto result = SolvePassiveUnweighted(instance.data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CountErrors(result.classifier, instance.data));
  }
}
BENCHMARK(BM_ClassifierEvaluation);

void BM_MaxFlowSolver(benchmark::State& state) {
  // Layered unit network sized by the first argument.
  const int width = static_cast<int>(state.range(0));
  const auto algorithm =
      AllMaxFlowAlgorithms()[static_cast<size_t>(state.range(1))];
  Rng rng(static_cast<uint64_t>(width));
  FlowNetwork reference(2 + 3 * width);
  const int source = 0;
  const int sink = 1;
  auto vertex = [&](int layer, int i) { return 2 + layer * width + i; };
  for (int i = 0; i < width; ++i) {
    reference.AddEdge(source, vertex(0, i),
                      static_cast<double>(1 + rng.UniformInt(20)));
    reference.AddEdge(vertex(2, i), sink,
                      static_cast<double>(1 + rng.UniformInt(20)));
  }
  for (int layer = 0; layer < 2; ++layer) {
    for (int i = 0; i < width; ++i) {
      for (int j = 0; j < width; ++j) {
        if (rng.Bernoulli(0.3)) {
          reference.AddEdge(vertex(layer, i), vertex(layer + 1, j),
                            static_cast<double>(1 + rng.UniformInt(10)));
        }
      }
    }
  }
  const auto solver = CreateMaxFlowSolver(algorithm);
  for (auto _ : state) {
    state.PauseTiming();
    FlowNetwork network = reference;
    network.ResetFlow();
    state.ResumeTiming();
    benchmark::DoNotOptimize(solver->Solve(network, source, sink));
  }
  state.SetLabel(solver->Name());
}
// The second argument indexes AllMaxFlowAlgorithms().
BENCHMARK(BM_MaxFlowSolver)
    ->ArgsProduct(
        {{32, 96},
         benchmark::CreateDenseRange(
             0, static_cast<int64_t>(AllMaxFlowAlgorithms().size()) - 1, 1)});

void BM_ThresholdIndexActivate(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<double> candidates(n);
  for (size_t i = 0; i < n; ++i) candidates[i] = static_cast<double>(i);
  Rng rng(n);
  ThresholdErrorIndex index(candidates);
  for (auto _ : state) {
    index.Activate(static_cast<double>(rng.UniformInt(n)),
                   rng.Bernoulli(0.5) ? 1 : 0, 1.0);
    benchmark::DoNotOptimize(index.BestThreshold());
  }
}
BENCHMARK(BM_ThresholdIndexActivate)->Range(1024, 262144);

void BM_HopcroftKarp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(static_cast<uint64_t>(n));
  BipartiteGraph graph(n, n);
  for (int l = 0; l < n; ++l) {
    for (int r = 0; r < n; ++r) {
      if (rng.Bernoulli(0.05)) graph.AddEdge(l, r);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(HopcroftKarpMatching(graph));
  }
}
BENCHMARK(BM_HopcroftKarp)->Range(128, 2048);

void BM_KuhnMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(static_cast<uint64_t>(n));
  BipartiteGraph graph(n, n);
  for (int l = 0; l < n; ++l) {
    for (int r = 0; r < n; ++r) {
      if (rng.Bernoulli(0.05)) graph.AddEdge(l, r);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(KuhnMatching(graph));
  }
}
BENCHMARK(BM_KuhnMatching)->Range(128, 1024);

}  // namespace
}  // namespace monoclass

BENCHMARK_MAIN();
