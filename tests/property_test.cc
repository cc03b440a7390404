// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P)
// covering the library's core invariants across instance-shape grids:
//
//   * passive flow solver == brute force on every (n, d) cell;
//   * chain decomposition invariants across planted widths;
//   * the active pipeline's error floor / probe ceiling across
//     (noise, epsilon) cells.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "active/multi_d.h"
#include "active/oracle.h"
#include "core/antichain.h"
#include "core/chain_decomposition.h"
#include "core/chain_decomposition_2d.h"
#include "data/synthetic.h"
#include "passive/brute_force.h"
#include "passive/flow_solver.h"
#include "passive/isotonic_1d.h"
#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

// ---------- passive solver vs brute force across (n, d) ----------

class PassiveEquivalenceProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(PassiveEquivalenceProperty, FlowMatchesBruteForce) {
  const auto [n, d] = GetParam();
  Rng rng(1000 * n + d);
  for (int trial = 0; trial < 15; ++trial) {
    const auto set = testing_util::RandomWeightedSet(
        rng, n, d, rng.UniformDoubleInRange(0.15, 0.85));
    const auto flow = SolvePassiveWeighted(set);
    const auto brute = SolvePassiveBruteForce(set);
    ASSERT_NEAR(flow.optimal_weighted_error, brute.optimal_weighted_error,
                1e-9)
        << "n=" << n << " d=" << d << " trial=" << trial;
    ASSERT_TRUE(IsMonotoneAssignment(set.points(), flow.assignment));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeDimensionGrid, PassiveEquivalenceProperty,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 5, 9, 14),
                       ::testing::Values<size_t>(1, 2, 3, 5)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>&
           param_info) {
      // Appended, not chained with operator+: gcc 12 Release builds
      // report a false -Wrestrict on the chain.
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_d";
      name += std::to_string(std::get<1>(param_info.param));
      return name;
    });

// ---------- chain decompositions across planted widths ----------

class ChainWidthProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(ChainWidthProperty, AllDecomposersAgreeOnPlantedWidth) {
  const size_t w = GetParam();
  ChainInstanceOptions options;
  options.num_chains = w;
  options.chain_length = 24;
  options.noise_per_chain = 2;
  options.seed = 11 * w + 1;
  const ChainInstance instance = GenerateChainInstance(options);
  const PointSet& points = instance.data.points();

  const auto lemma6 = MinimumChainDecomposition(points);
  const auto fast2d = MinimumChainDecomposition2D(points);
  const auto greedy = GreedyChainDecomposition(points);

  EXPECT_TRUE(ValidateChainDecomposition(points, lemma6));
  EXPECT_TRUE(ValidateChainDecomposition(points, fast2d));
  EXPECT_TRUE(ValidateChainDecomposition(points, greedy));
  EXPECT_EQ(lemma6.NumChains(), w);
  EXPECT_EQ(fast2d.NumChains(), w);
  EXPECT_GE(greedy.NumChains(), w);
  EXPECT_EQ(DominanceWidth(points), w);
  EXPECT_EQ(MaximumAntichain(points).size(), w);
}

INSTANTIATE_TEST_SUITE_P(PlantedWidths, ChainWidthProperty,
                         ::testing::Values<size_t>(1, 2, 3, 5, 8, 13, 21),
                         ::testing::PrintToStringParamName());

// ---------- active pipeline invariants across (noise, eps) ----------

struct ActiveCell {
  size_t noise_per_chain;
  double epsilon;
};

class ActivePipelineProperty : public ::testing::TestWithParam<ActiveCell> {
};

TEST_P(ActivePipelineProperty, ErrorFloorAndProbeCeiling) {
  const ActiveCell cell = GetParam();
  ChainInstanceOptions data_options;
  data_options.num_chains = 4;
  data_options.chain_length = 700;
  data_options.noise_per_chain = cell.noise_per_chain;
  data_options.seed = 17 + cell.noise_per_chain;
  const ChainInstance instance = GenerateChainInstance(data_options);
  const size_t optimum = OptimalError(instance.data);

  InMemoryOracle oracle(instance.data);
  ActiveSolveOptions options;
  options.sampling = ActiveSamplingParams::Practical(cell.epsilon, 0.05);
  options.seed = 2026;
  options.precomputed_chains = instance.chains;
  const auto result =
      SolveActiveMultiD(instance.data.points(), oracle, options);

  // Invariants that hold on EVERY run, independent of sampling luck:
  // the returned error can never beat k*, probes can never exceed n,
  // Sigma labels are true labels, the classifier is monotone on P.
  EXPECT_GE(CountErrors(result.classifier, instance.data), optimum);
  EXPECT_LE(result.probes, instance.data.size());
  EXPECT_TRUE(IsMonotoneAssignment(
      instance.data.points(),
      result.classifier.ClassifySet(instance.data.points())));
  EXPECT_EQ(result.num_chains, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    NoiseEpsilonGrid, ActivePipelineProperty,
    ::testing::Values(ActiveCell{0, 1.0}, ActiveCell{0, 0.25},
                      ActiveCell{10, 1.0}, ActiveCell{10, 0.5},
                      ActiveCell{70, 1.0}, ActiveCell{70, 0.25},
                      ActiveCell{350, 0.5}),
    [](const ::testing::TestParamInfo<ActiveCell>& param_info) {
      std::string eps = std::to_string(param_info.param.epsilon);
      eps.erase(eps.find_last_not_of('0') + 1);
      for (char& c : eps) {
        if (c == '.') c = '_';
      }
      return "noise" + std::to_string(param_info.param.noise_per_chain) +
             "_eps" + eps;
    });

// ---------- 1D exact solver vs flow solver across tie densities ----------

class TieDensityProperty : public ::testing::TestWithParam<int> {};

TEST_P(TieDensityProperty, Isotonic1DMatchesFlowUnderTies) {
  const int grid = GetParam();  // smaller grid = denser ties
  Rng rng(static_cast<uint64_t>(grid) * 7919);
  for (int trial = 0; trial < 20; ++trial) {
    WeightedPointSet set;
    const size_t n = 1 + rng.UniformInt(40);
    for (size_t i = 0; i < n; ++i) {
      set.Add(
          Point{static_cast<double>(rng.UniformInt(
              static_cast<uint64_t>(grid)))},
          rng.Bernoulli(0.5) ? 1 : 0, rng.UniformDoubleInRange(0.5, 4.0));
    }
    const auto direct = Solve1DWeighted(ToWeighted1D(set));
    const auto flow = SolvePassiveWeighted(set);
    ASSERT_NEAR(direct.optimal_weighted_error, flow.optimal_weighted_error,
                1e-9)
        << "grid=" << grid << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(TieDensities, TieDensityProperty,
                         ::testing::Values(2, 3, 5, 10, 50),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace monoclass
