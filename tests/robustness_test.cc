// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Robustness and degenerate-input tests: extreme weights, extreme
// coordinates, all-identical points, single-class inputs, NaN rejection.
// These are the inputs that break numerics or hidden assumptions.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "active/multi_d.h"
#include "active/oracle.h"
#include "core/antichain.h"
#include "graph/graph.h"
#include "passive/brute_force.h"
#include "passive/flow_solver.h"
#include "passive/incremental_solver.h"
#include "util/random.h"

namespace monoclass {
namespace {

TEST(RobustnessTest, NanCoordinatesAreRejected) {
  PointSet points;
  EXPECT_DEATH(points.Add(Point{std::nan(""), 1.0}), "finite");
}

TEST(RobustnessTest, InfiniteCoordinatesAreRejected) {
  PointSet points;
  EXPECT_DEATH(
      points.Add(Point{std::numeric_limits<double>::infinity(), 1.0}),
      "finite");
}

TEST(RobustnessTest, ExtremeWeightSpread) {
  // Weights spanning 14 orders of magnitude: the flow solver's
  // effective-infinity and tolerance logic must not confuse them.
  WeightedPointSet set;
  set.Add(Point{0, 0}, 1, 1e-6);   // tiny inverted positive below...
  set.Add(Point{1, 1}, 0, 1e8);    // ...a huge negative
  const auto result = SolvePassiveWeighted(set);
  EXPECT_NEAR(result.optimal_weighted_error, 1e-6, 1e-12);
  EXPECT_EQ(result.assignment[0], 0);
  EXPECT_EQ(result.assignment[1], 0);
}

TEST(RobustnessTest, ExtremeWeightsMatchBruteForce) {
  Rng rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    WeightedPointSet set;
    const size_t n = 2 + rng.UniformInt(10);
    for (size_t i = 0; i < n; ++i) {
      const double magnitude =
          std::pow(10.0, rng.UniformDoubleInRange(-6.0, 6.0));
      set.Add(Point{rng.UniformDouble(), rng.UniformDouble()},
              rng.Bernoulli(0.5) ? 1 : 0, magnitude);
    }
    const double flow = SolvePassiveWeighted(set).optimal_weighted_error;
    const double brute =
        SolvePassiveBruteForce(set).optimal_weighted_error;
    // Relative tolerance: magnitudes differ wildly across trials.
    EXPECT_NEAR(flow, brute, 1e-9 * std::max(1.0, brute))
        << "trial " << trial;
  }
}

TEST(RobustnessTest, HugeCoordinates) {
  LabeledPointSet set;
  set.Add(Point{-1e300, -1e300}, 0);
  set.Add(Point{1e300, 1e300}, 1);
  set.Add(Point{0, 0}, 0);
  EXPECT_EQ(OptimalError(set), 0u);
  EXPECT_EQ(DominanceWidth(set.points()), 1u);
}

TEST(RobustnessTest, AllPointsIdentical) {
  // Every point equal: a classifier must give them one value; the
  // optimum is the lighter label class.
  LabeledPointSet set;
  for (int i = 0; i < 10; ++i) {
    set.Add(Point{1, 2}, i < 3 ? 1 : 0);
  }
  EXPECT_EQ(OptimalError(set), 3u);
  EXPECT_EQ(DominanceWidth(set.points()), 1u);
}

TEST(RobustnessTest, SingleClassAllPositive) {
  LabeledPointSet set;
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    set.Add(Point{rng.UniformDouble(), rng.UniformDouble()}, 1);
  }
  const auto result = SolvePassiveUnweighted(set);
  EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 0.0);
  for (size_t i = 0; i < set.size(); ++i) {
    EXPECT_TRUE(result.classifier.Classify(set.point(i)));
  }
}

TEST(RobustnessTest, SingleClassAllNegative) {
  LabeledPointSet set;
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    set.Add(Point{rng.UniformDouble(), rng.UniformDouble()}, 0);
  }
  const auto result = SolvePassiveUnweighted(set);
  EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 0.0);
  EXPECT_TRUE(result.classifier.IsAlwaysZero());
}

TEST(RobustnessTest, ActiveSolverOnSinglePoint) {
  LabeledPointSet set;
  set.Add(Point{1, 1}, 1);
  InMemoryOracle oracle(set);
  ActiveSolveOptions options;
  const auto result = SolveActiveMultiD(set.points(), oracle, options);
  EXPECT_EQ(result.probes, 1u);
  EXPECT_EQ(CountErrors(result.classifier, set), 0u);
}

TEST(RobustnessTest, ActiveSolverOnAntichain) {
  // Pure antichain: every point is its own chain; the solver must probe
  // everything (each chain of size 1) and be exact.
  LabeledPointSet set;
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    set.Add(Point{static_cast<double>(i), static_cast<double>(40 - i)},
            rng.Bernoulli(0.5) ? 1 : 0);
  }
  InMemoryOracle oracle(set);
  ActiveSolveOptions options;
  const auto result = SolveActiveMultiD(set.points(), oracle, options);
  EXPECT_EQ(result.num_chains, 40u);
  EXPECT_EQ(result.probes, 40u);
  EXPECT_EQ(CountErrors(result.classifier, set), 0u);
}

// One label-0 point of weight 1 above n label-1 points of weight
// `light` on the antichain x + y = 0.5: the optimum gives every point 0
// and costs n * light, which the flow must carry edge by edge.
WeightedPointSet HeavyPointAboveLightAntichain(size_t n, double light) {
  WeightedPointSet set;
  set.Add(Point{1, 1}, 0, 1.0);
  for (size_t k = 0; k < n; ++k) {
    const double x = 0.5 * static_cast<double>(k) / static_cast<double>(n);
    set.Add(Point{x, 0.5 - x}, 1, light);
  }
  return set;
}

TEST(RobustnessTest, WeightsAtOrBelowTheFlowToleranceAreRefused) {
  // The max-flow solvers count a residual at or below kFlowEps as
  // saturated. With 1e-9 weights every sink edge would look saturated, the
  // flow would stay 0 while the cut classifier's error is 2e-6, and the
  // Lemma 17 cross-check would abort mid-solve, so such weights (and
  // denormal ones) are refused up front.
  EXPECT_DEATH(SolvePassiveWeighted(HeavyPointAboveLightAntichain(2000, 1e-9)),
               "kFlowEps");
  WeightedPointSet denormal;
  denormal.Add(Point{0, 0}, 1, 1e-308);
  denormal.Add(Point{1, 1}, 0, 1.0);
  EXPECT_DEATH(SolvePassiveWeighted(denormal), "kFlowEps");
  EXPECT_DEATH(IncrementalPassiveSolver{denormal}, "kFlowEps");
  EXPECT_DEATH(
      {
        IncrementalPassiveSolver solver;
        solver.Insert(Point{0, 0}, 1, kFlowEps);
      },
      "kFlowEps");
}

TEST(RobustnessTest, WeightsJustAboveTheFlowToleranceSolveExactly) {
  const size_t n = 20000;
  const WeightedPointSet set = HeavyPointAboveLightAntichain(n, 1.01e-9);
  const PassiveSolveResult result = SolvePassiveWeighted(set);
  EXPECT_NEAR(result.optimal_weighted_error, 1.01e-9 * n, 1e-12);
  EXPECT_EQ(result.assignment, std::vector<Label>(n + 1, 0));
}

TEST(RobustnessTest, AdjacentCoordinatesDistinguished) {
  // Coordinates one ulp apart must still order correctly everywhere.
  const double base = 1.0;
  const double next =
      std::nextafter(base, std::numeric_limits<double>::infinity());
  LabeledPointSet set;
  set.Add(Point{base}, 0);
  set.Add(Point{next}, 1);
  EXPECT_EQ(OptimalError(set), 0u);
  const auto result = SolvePassiveUnweighted(set);
  EXPECT_FALSE(result.classifier.Classify(Point{base}));
  EXPECT_TRUE(result.classifier.Classify(Point{next}));
}

TEST(RobustnessTest, WidthOfLongChainPlusOneOutlier) {
  PointSet points;
  for (int i = 0; i < 100; ++i) {
    points.Add(Point{static_cast<double>(i), static_cast<double>(i)});
  }
  points.Add(Point{-1.0, 1000.0});  // incomparable with most of the chain
  EXPECT_EQ(DominanceWidth(points), 2u);
}

}  // namespace
}  // namespace monoclass
