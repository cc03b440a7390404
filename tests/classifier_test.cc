// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for the minimal-generator monotone classifier: construction,
// evaluation, the 1D threshold form of paper eq. (6)-(7), assignment
// extension, the monotonicity-by-construction property, and
// EquivalentOn.

#include "core/classifier.h"

#include <limits>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ClassifierTest, AlwaysZero) {
  const auto h = MonotoneClassifier::AlwaysZero(2);
  EXPECT_TRUE(h.IsAlwaysZero());
  EXPECT_FALSE(h.IsAlwaysOne());
  EXPECT_FALSE(h.Classify(Point{100, 100}));
}

TEST(ClassifierTest, AlwaysOne) {
  const auto h = MonotoneClassifier::AlwaysOne(2);
  EXPECT_TRUE(h.IsAlwaysOne());
  EXPECT_FALSE(h.IsAlwaysZero());
  EXPECT_TRUE(h.Classify(Point{-100, -100}));
}

TEST(ClassifierTest, SingleGenerator) {
  const auto h = MonotoneClassifier::FromGenerators({Point{1, 2}}, 2);
  EXPECT_TRUE(h.Classify(Point{1, 2}));   // boundary included
  EXPECT_TRUE(h.Classify(Point{5, 5}));
  EXPECT_FALSE(h.Classify(Point{0.5, 5}));
  EXPECT_FALSE(h.Classify(Point{5, 1.5}));
}

TEST(ClassifierTest, RedundantGeneratorsPruned) {
  const auto h = MonotoneClassifier::FromGenerators(
      {Point{1, 1}, Point{2, 2}, Point{1, 1}, Point{3, 0.5}}, 2);
  // (2,2) dominates (1,1); the duplicate (1,1) collapses to one.
  ASSERT_EQ(h.generators().size(), 2u);
}

TEST(ClassifierTest, MinimalGeneratorsKeepsAntichain) {
  const auto minimal = MinimalGenerators(
      {Point{0, 3}, Point{3, 0}, Point{2, 2}, Point{4, 4}});
  // (4,4) dominates (2,2); the remaining three are pairwise incomparable.
  ASSERT_EQ(minimal.size(), 3u);
  for (size_t i = 0; i < minimal.size(); ++i) {
    for (size_t j = 0; j < minimal.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(DominatesEq(minimal[i], minimal[j]));
      }
    }
  }
}

TEST(ClassifierTest, MinimalGeneratorsAllDuplicates) {
  const auto minimal =
      MinimalGenerators({Point{1, 1}, Point{1, 1}, Point{1, 1}});
  EXPECT_EQ(minimal.size(), 1u);
}

TEST(Threshold1DTest, StrictInequality) {
  // h^tau(p) = 1 iff p > tau (paper eq. (6)).
  const auto h = MonotoneClassifier::Threshold1D(2.0);
  EXPECT_FALSE(h.Classify(Point{2.0}));
  EXPECT_TRUE(h.Classify(Point{2.0000001}));
  EXPECT_TRUE(h.Classify(Point{3.0}));
  EXPECT_FALSE(h.Classify(Point{1.0}));
}

TEST(Threshold1DTest, MinusInfinityIsAlwaysOne) {
  const auto h = MonotoneClassifier::Threshold1D(-kInf);
  EXPECT_TRUE(h.IsAlwaysOne());
  EXPECT_TRUE(h.Classify(Point{-1e308}));
}

TEST(ClassifierTest, FromAssignmentAcceptsMonotone) {
  const PointSet points({Point{0, 0}, Point{1, 1}, Point{2, 2}});
  const auto h = MonotoneClassifier::FromAssignment(points, {0, 0, 1});
  ASSERT_TRUE(h.has_value());
  EXPECT_FALSE(h->Classify(points[0]));
  EXPECT_FALSE(h->Classify(points[1]));
  EXPECT_TRUE(h->Classify(points[2]));
}

TEST(ClassifierTest, FromAssignmentRejectsNonMonotone) {
  const PointSet points({Point{0, 0}, Point{1, 1}});
  EXPECT_FALSE(MonotoneClassifier::FromAssignment(points, {1, 0}).has_value());
}

TEST(ClassifierTest, FromAssignmentEqualPointsMustAgree) {
  const PointSet points({Point{1, 1}, Point{1, 1}});
  EXPECT_FALSE(MonotoneClassifier::FromAssignment(points, {1, 0}).has_value());
  EXPECT_FALSE(MonotoneClassifier::FromAssignment(points, {0, 1}).has_value());
  EXPECT_TRUE(MonotoneClassifier::FromAssignment(points, {1, 1}).has_value());
}

TEST(ClassifierTest, FromAssignmentIncomparableFreedom) {
  const PointSet points({Point{0, 1}, Point{1, 0}});
  EXPECT_TRUE(MonotoneClassifier::FromAssignment(points, {1, 0}).has_value());
  EXPECT_TRUE(MonotoneClassifier::FromAssignment(points, {0, 1}).has_value());
}

TEST(ClassifierTest, FromAssignmentRoundTripsOnPoints) {
  Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    // Random upward-closed assignment: labels from a random generator set.
    const auto set = testing_util::RandomLabeledSet(rng, 12, 3);
    const auto reference = MonotoneClassifier::FromGenerators(
        {Point{0.3, 0.4, 0.5}, Point{0.6, 0.1, 0.7}}, 3);
    const std::vector<Label> values = reference.ClassifySet(set.points());
    const auto rebuilt =
        MonotoneClassifier::FromAssignment(set.points(), values);
    ASSERT_TRUE(rebuilt.has_value());
    EXPECT_EQ(rebuilt->ClassifySet(set.points()), values) << "trial " << trial;
  }
}

TEST(ClassifierTest, ClassificationIsMonotoneByConstruction) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Point> generators;
    const size_t g = 1 + rng.UniformInt(4);
    for (size_t i = 0; i < g; ++i) {
      generators.push_back(
          Point{rng.UniformDouble(), rng.UniformDouble()});
    }
    const auto h = MonotoneClassifier::FromGenerators(generators, 2);
    // The kept generators form an antichain.
    const auto& gens = h.generators();
    for (size_t i = 0; i < gens.size(); ++i) {
      for (size_t j = 0; j < gens.size(); ++j) {
        if (i != j) {
          EXPECT_FALSE(DominatesEq(gens[i], gens[j]));
        }
      }
    }
    for (int check = 0; check < 50; ++check) {
      const Point low{rng.UniformDouble(), rng.UniformDouble()};
      const Point high{low[0] + rng.UniformDouble(),
                       low[1] + rng.UniformDouble()};
      // high dominates low, so h(high) >= h(low).
      EXPECT_GE(h.Classify(high), h.Classify(low));
    }
  }
}

TEST(ErrorsTest, CountErrorsMatchesDefinition) {
  LabeledPointSet set;
  set.Add(Point{0}, 0);
  set.Add(Point{1}, 1);
  set.Add(Point{2}, 0);  // violates monotonicity of the labels themselves
  set.Add(Point{3}, 1);
  const auto h = MonotoneClassifier::Threshold1D(0.5);  // 1 iff p > 0.5
  // Predictions: 0, 1, 1, 1 -> errors at Point{2} only.
  EXPECT_EQ(CountErrors(h, set), 1u);
}

TEST(ErrorsTest, WeightedErrorSpecializesToCount) {
  Rng rng(17);
  const auto labeled = testing_util::RandomLabeledSet(rng, 30, 2);
  const auto weighted = WeightedPointSet::UnitWeights(labeled);
  const auto h = MonotoneClassifier::FromGenerators({Point{0.5, 0.5}}, 2);
  EXPECT_DOUBLE_EQ(WeightedError(h, weighted),
                   static_cast<double>(CountErrors(h, labeled)));
}

TEST(ErrorsTest, WeightedErrorUsesWeights) {
  WeightedPointSet set;
  set.Add(Point{0}, 1, 10.0);  // classified 0 by threshold 0.5 -> error 10
  set.Add(Point{1}, 1, 2.0);   // classified 1 -> correct
  set.Add(Point{2}, 0, 5.0);   // classified 1 -> error 5
  const auto h = MonotoneClassifier::Threshold1D(0.5);
  EXPECT_DOUBLE_EQ(WeightedError(h, set), 15.0);
}

TEST(MonotoneAssignmentTest, AuditsDominancePairs) {
  const PointSet points({Point{0, 0}, Point{2, 2}, Point{1, 3}});
  EXPECT_TRUE(IsMonotoneAssignment(points, {0, 1, 1}));
  EXPECT_TRUE(IsMonotoneAssignment(points, {0, 0, 0}));
  EXPECT_TRUE(IsMonotoneAssignment(points, {0, 1, 0}));  // incomparable pair
  EXPECT_FALSE(IsMonotoneAssignment(points, {1, 0, 0}));
}

TEST(ClassifierTest, ToStringMentionsGenerators) {
  const auto h = MonotoneClassifier::FromGenerators({Point{1, 2}}, 2);
  EXPECT_NE(h.ToString().find("(1, 2)"), std::string::npos);
}

TEST(EquivalentOnTest, DetectsDisagreement) {
  const auto a = MonotoneClassifier::Threshold1D(1.0);
  const auto b = MonotoneClassifier::Threshold1D(2.0);
  const PointSet inside({Point{1.5}});
  const PointSet outside({Point{0.5}, Point{3.0}});
  EXPECT_FALSE(EquivalentOn(a, b, inside));
  EXPECT_TRUE(EquivalentOn(a, b, outside));
  EXPECT_TRUE(EquivalentOn(a, b, PointSet()));
}

}  // namespace
}  // namespace monoclass
