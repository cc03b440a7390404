// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for the Lemma 15 contending-point computation.

#include "passive/contending.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

TEST(ContendingTest, MonotoneLabelsHaveNoContending) {
  const PointSet points({Point{0, 0}, Point{1, 1}, Point{2, 2}});
  const auto partition = ComputeContending(points, {0, 0, 1});
  EXPECT_TRUE(partition.contending.empty());
}

TEST(ContendingTest, InversionMakesBothContending) {
  const PointSet points({Point{0, 0}, Point{1, 1}});
  const auto partition = ComputeContending(points, {1, 0});
  EXPECT_EQ(partition.contending, (std::vector<size_t>{0, 1}));
}

TEST(ContendingTest, IncomparableOppositeLabelsNotContending) {
  const PointSet points({Point{0, 1}, Point{1, 0}});
  const auto partition = ComputeContending(points, {1, 0});
  EXPECT_TRUE(partition.contending.empty());
}

TEST(ContendingTest, EqualPointsOppositeLabelsAreContending) {
  const PointSet points({Point{1, 1}, Point{1, 1}});
  const auto partition = ComputeContending(points, {0, 1});
  EXPECT_EQ(partition.contending, (std::vector<size_t>{0, 1}));
}

TEST(ContendingTest, ChainReactionDoesNotOverreach) {
  // 0 <= 1 <= 2 with labels 1, 0, 1: point 2 dominates the label-0 point 1
  // but that does not make point 2 contending (it needs a label-0 point
  // ABOVE it); point 0 is below label-0 point 1 -> contending; point 1
  // dominates label-1 point 0 -> contending.
  const PointSet points({Point{0, 0}, Point{1, 1}, Point{2, 2}});
  const auto partition = ComputeContending(points, {1, 0, 1});
  EXPECT_EQ(partition.contending, (std::vector<size_t>{0, 1}));
  EXPECT_FALSE(partition.is_contending[2]);
}

TEST(ContendingTest, FlagsMatchIndexList) {
  Rng rng(83);
  for (int trial = 0; trial < 30; ++trial) {
    const auto set = testing_util::RandomLabeledSet(rng, 25, 2);
    const auto partition = ComputeContending(set.points(), set.labels());
    size_t flagged = 0;
    for (size_t i = 0; i < set.size(); ++i) {
      if (partition.is_contending[i]) ++flagged;
    }
    EXPECT_EQ(flagged, partition.contending.size());
    for (const size_t i : partition.contending) {
      EXPECT_TRUE(partition.is_contending[i]);
    }
  }
}

TEST(ContendingTest, DefinitionAuditOnRandomSets) {
  // Re-derive contending status point by point from the definition.
  Rng rng(89);
  for (int trial = 0; trial < 30; ++trial) {
    const auto set = testing_util::RandomLabeledSet(rng, 20, 3);
    const auto partition = ComputeContending(set.points(), set.labels());
    for (size_t i = 0; i < set.size(); ++i) {
      bool expected = false;
      for (size_t j = 0; j < set.size() && !expected; ++j) {
        if (i == j || set.label(i) == set.label(j)) continue;
        if (set.label(i) == 0) {
          expected = DominatesEq(set.point(i), set.point(j));
        } else {
          expected = DominatesEq(set.point(j), set.point(i));
        }
      }
      EXPECT_EQ(partition.is_contending[i], expected)
          << "point " << i << ", trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------
// ComputeContending queries the dominance frontiers of the two labels;
// ComputeContendingScan is the pairwise reference it must match bit for
// bit in every dimension.

void ExpectFrontierMatchesScan(const PointSet& points,
                               const std::vector<Label>& labels) {
  const auto frontier = ComputeContending(points, labels);
  const auto scan = ComputeContendingScan(points, labels);
  EXPECT_EQ(frontier.contending, scan.contending);
  EXPECT_EQ(frontier.is_contending, scan.is_contending);
}

TEST(ContendingFrontierTest, EqualXDifferentY) {
  // Label-0 (1, 2) sits above label-1 (1, 1) on one vertical line; the
  // reverse labels are monotone.
  const PointSet points({Point{1, 2}, Point{1, 1}, Point{1, 3}});
  const auto partition = ComputeContending(points, {0, 1, 1});
  EXPECT_EQ(partition.contending, (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(ComputeContending(points, {1, 0, 1}).contending.empty());
  ExpectFrontierMatchesScan(points, {0, 1, 1});
  ExpectFrontierMatchesScan(points, {1, 0, 1});
}

TEST(ContendingFrontierTest, EqualYDifferentX) {
  const PointSet points({Point{2, 1}, Point{1, 1}, Point{0, 1}});
  const auto partition = ComputeContending(points, {0, 1, 0});
  EXPECT_EQ(partition.contending, (std::vector<size_t>{0, 1}));
  EXPECT_FALSE(partition.is_contending[2]);
  ExpectFrontierMatchesScan(points, {0, 1, 0});
  ExpectFrontierMatchesScan(points, {1, 0, 1});
}

TEST(ContendingFrontierTest, CoordinateEqualOppositeLabelsAreBothContending) {
  const PointSet points({Point{1, 1}, Point{0, 5}, Point{1, 1}});
  const auto partition = ComputeContending(points, {1, 0, 0});
  EXPECT_EQ(partition.contending, (std::vector<size_t>{0, 2}));
  ExpectFrontierMatchesScan(points, {1, 0, 0});
}

TEST(ContendingFrontierTest, NegativeZeroTiesZero) {
  // -0.0 and 0.0 are one coordinate: the two points are coordinate-equal.
  const PointSet points({Point{-0.0, 0.0}, Point{0.0, -0.0}});
  const auto partition = ComputeContending(points, {1, 0});
  EXPECT_EQ(partition.contending, (std::vector<size_t>{0, 1}));
  ExpectFrontierMatchesScan(points, {1, 0});
  ExpectFrontierMatchesScan(points, {0, 1});
}

TEST(ContendingFrontierTest, SinglePointAndSingleLabel) {
  const PointSet one({Point{3, 4}});
  EXPECT_TRUE(ComputeContending(one, {0}).contending.empty());
  EXPECT_TRUE(ComputeContending(one, {1}).contending.empty());
  const PointSet points({Point{0, 0}, Point{1, 1}, Point{1, 1}, Point{2, 0}});
  EXPECT_TRUE(ComputeContending(points, {0, 0, 0, 0}).contending.empty());
  EXPECT_TRUE(ComputeContending(points, {1, 1, 1, 1}).contending.empty());
  EXPECT_TRUE(ComputeContending(PointSet(), {}).contending.empty());
}

TEST(ContendingFrontierTest, OneDimension) {
  // On a line a label-0 point contends iff it is at or above the least
  // label-1 point; equal points and -0.0 == 0.0 conflict both ways.
  const PointSet line({Point{2}, Point{0.0}, Point{3}, Point{-0.0}, Point{1}});
  const auto partition = ComputeContending(line, {1, 1, 0, 0, 0});
  EXPECT_EQ(partition.contending, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(ComputeContending(line, {1, 0, 1, 0, 0}).is_contending[2]);
  ExpectFrontierMatchesScan(line, {1, 1, 0, 0, 0});
  ExpectFrontierMatchesScan(line, {1, 0, 1, 0, 0});
  ExpectFrontierMatchesScan(line, {0, 1, 1, 1, 0});
}

TEST(ContendingFrontierTest, ThreeDimensionsWithTiesOnOneAxis) {
  // All points share z; (1, 2, 5) and (1, 1, 5) share x as well. The
  // duplicate pair (0, 0, 5) / (-0.0, 0, 5) has opposite labels.
  const PointSet points({Point{1, 2, 5}, Point{1, 1, 5}, Point{0, 0, 5},
                         Point{-0.0, 0, 5}, Point{2, 0, 5}, Point{0, 3, 5}});
  const auto partition = ComputeContending(points, {0, 1, 1, 0, 0, 1});
  EXPECT_EQ(partition.contending, (std::vector<size_t>{0, 1, 2, 3, 4}));
  for (const std::vector<Label>& labels :
       {std::vector<Label>{0, 1, 1, 0, 0, 1},
        std::vector<Label>{1, 0, 0, 1, 1, 0},
        std::vector<Label>{1, 1, 0, 0, 1, 0}}) {
    ExpectFrontierMatchesScan(points, labels);
  }
}

TEST(ContendingFrontierTest, MatchesScanOnRandomGridSets) {
  // A coarse grid with signed zeros makes ties and duplicates common.
  Rng rng(97);
  for (size_t d = 1; d <= 4; ++d) {
    for (int trial = 0; trial < 150; ++trial) {
      const size_t n = 1 + rng.UniformInt(30);
      PointSet points;
      std::vector<Label> labels;
      for (size_t i = 0; i < n; ++i) {
        std::vector<double> coords(d);
        for (double& c : coords) {
          c = static_cast<double>(rng.UniformInt(4)) - 1.0;
          if (c == 0.0 && rng.UniformInt(2) == 0) c = -0.0;
        }
        points.Add(Point(std::move(coords)));
        labels.push_back(static_cast<Label>(rng.UniformInt(2)));
      }
      SCOPED_TRACE(::testing::Message() << "d " << d << ", trial " << trial);
      ExpectFrontierMatchesScan(points, labels);
    }
  }
}

}  // namespace
}  // namespace monoclass
