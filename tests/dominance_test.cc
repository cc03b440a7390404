// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for the dominance DAG builder: edge semantics, the duplicate-point
// index tie-break, acyclicity, and transitive closure. Also the dominance
// frontier: its members, and its query against a scan of the whole set.

#include "core/dominance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

bool HasEdge(const DagAdjacency& dag, size_t u, size_t v) {
  const auto& out = dag[u];
  return std::find(out.begin(), out.end(), static_cast<int>(v)) != out.end();
}

TEST(DominanceDagTest, SimpleChain) {
  const PointSet points({Point{0, 0}, Point{1, 1}, Point{2, 2}});
  const DagAdjacency dag = BuildDominanceDag(points);
  EXPECT_TRUE(HasEdge(dag, 0, 1));
  EXPECT_TRUE(HasEdge(dag, 1, 2));
  EXPECT_TRUE(HasEdge(dag, 0, 2));  // transitively closed
  EXPECT_FALSE(HasEdge(dag, 1, 0));
  EXPECT_FALSE(HasEdge(dag, 2, 0));
}

TEST(DominanceDagTest, IncomparablePointsHaveNoEdges) {
  const PointSet points({Point{0, 1}, Point{1, 0}});
  const DagAdjacency dag = BuildDominanceDag(points);
  EXPECT_TRUE(dag[0].empty());
  EXPECT_TRUE(dag[1].empty());
}

TEST(DominanceDagTest, DuplicatePointsOrderedByIndex) {
  const PointSet points({Point{1, 1}, Point{1, 1}, Point{1, 1}});
  const DagAdjacency dag = BuildDominanceDag(points);
  EXPECT_TRUE(HasEdge(dag, 0, 1));
  EXPECT_TRUE(HasEdge(dag, 0, 2));
  EXPECT_TRUE(HasEdge(dag, 1, 2));
  EXPECT_FALSE(HasEdge(dag, 1, 0));
  EXPECT_FALSE(HasEdge(dag, 2, 0));
  EXPECT_FALSE(HasEdge(dag, 2, 1));
}

TEST(DominanceDagTest, IsAcyclic) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    // Include duplicates deliberately: draw coordinates from a tiny grid.
    PointSet points;
    const size_t n = 2 + rng.UniformInt(20);
    for (size_t i = 0; i < n; ++i) {
      points.Add(Point{static_cast<double>(rng.UniformInt(3)),
                       static_cast<double>(rng.UniformInt(3))});
    }
    const DagAdjacency dag = BuildDominanceDag(points);
    // Kahn topological sort must consume every vertex.
    std::vector<int> indegree(n, 0);
    for (const auto& out : dag) {
      for (const int v : out) ++indegree[static_cast<size_t>(v)];
    }
    std::vector<size_t> queue;
    for (size_t v = 0; v < n; ++v) {
      if (indegree[v] == 0) queue.push_back(v);
    }
    size_t consumed = 0;
    while (!queue.empty()) {
      const size_t u = queue.back();
      queue.pop_back();
      ++consumed;
      for (const int v : dag[u]) {
        if (--indegree[static_cast<size_t>(v)] == 0) {
          queue.push_back(static_cast<size_t>(v));
        }
      }
    }
    EXPECT_EQ(consumed, n) << "cycle detected, trial " << trial;
  }
}

TEST(DominanceDagTest, IsTransitivelyClosed) {
  Rng rng(37);
  for (int trial = 0; trial < 20; ++trial) {
    PointSet points;
    const size_t n = 2 + rng.UniformInt(15);
    for (size_t i = 0; i < n; ++i) {
      points.Add(Point{static_cast<double>(rng.UniformInt(4)),
                       static_cast<double>(rng.UniformInt(4))});
    }
    const DagAdjacency dag = BuildDominanceDag(points);
    for (size_t u = 0; u < n; ++u) {
      for (const int v : dag[u]) {
        for (const int w : dag[static_cast<size_t>(v)]) {
          EXPECT_TRUE(HasEdge(dag, u, static_cast<size_t>(w)))
              << u << " -> " << v << " -> " << w << ", trial " << trial;
        }
      }
    }
  }
}

TEST(DominanceSucceedsTest, MatchesDefinition) {
  const PointSet points({Point{0, 0}, Point{1, 1}, Point{0, 0}, Point{0, 2}});
  EXPECT_TRUE(DominanceSucceeds(points, 1, 0));   // strict dominance
  EXPECT_FALSE(DominanceSucceeds(points, 0, 1));
  EXPECT_TRUE(DominanceSucceeds(points, 2, 0));   // equal, ties to index
  EXPECT_FALSE(DominanceSucceeds(points, 0, 2));
  EXPECT_FALSE(DominanceSucceeds(points, 3, 1));  // incomparable
}

using Side = DominanceFrontier::Side;

std::vector<size_t> AllIndices(size_t n) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

TEST(DominanceFrontierTest, LowerAndUpperMembers) {
  // (0, 2), (1, 1) and (2, 0) are minimal; (2, 2) is maximal, and so is
  // (0, 3), which nothing dominates.
  const std::vector<Point> points = {Point{1, 1}, Point{2, 2}, Point{0, 2},
                                     Point{2, 0}, Point{0, 3}, Point{1, 2}};
  const DominanceFrontier lower(points, AllIndices(6), Side::kLower);
  EXPECT_EQ(lower.members(), (std::vector<size_t>{0, 2, 3}));
  const DominanceFrontier upper(points, AllIndices(6), Side::kUpper);
  EXPECT_EQ(upper.members(), (std::vector<size_t>{1, 4}));
  EXPECT_TRUE(lower.Reaches(Point{1, 1}));   // a member itself
  EXPECT_FALSE(lower.Reaches(Point{0.5, 1.5}));
  EXPECT_TRUE(upper.Reaches(Point{2, 2}));
  EXPECT_FALSE(upper.Reaches(Point{2.5, 0}));
  EXPECT_FALSE(DominanceFrontier(points, {}, Side::kLower).Reaches(Point{1, 1}));
}

TEST(DominanceFrontierTest, EqualPointsKeepTheLowestIndex) {
  // -0.0 and 0.0 are one coordinate, so all three points are equal.
  const std::vector<Point> points = {Point{0.0, 1, 2}, Point{-0.0, 1, 2},
                                     Point{0.0, 1, 2}};
  for (const Side side : {Side::kLower, Side::kUpper}) {
    const DominanceFrontier frontier(points, {2, 1, 0}, side);
    EXPECT_EQ(frontier.members(), (std::vector<size_t>{0}));
    EXPECT_TRUE(frontier.Reaches(Point{-0.0, 1, 2}));
    const DominanceFrontier later(points, {2, 1}, side);
    EXPECT_EQ(later.members(), (std::vector<size_t>{1}));
  }
}

TEST(DominanceFrontierTest, OneDimensionKeepsTheExtreme) {
  const std::vector<Point> points = {Point{3}, Point{1}, Point{2}, Point{1}};
  const DominanceFrontier lower(points, AllIndices(4), Side::kLower);
  EXPECT_EQ(lower.members(), (std::vector<size_t>{1}));
  EXPECT_TRUE(lower.Reaches(Point{1}));
  EXPECT_FALSE(lower.Reaches(Point{0.5}));
  const DominanceFrontier upper(points, AllIndices(4), Side::kUpper);
  EXPECT_EQ(upper.members(), (std::vector<size_t>{0}));
  EXPECT_TRUE(upper.Reaches(Point{3}));
  EXPECT_FALSE(upper.Reaches(Point{3.5}));
}

TEST(DominanceFrontierTest, InfiniteCoordinates) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Point> points = {Point{1, 1, 1}, Point{-kInf, -kInf, -kInf},
                                     Point{0, kInf, 0}};
  const DominanceFrontier lower(points, AllIndices(3), Side::kLower);
  EXPECT_EQ(lower.members(), (std::vector<size_t>{1}));
  EXPECT_TRUE(lower.Reaches(Point{-kInf, -kInf, -kInf}));
  const DominanceFrontier upper(points, AllIndices(3), Side::kUpper);
  EXPECT_EQ(upper.members(), (std::vector<size_t>{0, 2}));
  EXPECT_TRUE(upper.Reaches(Point{-1, kInf, -1}));
  EXPECT_FALSE(upper.Reaches(Point{kInf, 0, 0}));
}

TEST(DominanceFrontierTest, MatchesScansOnRandomGridSets) {
  // Per d, a coarse grid with signed zeros makes ties, duplicates and
  // equal coordinates on one axis common. Members must be exactly the
  // points no other point lies below (or above), the lowest index of
  // each equal group; queries must match a scan of the whole subset.
  Rng rng(211);
  for (size_t d = 1; d <= 4; ++d) {
    for (int trial = 0; trial < 150; ++trial) {
      const auto coord = [&rng] {
        const double c = static_cast<double>(rng.UniformInt(4)) - 1.0;
        return c == 0.0 && rng.UniformInt(2) == 0 ? -0.0 : c;
      };
      const size_t n = 1 + rng.UniformInt(25);
      std::vector<Point> points;
      std::vector<size_t> subset;
      for (size_t i = 0; i < n; ++i) {
        std::vector<double> coords(d);
        for (double& c : coords) c = coord();
        points.emplace_back(std::move(coords));
        if (rng.UniformInt(3) != 0) subset.push_back(i);
      }
      SCOPED_TRACE(::testing::Message() << "d " << d << ", trial " << trial);
      for (const Side side : {Side::kLower, Side::kUpper}) {
        // below(a, b): a lies on the frontier's side of b.
        const auto below = [side](const Point& a, const Point& b) {
          return side == Side::kLower ? DominatesEq(b, a) : DominatesEq(a, b);
        };
        const DominanceFrontier frontier(points, subset, side);
        std::vector<size_t> expected;
        for (const size_t i : subset) {
          bool member = true;
          for (const size_t j : subset) {
            if (j == i || !below(points[j], points[i])) continue;
            if (points[j] != points[i] || j < i) member = false;
          }
          if (member) expected.push_back(i);
        }
        EXPECT_EQ(frontier.members(), expected);
        for (const Point& q : points) {
          bool reached = false;
          for (const size_t j : subset) reached = reached || below(points[j], q);
          uint64_t tests = 0;
          EXPECT_EQ(frontier.Reaches(q, &tests), reached) << q.ToString();
          EXPECT_LE(tests, frontier.members().size());
        }
      }
    }
  }
}

}  // namespace
}  // namespace monoclass
