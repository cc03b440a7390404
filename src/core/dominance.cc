// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/dominance.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ranges>

#include "obs/obs.h"

namespace monoclass {

bool DominanceSucceeds(const PointSet& points, size_t after, size_t before) {
  MC_DCHECK_NE(after, before);
  const Point& p_after = points[after];
  const Point& p_before = points[before];
  if (!DominatesEq(p_after, p_before)) return false;
  if (p_after == p_before) return before < after;  // index tie-break
  return true;
}

DagAdjacency BuildDominanceDag(const PointSet& points) {
  const size_t n = points.size();
  DagAdjacency adjacency(n);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v) {
      if (u == v) continue;
      if (DominanceSucceeds(points, v, u)) {
        adjacency[u].push_back(static_cast<int>(v));
      }
    }
  }
  return adjacency;
}

std::vector<size_t> LexicographicOrder2D(const std::vector<Point>& points) {
  std::vector<size_t> order(points.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&points](size_t a, size_t b) {
    if (points[a][0] != points[b][0]) return points[a][0] < points[b][0];
    if (points[a][1] != points[b][1]) return points[a][1] < points[b][1];
    return a < b;
  });
  return order;
}

DominanceFrontier::DominanceFrontier(const std::vector<Point>& points,
                                     std::vector<size_t> indices, Side side)
    : sign_(side == Side::kUpper ? -1.0 : 1.0) {
  if (indices.empty()) return;
  const size_t d = dimension_ = points[indices[0]].dimension();
  MC_CHECK_GE(d, 1u);
  for (const size_t i : indices) {
    MC_CHECK_EQ(points[i].dimension(), d);
    for (const double c : points[i].coordinates()) {
      MC_CHECK(!std::isnan(c)) << "NaN coordinate in " << points[i].ToString();
    }
  }
  std::sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < d; ++k) {
      const double pa = points[a][k];
      const double pb = points[b][k];
      if (pa != pb) return sign_ * pa < sign_ * pb;
    }
    return a < b;
  });
  uint64_t tests = 0;
  for (const size_t i : indices) {
    const double* p = points[i].coordinates().data();
    if (DominatesOneOf(p, members_.size(), &tests)) continue;
    members_.push_back(i);
    for (size_t k = 0; k < d; ++k) coordinates_.push_back(sign_ * p[k]);
  }
  std::sort(members_.begin(), members_.end());
  MC_COUNTER("mc.dom.frontier_points", indices.size());
  if (d != 2) MC_COUNTER("mc.dom.frontier_tests", tests);
}

bool DominanceFrontier::Reaches(const Point& q,
                                uint64_t* member_tests) const {
  if (members_.empty()) return false;
  MC_DCHECK_EQ(q.dimension(), dimension_);
  const auto all = std::views::iota(size_t{0}, members_.size());
  const auto past = std::ranges::partition_point(all, [&](size_t m) {
    return coordinates_[m * dimension_] <= sign_ * q[0];
  });
  return DominatesOneOf(q.coordinates().data(),
                        static_cast<size_t>(past - all.begin()), member_tests);
}

bool DominanceFrontier::DominatesOneOf(const double* q, size_t prefix,
                                       uint64_t* member_tests) const {
  const size_t d = dimension_;
  if (d == 2) {
    // The staircase: the last member of the prefix has its least y.
    return prefix > 0 && coordinates_[2 * prefix - 1] <= sign_ * q[1];
  }
  bool found = false;
  size_t m = 0;
  for (; m < prefix && !found; ++m) {
    size_t k = 1;
    while (k < d && coordinates_[m * d + k] <= sign_ * q[k]) ++k;
    found = k == d;
  }
  if (member_tests != nullptr) *member_tests += m;
  return found;
}

}  // namespace monoclass
