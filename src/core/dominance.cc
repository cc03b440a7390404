// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/dominance.h"

#include <algorithm>
#include <numeric>

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

}  // namespace monoclass
