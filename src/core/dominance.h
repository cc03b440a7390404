// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// The dominance DAG of a point set: the transitively-closed digraph with an
// edge u -> v whenever v weakly dominates u. Built in O(d n^2) time, this
// is the shared substrate of Lemma 6 (chain decomposition via minimum path
// cover), the width/antichain computation, and the passive solver's flow
// network (Section 5).
//
// Duplicate points (equal coordinate vectors) mutually dominate, which
// would create 2-cycles; ties are broken by index (the lower index comes
// first), which keeps the digraph acyclic and transitively closed while
// preserving chain semantics: equal points sit adjacently on a chain.
//
// At d = 2 the same order has an O(n log n) form: sorting by (x, y) is a
// linear extension, and a sweep over it that keeps a running extreme of y
// answers "does some point of one kind weakly dominate a point of the
// other kind?" for every point at once. LexicographicOrder2D and
// ForEachEqualXRun below are the shared pieces of those sweeps (Lemma 15's
// contending points, the Lemma 16 check, generator pruning and the
// incremental solver's conflict counts).

#ifndef MONOCLASS_CORE_DOMINANCE_H_
#define MONOCLASS_CORE_DOMINANCE_H_

#include <cstddef>
#include <vector>

#include "core/dataset.h"
#include "graph/path_cover.h"

namespace monoclass {

// adjacency[u] holds every v such that points[v] "comes after" points[u] in
// the dominance order: DominatesEq(points[v], points[u]) and, for
// coordinate-equal pairs, u < v. O(d n^2).
DagAdjacency BuildDominanceDag(const PointSet& points);

// True iff points[a] weakly dominates points[b] with the same index
// tie-break used by BuildDominanceDag (a "comes after" b).
bool DominanceSucceeds(const PointSet& points, size_t after, size_t before);

// The indices of 2D points in lexicographic (x, y) order, equal points by
// index. Coordinates compare by value, so -0.0 and 0.0 tie. Every point
// must have dimension 2 and no NaN coordinate (-infinity and +infinity
// are fine). O(n log n).
std::vector<size_t> LexicographicOrder2D(const std::vector<Point>& points);

// Splits `order` (a LexicographicOrder2D of `points`) into its runs of
// equal x and calls run(begin, end) on each run [begin, end) of positions
// in ascending x, or in descending x when `descending` is set. A sweep
// folds a whole run into its running extreme before it tests any point of
// the run; that is what makes equal-x ties follow DominatesEq. Stops and
// returns false as soon as `run` returns false.
template <typename RunFn>
bool ForEachEqualXRun(const std::vector<Point>& points,
                      const std::vector<size_t>& order, bool descending,
                      RunFn run) {
  const auto x = [&](size_t position) { return points[order[position]][0]; };
  const size_t n = order.size();
  if (!descending) {
    size_t begin = 0;
    while (begin < n) {
      size_t end = begin + 1;
      while (end < n && x(end) == x(begin)) ++end;
      if (!run(begin, end)) return false;
      begin = end;
    }
  } else {
    size_t end = n;
    while (end > 0) {
      size_t begin = end - 1;
      while (begin > 0 && x(begin - 1) == x(end - 1)) --begin;
      if (!run(begin, end)) return false;
      end = begin;
    }
  }
  return true;
}

}  // namespace monoclass

#endif  // MONOCLASS_CORE_DOMINANCE_H_
