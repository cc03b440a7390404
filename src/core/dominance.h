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
// DominanceFrontier below answers Theorem 4's dominance passes in every
// dimension. LexicographicOrder2D and ForEachEqualXRun are the d = 2
// sort and sweep that MinimumChainDecomposition2D and the incremental
// solver's bulk-load conflict counts use.

#ifndef MONOCLASS_CORE_DOMINANCE_H_
#define MONOCLASS_CORE_DOMINANCE_H_

#include <cstddef>
#include <cstdint>
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
// folds a whole run into its running counts before it tests any point of
// the run; that is what makes equal-x ties follow DominatesEq.
template <typename RunFn>
void ForEachEqualXRun(const std::vector<Point>& points,
                      const std::vector<size_t>& order, bool descending,
                      RunFn run) {
  const auto x = [&](size_t position) { return points[order[position]][0]; };
  const size_t n = order.size();
  if (!descending) {
    size_t begin = 0;
    while (begin < n) {
      size_t end = begin + 1;
      while (end < n && x(end) == x(begin)) ++end;
      run(begin, end);
      begin = end;
    }
  } else {
    size_t end = n;
    while (end > 0) {
      size_t begin = end - 1;
      while (begin > 0 && x(begin - 1) == x(end - 1)) --begin;
      run(begin, end);
      end = begin;
    }
  }
}

// The minimal points of a set under weak dominance (a lower frontier) or
// its maximal points (an upper one), keeping the lowest index of each
// group of coordinate-equal points. By transitivity they answer "does q
// dominate a point of the set?" (lower) and "does a point of the set
// dominate q?" (upper); Gupta and Manoj call minimal points 1-certificates.
// Built by one lexicographic sort (by value, so -0.0 ties 0.0; ties by
// index), a linear extension of dominance, then a filter keeping each
// point that dominates no earlier member on the coordinates after the
// first: one y at d = 2, where the members form a staircase, or a scan,
// O(d n m) for m members. An upper frontier negates the coordinates.
class DominanceFrontier {
 public:
  enum class Side { kLower, kUpper };

  // The frontier of points[i] for the distinct i in `indices`, which must
  // share one dimension >= 1 and have no NaN coordinate. Adds the points
  // to mc.dom.frontier_points and, at d != 2, the filter's member tests
  // to mc.dom.frontier_tests.
  DominanceFrontier(const std::vector<Point>& points,
                    std::vector<size_t> indices, Side side);

  // Lower: true iff q weakly dominates a member; upper: iff a member
  // weakly dominates q. Binary-searches the first coordinate, then
  // compares one y (d = 2) or scans, adding the members scanned to
  // `*member_tests` when given.
  bool Reaches(const Point& q, uint64_t* member_tests = nullptr) const;

  // The members' indices, ascending.
  const std::vector<size_t>& members() const { return members_; }

 private:
  // True iff q, negated for an upper frontier, is >= one of the first
  // `prefix` members on every coordinate after the first.
  bool DominatesOneOf(const double* q, size_t prefix,
                      uint64_t* member_tests) const;

  size_t dimension_ = 0;
  double sign_ = 1.0;  // -1.0 for an upper frontier
  std::vector<size_t> members_;
  std::vector<double> coordinates_;  // sign_ * members, in sort order
};

}  // namespace monoclass

#endif  // MONOCLASS_CORE_DOMINANCE_H_
