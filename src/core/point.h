// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Points in R^d and the dominance partial order (paper Section 1.1).
//
// Dominance convention. The paper says p "dominates" q when p != q and
// p[i] >= q[i] on every dimension. Coordinate-wise comparison of *equal*
// points is the degenerate case: two distinct input points with identical
// coordinates dominate each other, forcing any monotone classifier to give
// them the same label. The library therefore exposes the reflexive
// comparison DominatesEq (p[i] >= q[i] for all i, including p == q), which
// is the workhorse everywhere, plus StrictlyDominates for the
// paper-literal relation on distinct coordinate vectors.

#ifndef MONOCLASS_CORE_POINT_H_
#define MONOCLASS_CORE_POINT_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"

namespace monoclass {

// An immutable point in R^d. Cheap to copy for small d (the regime of the
// paper: similarity-score vectors with a handful of metrics).
class Point {
 public:
  Point() = default;

  explicit Point(std::vector<double> coordinates)
      : coordinates_(std::move(coordinates)) {}

  Point(std::initializer_list<double> coordinates)
      : coordinates_(coordinates) {}

  // Number of dimensions d.
  size_t dimension() const { return coordinates_.size(); }

  // Coordinate on dimension i (0-based; the paper writes p[i] 1-based).
  double operator[](size_t i) const {
    MC_DCHECK_LT(i, coordinates_.size());
    return coordinates_[i];
  }

  const std::vector<double>& coordinates() const { return coordinates_; }

  friend bool operator==(const Point& a, const Point& b) {
    return a.coordinates_ == b.coordinates_;
  }
  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }

  // "(x1, x2, ..., xd)" rendering for diagnostics.
  std::string ToString() const;

 private:
  std::vector<double> coordinates_;
};

// True iff p[i] >= q[i] on every dimension (reflexive dominance). This is
// exactly the relation a monotone classifier must respect: DominatesEq(p, q)
// implies h(p) >= h(q). Inline: it is the inner test of every dominance
// scan and binary search.
inline bool DominatesEq(const Point& p, const Point& q) {
  MC_DCHECK_EQ(p.dimension(), q.dimension());
  for (size_t i = 0; i < p.dimension(); ++i) {
    if (p[i] < q[i]) return false;
  }
  return true;
}

// True iff p and q have different coordinate vectors and DominatesEq(p, q);
// the paper-literal "p dominates q".
bool StrictlyDominates(const Point& p, const Point& q);

// True iff neither point weakly dominates the other (the points are
// incomparable; an antichain is a pairwise-incomparable set).
bool Incomparable(const Point& p, const Point& q);

}  // namespace monoclass

#endif  // MONOCLASS_CORE_POINT_H_
