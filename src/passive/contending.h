// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// The contending-point reduction of paper Section 5 (Lemma 15).
//
// A point p is *contending* when its label conflicts with a dominance
// neighbor: label(p) = 0 but p dominates some label-1 point, or
// label(p) = 1 but some label-0 point dominates p. Lemma 15 shows the
// passive problem restricted to the contending subset P^con has the same
// optimum as on P, and a classifier optimal on P^con extends to P by
// giving every non-contending point its own label.

#ifndef MONOCLASS_PASSIVE_CONTENDING_H_
#define MONOCLASS_PASSIVE_CONTENDING_H_

#include <vector>

#include "core/dataset.h"
#include "util/concurrency.h"

namespace monoclass {

// The pair form of the contending predicate: true iff the labels differ
// and the label-0 point weakly dominates the label-1 point (the pair is
// then a dominance conflict and both endpoints are contending).
// Coordinate-equal opposite-label pairs conflict in both orders. This is
// the single shared definition behind the batch scan below and the
// per-delta neighborhood scans of passive/incremental_solver.h.
inline bool LabelsConflict(const Point& a, Label label_a, const Point& b,
                           Label label_b) {
  if (label_a == label_b) return false;
  const Point& zero = label_a == 0 ? a : b;
  const Point& one = label_a == 0 ? b : a;
  return DominatesEq(zero, one);
}

struct ContendingPartition {
  // Indices of contending points, in increasing order.
  std::vector<size_t> contending;
  // is_contending[i] for every point of the input set.
  std::vector<bool> is_contending;
};

// Computes P^con. Coordinate-equal pairs with opposite labels are
// mutually contending (each weakly dominates the other).
//
// A label-0 point contends iff it dominates a member of the label-1
// points' lower DominanceFrontier (core/dominance.h), a label-1 point iff
// a member of the label-0 points' upper frontier dominates it. Serial;
// `parallel` is unused and stays for the callers that pass it.
ContendingPartition ComputeContending(const PointSet& points,
                                      const std::vector<Label>& labels,
                                      const ParallelOptions& parallel = {});

// The O(d n^2) pairwise reference for ComputeContending.
ContendingPartition ComputeContendingScan(const PointSet& points,
                                          const std::vector<Label>& labels);

}  // namespace monoclass

#endif  // MONOCLASS_PASSIVE_CONTENDING_H_
