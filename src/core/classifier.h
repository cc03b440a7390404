// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Monotone classifiers h : R^d -> {0, 1} with h(p) >= h(q) whenever p
// dominates q (paper Section 1.1).
//
// Representation. A monotone classifier is exactly an upward-closed
// positive region of R^d. We store the region by its *minimal generators*:
// an antichain G of points such that
//
//     h(x) = 1  <=>  exists g in G with x[i] >= g[i] for every i.
//
// This representation (a) can express every monotone classification of a
// finite point set, (b) is defined on all of R^d, so a classifier learned
// on a sample generalizes to unseen points, and (c) is monotone *by
// construction* -- there is no way to build a non-monotone classifier.
// The 1D threshold classifiers h^tau of paper Section 3 (h(p) = 1 iff
// p > tau) correspond to a single generator just above tau.
// G is a lower DominanceFrontier (core/dominance.h), which the classifier
// keeps for Classify to query.

#ifndef MONOCLASS_CORE_CLASSIFIER_H_
#define MONOCLASS_CORE_CLASSIFIER_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/dominance.h"
#include "core/point.h"

namespace monoclass {

class MonotoneClassifier {
 public:
  // The constant-0 classifier (empty positive region).
  static MonotoneClassifier AlwaysZero(size_t dimension);

  // The constant-1 classifier (all of R^d positive; generator -infinity^d).
  static MonotoneClassifier AlwaysOne(size_t dimension);

  // Builds a classifier from generator points; redundant (non-minimal)
  // generators are pruned. All generators must share one dimension >= 1
  // and have no NaN coordinate.
  static MonotoneClassifier FromGenerators(std::vector<Point> generators,
                                           size_t dimension);

  // The 1D threshold classifier h^tau of the paper: h(p) = 1 iff p > tau.
  // tau = -infinity yields AlwaysOne (every real is > -infinity).
  static MonotoneClassifier Threshold1D(double tau);

  // Builds the classifier that assigns `values[i]` to `points[i]` and
  // extends monotonically to R^d (positive region generated by the minimal
  // value-1 points). Returns nullopt when the assignment itself is not
  // monotone on `points`, i.e., some p dominates q with value(p) = 0 and
  // value(q) = 1. One lower frontier of the value-1 points is both the
  // check and the generators.
  static std::optional<MonotoneClassifier> FromAssignment(
      const PointSet& points, const std::vector<Label>& values);

  // Evaluates h(x) with one frontier query: O(log G) at d = 2, O(d G)
  // otherwise. x must have the classifier's dimension and no NaN.
  bool Classify(const Point& x) const;

  // h as 0/1 on every point of a set.
  std::vector<Label> ClassifySet(const PointSet& points) const;

  size_t dimension() const { return dimension_; }

  // The minimal generator antichain (empty for AlwaysZero).
  const std::vector<Point>& generators() const { return generators_; }

  // True when this classifier outputs 1 everywhere.
  bool IsAlwaysOne() const;

  // True when this classifier outputs 0 everywhere.
  bool IsAlwaysZero() const { return generators_.empty(); }

  std::string ToString() const;

 private:
  MonotoneClassifier(std::vector<Point> generators,
                     DominanceFrontier frontier, size_t dimension)
      : generators_(std::move(generators)),
        frontier_(std::move(frontier)),
        dimension_(dimension) {}

  std::vector<Point> generators_;
  DominanceFrontier frontier_;  // generators_'s; its member ids go unused
  size_t dimension_ = 0;
};

// err_P(h) of eq. (1): number of points of P mis-classified by h.
size_t CountErrors(const MonotoneClassifier& h, const LabeledPointSet& set);

// w-err_P(h) of eq. (3): total weight of mis-classified points.
double WeightedError(const MonotoneClassifier& h, const WeightedPointSet& set);

// Checks that an explicit 0/1 assignment over `points` respects dominance
// (no p >= q with value(p) = 0, value(q) = 1; Lemma 16 for the cut
// classifier) by testing the value-0 points against the value-1 points'
// lower frontier: O(n log n) at d = 2, O(d n G) for G members otherwise.
bool IsMonotoneAssignment(const PointSet& points,
                          const std::vector<Label>& values);

// The O(d n^2) pairwise reference for IsMonotoneAssignment.
bool IsMonotoneAssignmentScan(const PointSet& points,
                              const std::vector<Label>& values);

// Prunes non-minimal points from a generator set: keeps each point that is
// not weakly dominated by a *different remaining* generator (one survivor
// per duplicate group, the first). The result is an antichain generating
// the same upward closure, in input order: the generators' lower
// frontier. Coordinates may be infinite but not NaN.
std::vector<Point> MinimalGenerators(std::vector<Point> generators);

// The O(d n^2) pairwise reference for MinimalGenerators.
std::vector<Point> MinimalGeneratorsScan(std::vector<Point> generators);

// True iff the two classifiers agree on every point of `points` (finite
// restriction equality; classifiers that differ off the set may compare
// equal here).
bool EquivalentOn(const MonotoneClassifier& a, const MonotoneClassifier& b,
                  const PointSet& points);

}  // namespace monoclass

#endif  // MONOCLASS_CORE_CLASSIFIER_H_
