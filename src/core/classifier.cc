// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/classifier.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "core/dominance.h"
#include "obs/obs.h"

namespace monoclass {
namespace {

// The lower frontier of the value-1 points, or nullopt when a value-0
// point dominates a member (the assignment is not monotone).
std::optional<DominanceFrontier> PositiveFrontierIfMonotone(
    const PointSet& points, const std::vector<Label>& values) {
  MC_CHECK_EQ(points.size(), values.size());
  std::vector<size_t> positives;
  for (size_t i = 0; i < points.size(); ++i) {
    if (values[i] == 1) positives.push_back(i);
  }
  DominanceFrontier frontier(points.points(), std::move(positives),
                             DominanceFrontier::Side::kLower);
  uint64_t tests = 0;
  bool monotone = true;
  for (size_t i = 0; i < points.size() && monotone; ++i) {
    monotone = values[i] != 0 || !frontier.Reaches(points[i], &tests);
  }
  if (points.dimension() != 2) MC_COUNTER("mc.dom.frontier_tests", tests);
  if (!monotone) return std::nullopt;
  return frontier;
}

// Keeps only the members of the generators' lower frontier, in input
// order, and returns that frontier.
DominanceFrontier PruneToFrontier(std::vector<Point>& generators) {
  std::vector<size_t> all(generators.size());
  std::iota(all.begin(), all.end(), size_t{0});
  DominanceFrontier frontier(generators, std::move(all),
                             DominanceFrontier::Side::kLower);
  std::vector<Point> minimal;
  minimal.reserve(frontier.members().size());
  for (const size_t i : frontier.members()) {
    minimal.push_back(std::move(generators[i]));
  }
  generators = std::move(minimal);
  return frontier;
}

}  // namespace

MonotoneClassifier MonotoneClassifier::AlwaysZero(size_t dimension) {
  return FromGenerators({}, dimension);
}

MonotoneClassifier MonotoneClassifier::AlwaysOne(size_t dimension) {
  const double bottom = -std::numeric_limits<double>::infinity();
  return FromGenerators({Point(std::vector<double>(dimension, bottom))},
                        dimension);
}

MonotoneClassifier MonotoneClassifier::FromGenerators(
    std::vector<Point> generators, size_t dimension) {
  MC_CHECK_GE(dimension, 1u);
  for (const Point& g : generators) {
    MC_CHECK_EQ(g.dimension(), dimension);
  }
  DominanceFrontier frontier = PruneToFrontier(generators);
  return MonotoneClassifier(std::move(generators), std::move(frontier),
                            dimension);
}

MonotoneClassifier MonotoneClassifier::Threshold1D(double tau) {
  if (tau == -std::numeric_limits<double>::infinity()) return AlwaysOne(1);
  // h(p) = 1 iff p > tau iff p >= nextafter(tau, +inf) for doubles.
  const double generator =
      std::nextafter(tau, std::numeric_limits<double>::infinity());
  return FromGenerators({Point{generator}}, 1);
}

std::optional<MonotoneClassifier> MonotoneClassifier::FromAssignment(
    const PointSet& points, const std::vector<Label>& values) {
  MC_CHECK(!points.empty());
  std::optional<DominanceFrontier> frontier =
      PositiveFrontierIfMonotone(points, values);
  if (!frontier.has_value()) return std::nullopt;
  std::vector<Point> generators;
  generators.reserve(frontier->members().size());
  for (const size_t i : frontier->members()) generators.push_back(points[i]);
  return MonotoneClassifier(std::move(generators), *std::move(frontier),
                            points.dimension());
}

bool MonotoneClassifier::Classify(const Point& x) const {
  MC_DCHECK_EQ(x.dimension(), dimension_);
  return frontier_.Reaches(x);
}

std::vector<Label> MonotoneClassifier::ClassifySet(
    const PointSet& points) const {
  std::vector<Label> values(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    values[i] = Classify(points[i]) ? 1 : 0;
  }
  return values;
}

bool MonotoneClassifier::IsAlwaysOne() const {
  // Only a generator at -infinity^d lies below -infinity^d.
  return Classify(Point(std::vector<double>(
      dimension_, -std::numeric_limits<double>::infinity())));
}

std::string MonotoneClassifier::ToString() const {
  std::ostringstream out;
  out << "MonotoneClassifier(d=" << dimension_ << ", generators={";
  for (size_t i = 0; i < generators_.size(); ++i) {
    if (i > 0) out << ", ";
    out << generators_[i].ToString();
  }
  out << "})";
  return out.str();
}

size_t CountErrors(const MonotoneClassifier& h, const LabeledPointSet& set) {
  size_t errors = 0;
  for (size_t i = 0; i < set.size(); ++i) {
    const Label predicted = h.Classify(set.point(i)) ? 1 : 0;
    if (predicted != set.label(i)) ++errors;
  }
  return errors;
}

double WeightedError(const MonotoneClassifier& h,
                     const WeightedPointSet& set) {
  double error = 0.0;
  for (size_t i = 0; i < set.size(); ++i) {
    const Label predicted = h.Classify(set.point(i)) ? 1 : 0;
    if (predicted != set.label(i)) error += set.weight(i);
  }
  return error;
}

bool IsMonotoneAssignment(const PointSet& points,
                          const std::vector<Label>& values) {
  return PositiveFrontierIfMonotone(points, values).has_value();
}

bool IsMonotoneAssignmentScan(const PointSet& points,
                              const std::vector<Label>& values) {
  MC_CHECK_EQ(points.size(), values.size());
  uint64_t pairs = 0;
  bool monotone = true;
  for (size_t i = 0; i < points.size() && monotone; ++i) {
    if (values[i] != 0) continue;
    for (size_t j = 0; j < points.size(); ++j) {
      if (values[j] != 1 || i == j) continue;
      ++pairs;
      if (DominatesEq(points[i], points[j])) {
        monotone = false;  // points[i] dominates a positive point but is 0
        break;
      }
    }
  }
  MC_COUNTER("mc.dom.scan_pairs", pairs);
  return monotone;
}

bool EquivalentOn(const MonotoneClassifier& a, const MonotoneClassifier& b,
                  const PointSet& points) {
  MC_CHECK_EQ(a.dimension(), b.dimension());
  if (!points.empty()) MC_CHECK_EQ(points.dimension(), a.dimension());
  for (size_t i = 0; i < points.size(); ++i) {
    if (a.Classify(points[i]) != b.Classify(points[i])) return false;
  }
  return true;
}

std::vector<Point> MinimalGenerators(std::vector<Point> generators) {
  PruneToFrontier(generators);
  return generators;
}

std::vector<Point> MinimalGeneratorsScan(std::vector<Point> generators) {
  const size_t n = generators.size();
  std::vector<bool> keep(n, true);
  uint64_t pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n && keep[i]; ++j) {
      if (i == j) continue;
      ++pairs;
      if (!DominatesEq(generators[i], generators[j])) continue;
      if (generators[i] != generators[j]) {
        keep[i] = false;  // strictly above another generator
      } else if (j < i) {
        keep[i] = false;  // duplicate: keep only the first occurrence
      }
    }
  }
  MC_COUNTER("mc.dom.scan_pairs", pairs);
  std::vector<Point> minimal;
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) minimal.push_back(std::move(generators[i]));
  }
  return minimal;
}

}  // namespace monoclass
