// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/classifier.h"

#include <cmath>
#include <limits>
#include <sstream>

namespace monoclass {

MonotoneClassifier MonotoneClassifier::AlwaysZero(size_t dimension) {
  MC_CHECK_GE(dimension, 1u);
  return MonotoneClassifier({}, dimension);
}

MonotoneClassifier MonotoneClassifier::AlwaysOne(size_t dimension) {
  MC_CHECK_GE(dimension, 1u);
  const Point bottom(std::vector<double>(
      dimension, -std::numeric_limits<double>::infinity()));
  return MonotoneClassifier({bottom}, dimension);
}

MonotoneClassifier MonotoneClassifier::FromGenerators(
    std::vector<Point> generators, size_t dimension) {
  MC_CHECK_GE(dimension, 1u);
  for (const Point& g : generators) {
    MC_CHECK_EQ(g.dimension(), dimension);
  }
  return MonotoneClassifier(MinimalGenerators(std::move(generators)),
                            dimension);
}

MonotoneClassifier MonotoneClassifier::Threshold1D(double tau) {
  if (tau == -std::numeric_limits<double>::infinity()) return AlwaysOne(1);
  // h(p) = 1 iff p > tau iff p >= nextafter(tau, +inf) for doubles.
  const double generator =
      std::nextafter(tau, std::numeric_limits<double>::infinity());
  return MonotoneClassifier({Point{generator}}, 1);
}

std::optional<MonotoneClassifier> MonotoneClassifier::FromAssignment(
    const PointSet& points, const std::vector<Label>& values) {
  MC_CHECK_EQ(points.size(), values.size());
  MC_CHECK(!points.empty());
  if (!IsMonotoneAssignment(points, values)) return std::nullopt;
  std::vector<Point> positives;
  for (size_t i = 0; i < points.size(); ++i) {
    if (values[i] == 1) positives.push_back(points[i]);
  }
  return FromGenerators(std::move(positives), points.dimension());
}

bool MonotoneClassifier::Classify(const Point& x) const {
  MC_DCHECK_EQ(x.dimension(), dimension_);
  for (const Point& g : generators_) {
    if (DominatesEq(x, g)) return true;
  }
  return false;
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
  for (const Point& g : generators_) {
    bool all_bottom = true;
    for (size_t i = 0; i < g.dimension(); ++i) {
      if (g[i] != -std::numeric_limits<double>::infinity()) {
        all_bottom = false;
        break;
      }
    }
    if (all_bottom) return true;
  }
  return false;
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
  MC_CHECK_EQ(points.size(), values.size());
  for (size_t i = 0; i < points.size(); ++i) {
    if (values[i] != 0) continue;
    for (size_t j = 0; j < points.size(); ++j) {
      if (values[j] == 1 && i != j && DominatesEq(points[i], points[j])) {
        return false;  // points[i] dominates a positive point but is 0
      }
    }
  }
  return true;
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
  const size_t n = generators.size();
  std::vector<bool> keep(n, true);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n && keep[i]; ++j) {
      if (i == j) continue;
      if (!DominatesEq(generators[i], generators[j])) continue;
      if (generators[i] != generators[j]) {
        keep[i] = false;  // strictly above another generator
      } else if (j < i) {
        keep[i] = false;  // duplicate: keep only the first occurrence
      }
    }
  }
  std::vector<Point> minimal;
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) minimal.push_back(std::move(generators[i]));
  }
  return minimal;
}

}  // namespace monoclass
