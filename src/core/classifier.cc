// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/classifier.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "core/dominance.h"
#include "obs/obs.h"

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
  if (h.dimension() != 2) {
    for (size_t i = 0; i < set.size(); ++i) {
      const Label predicted = h.Classify(set.point(i)) ? 1 : 0;
      if (predicted != set.label(i)) error += set.weight(i);
    }
    return error;
  }
  // h(p) = 1 iff the least y among the generators at x' <= x is <= y. So
  // sort the generators by x, keep the running minimum of y, and answer
  // each point with one binary search: O((n + G) log G). The sum adds
  // the same terms in the same order as the loop above.
  std::vector<std::pair<double, double>> staircase;
  staircase.reserve(h.generators().size());
  for (const Point& g : h.generators()) staircase.emplace_back(g[0], g[1]);
  std::sort(staircase.begin(), staircase.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t k = 1; k < staircase.size(); ++k) {
    staircase[k].second =
        std::min(staircase[k].second, staircase[k - 1].second);
  }
  for (size_t i = 0; i < set.size(); ++i) {
    const Point& p = set.point(i);
    const auto above = std::upper_bound(
        staircase.begin(), staircase.end(), p[0],
        [](double x, const auto& step) { return x < step.first; });
    const Label predicted =
        above != staircase.begin() && std::prev(above)->second <= p[1] ? 1
                                                                        : 0;
    if (predicted != set.label(i)) error += set.weight(i);
  }
  return error;
}

bool IsMonotoneAssignment(const PointSet& points,
                          const std::vector<Label>& values) {
  MC_CHECK_EQ(points.size(), values.size());
  if (points.dimension() != 2) return IsMonotoneAssignmentScan(points, values);

  // A value-0 point breaks monotonicity iff some value-1 point at x' <= x
  // has y' <= y.
  const std::vector<Point>& p = points.points();
  const std::vector<size_t> order = LexicographicOrder2D(p);
  double min_y1 = std::numeric_limits<double>::infinity();
  size_t visited = 0;
  const bool monotone = ForEachEqualXRun(
      p, order, /*descending=*/false, [&](size_t begin, size_t end) {
        visited = end;
        for (size_t k = begin; k < end; ++k) {
          if (values[order[k]] == 1) min_y1 = std::min(min_y1, p[order[k]][1]);
        }
        for (size_t k = begin; k < end; ++k) {
          if (values[order[k]] == 0 && p[order[k]][1] >= min_y1) return false;
        }
        return true;
      });
  MC_COUNTER("mc.dom.sweep_points", visited);
  return monotone;
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
  if (generators.empty() || generators[0].dimension() != 2) {
    return MinimalGeneratorsScan(std::move(generators));
  }
  for (const Point& g : generators) {
    MC_CHECK_EQ(g.dimension(), 2u);
    MC_CHECK(!std::isnan(g[0]) && !std::isnan(g[1]))
        << "generator coordinates must not be NaN, got " << g.ToString();
  }
  // Everything earlier in (x, y, index) order has x' <= x, and a weakly
  // dominated generator (or a later duplicate) always comes after the one
  // below it. So a generator survives iff its y is strictly below every
  // earlier generator's y. Survivors are compacted to the front of
  // `order`, then put back in input order.
  std::vector<size_t> order = LexicographicOrder2D(generators);
  size_t kept = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t i = order[k];
    if (kept == 0 || generators[i][1] < generators[order[kept - 1]][1]) {
      order[kept++] = i;
    }
  }
  MC_COUNTER("mc.dom.sweep_points", order.size());
  order.resize(kept);
  std::sort(order.begin(), order.end());
  std::vector<Point> minimal;
  minimal.reserve(kept);
  for (const size_t i : order) minimal.push_back(std::move(generators[i]));
  return minimal;
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
