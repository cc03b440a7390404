// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "passive/contending.h"

#include <cstdint>
#include <utility>

#include "core/dominance.h"
#include "obs/obs.h"

namespace monoclass {

ContendingPartition ComputeContending(const PointSet& points,
                                      const std::vector<Label>& labels,
                                      const ParallelOptions& /*parallel*/) {
  MC_CHECK_EQ(points.size(), labels.size());
  const size_t n = points.size();
  std::vector<size_t> zeros;
  std::vector<size_t> ones;
  for (size_t i = 0; i < n; ++i) (labels[i] == 0 ? zeros : ones).push_back(i);
  // A label-0 point conflicts iff it dominates a minimal label-1 point; a
  // label-1 point conflicts iff a maximal label-0 point dominates it.
  const DominanceFrontier minimal_ones(points.points(), std::move(ones),
                                       DominanceFrontier::Side::kLower);
  const DominanceFrontier maximal_zeros(points.points(), std::move(zeros),
                                        DominanceFrontier::Side::kUpper);
  ContendingPartition partition;
  partition.is_contending.assign(n, false);
  uint64_t tests = 0;
  for (size_t i = 0; i < n; ++i) {
    const DominanceFrontier& other =
        labels[i] == 0 ? minimal_ones : maximal_zeros;
    if (other.Reaches(points[i], &tests)) {
      partition.is_contending[i] = true;
      partition.contending.push_back(i);
    }
  }
  if (points.dimension() != 2) MC_COUNTER("mc.dom.frontier_tests", tests);
  return partition;
}

ContendingPartition ComputeContendingScan(const PointSet& points,
                                          const std::vector<Label>& labels) {
  MC_CHECK_EQ(points.size(), labels.size());
  const size_t n = points.size();
  ContendingPartition partition;
  partition.is_contending.assign(n, false);
  uint64_t pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    bool contending = false;
    for (size_t j = 0; j < n && !contending; ++j) {
      if (i == j) continue;
      ++pairs;
      contending = LabelsConflict(points[i], labels[i], points[j], labels[j]);
    }
    if (contending) {
      partition.is_contending[i] = true;
      partition.contending.push_back(i);
    }
  }
  MC_COUNTER("mc.dom.scan_pairs", pairs);
  return partition;
}

}  // namespace monoclass
