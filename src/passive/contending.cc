// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "passive/contending.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/dominance.h"
#include "obs/obs.h"

namespace monoclass {
namespace {

ContendingPartition ComputeContendingSweep2D(const PointSet& points,
                                             const std::vector<Label>& labels) {
  const size_t n = points.size();
  const std::vector<Point>& p = points.points();
  const std::vector<size_t> order = LexicographicOrder2D(p);
  std::vector<bool> is_contending(n, false);

  // A label-0 point conflicts iff some label-1 point at x' <= x has
  // y' <= y.
  double min_y1 = std::numeric_limits<double>::infinity();
  ForEachEqualXRun(p, order, /*descending=*/false, [&](size_t begin,
                                                       size_t end) {
    for (size_t k = begin; k < end; ++k) {
      if (labels[order[k]] == 1) min_y1 = std::min(min_y1, p[order[k]][1]);
    }
    for (size_t k = begin; k < end; ++k) {
      if (labels[order[k]] == 0 && p[order[k]][1] >= min_y1) {
        is_contending[order[k]] = true;
      }
    }
    return true;
  });
  // A label-1 point conflicts iff some label-0 point at x' >= x has
  // y' >= y.
  double max_y0 = -std::numeric_limits<double>::infinity();
  ForEachEqualXRun(p, order, /*descending=*/true, [&](size_t begin,
                                                      size_t end) {
    for (size_t k = begin; k < end; ++k) {
      if (labels[order[k]] == 0) max_y0 = std::max(max_y0, p[order[k]][1]);
    }
    for (size_t k = begin; k < end; ++k) {
      if (labels[order[k]] == 1 && p[order[k]][1] <= max_y0) {
        is_contending[order[k]] = true;
      }
    }
    return true;
  });
  MC_COUNTER("mc.dom.sweep_points", n);

  ContendingPartition partition;
  for (size_t i = 0; i < n; ++i) {
    if (is_contending[i]) partition.contending.push_back(i);
  }
  partition.is_contending = std::move(is_contending);
  return partition;
}

}  // namespace

ContendingPartition ComputeContending(const PointSet& points,
                                      const std::vector<Label>& labels,
                                      const ParallelOptions& parallel) {
  MC_CHECK_EQ(points.size(), labels.size());
  if (points.dimension() == 2) {
    return ComputeContendingSweep2D(points, labels);
  }
  return ComputeContendingScan(points, labels, parallel);
}

ContendingPartition ComputeContendingScan(const PointSet& points,
                                          const std::vector<Label>& labels,
                                          const ParallelOptions& parallel) {
  MC_CHECK_EQ(points.size(), labels.size());
  const size_t n = points.size();
  ContendingPartition partition;
  partition.is_contending.assign(n, false);
  if (n == 0) return partition;

  // Row i's verdict depends only on row i, so the scan shards cleanly.
  // Each shard collects its hits and its count of tested pairs locally;
  // ParallelFor never uses more shards than min(resolved threads, n), so
  // sizing the buffer arrays by that bound covers every shard index it
  // can hand out.
  const size_t max_shards = std::max<size_t>(
      size_t{1}, std::min<size_t>(parallel.Resolve(), n));
  std::vector<std::vector<size_t>> shard_hits(max_shards);
  std::vector<uint64_t> shard_pairs(max_shards, 0);
  ParallelFor(n, parallel, [&](size_t begin, size_t end, size_t shard) {
    MC_SPAN("par.contending");
    std::vector<size_t>& hits = shard_hits[shard];
    uint64_t pairs = 0;
    for (size_t i = begin; i < end; ++i) {
      bool contending = false;
      for (size_t j = 0; j < n && !contending; ++j) {
        if (i == j) continue;
        ++pairs;
        contending = LabelsConflict(points[i], labels[i], points[j], labels[j]);
      }
      if (contending) hits.push_back(i);
    }
    shard_pairs[shard] = pairs;
  });

  // Merge after the join. Shard k covers an index range entirely below
  // shard k+1's, so concatenation reproduces the serial increasing
  // order. is_contending is vector<bool> (bit-packed -- adjacent
  // elements share a byte), so it must only ever be written here, from
  // one thread.
  uint64_t pairs = 0;
  for (size_t shard = 0; shard < max_shards; ++shard) {
    pairs += shard_pairs[shard];
    for (const size_t i : shard_hits[shard]) {
      partition.is_contending[i] = true;
      partition.contending.push_back(i);
    }
  }
  MC_COUNTER("mc.dom.scan_pairs", pairs);
  return partition;
}

}  // namespace monoclass
