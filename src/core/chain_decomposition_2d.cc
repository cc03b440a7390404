// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/chain_decomposition_2d.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "core/dominance.h"
#include "core/invariant_audit.h"
#include "obs/obs.h"
#include "util/audit.h"

namespace monoclass {

ChainDecomposition MinimumChainDecomposition2D(const PointSet& points) {
  MC_SPAN("core/min_chain_decomposition_2d");
  ChainDecomposition decomposition;
  if (points.empty()) return decomposition;
  MC_CHECK_EQ(points.dimension(), 2u)
      << "MinimumChainDecomposition2D requires 2D points";

  // Linear extension of 2D dominance: lexicographic (x, y), index ties
  // last (consistent with DominanceSucceeds: equal points ascend by
  // index). If p comes before q in this order, q never strictly precedes
  // p in the dominance order.
  const std::vector<size_t> order = LexicographicOrder2D(points.points());

  // Patience greedy over y: tails[c] is chain c's current tail y.
  // Appending to the chain with the LARGEST tail <= y is the exchange-
  // argument-optimal choice; the resulting chain count equals the length
  // of the longest strictly-decreasing y subsequence = the width. The
  // tails strictly decrease in c -- a chain opens only below every tail,
  // and the largest tail <= y, set to y, stays below its left neighbour
  // and above its right one -- so that chain is the first c with
  // tails[c] <= y, found by binary search in place.
  std::vector<double> tails;
  for (const size_t index : order) {
    const double y = points[index][1];
    const auto it = std::lower_bound(tails.begin(), tails.end(), y,
                                     std::greater<double>());
    if (it == tails.end()) {
      // No open chain can absorb this point: open a new one.
      decomposition.chains.push_back({index});
      tails.push_back(y);
    } else {
      decomposition.chains[static_cast<size_t>(it - tails.begin())]
          .push_back(index);
      *it = y;
    }
  }
  MC_AUDIT(AuditChainDecomposition(points, decomposition,
                                   /*expect_minimum=*/true));
  MC_HISTOGRAM("core.chain_count", decomposition.NumChains());
  return decomposition;
}

}  // namespace monoclass
