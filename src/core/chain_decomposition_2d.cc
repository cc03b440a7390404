// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/chain_decomposition_2d.h"

#include <map>
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

  // Patience greedy over y: tails maps each open chain's current tail y
  // to its chain id (a multimap: several chains may share a tail value).
  // Appending to the chain with the LARGEST tail <= y is the exchange-
  // argument-optimal choice; the resulting chain count equals the length
  // of the longest strictly-decreasing y subsequence = the width.
  std::multimap<double, size_t> tails;
  for (const size_t index : order) {
    const double y = points[index][1];
    auto it = tails.upper_bound(y);
    if (it == tails.begin()) {
      // No open chain can absorb this point: open a new one.
      const size_t chain_id = decomposition.chains.size();
      decomposition.chains.push_back({index});
      tails.emplace(y, chain_id);
    } else {
      --it;  // largest tail <= y
      const size_t chain_id = it->second;
      decomposition.chains[chain_id].push_back(index);
      tails.erase(it);
      tails.emplace(y, chain_id);
    }
  }
  MC_AUDIT(AuditChainDecomposition(points, decomposition,
                                   /*expect_minimum=*/true));
  MC_HISTOGRAM("core.chain_count", decomposition.NumChains());
  return decomposition;
}

}  // namespace monoclass
