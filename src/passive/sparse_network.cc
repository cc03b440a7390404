// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "passive/sparse_network.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/chain_decomposition.h"
#include "obs/obs.h"
#include "util/check.h"

namespace monoclass {

size_t HighestDominatedPosition(const PointSet& points,
                                const std::vector<size_t>& members,
                                const Point& point) {
  // The predicate "point >= members[t]" holds on exactly a prefix of the
  // chain (members ascend under weak dominance, and >= is transitive).
  size_t lo = 0;
  size_t hi = members.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (DominatesEq(point, points[members[mid]])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? kNoDominatedMember : lo - 1;
}

std::vector<std::vector<RelayWire>> WireRelays(
    const PointSet& points, const std::vector<size_t>& queries,
    const std::vector<std::vector<size_t>>& chains,
    const ParallelOptions& parallel) {
  // The non-empty chains, their first relay, and their lowest members'
  // coordinates side by side (d doubles per chain) for the bottom test.
  const size_t d = points.dimension();
  std::vector<size_t> wired_chains;
  std::vector<size_t> relay_offset;
  std::vector<double> bottoms;
  size_t num_relays = 0;
  for (size_t c = 0; c < chains.size(); ++c) {
    if (!chains[c].empty()) {
      wired_chains.push_back(c);
      relay_offset.push_back(num_relays);
      const Point& bottom = points[chains[c].front()];
      for (size_t i = 0; i < d; ++i) bottoms.push_back(bottom[i]);
    }
    num_relays += chains[c].size();
  }

  const size_t num_queries = queries.size();
  const size_t max_shards = std::max<size_t>(
      size_t{1}, std::min<size_t>(parallel.Resolve(),
                                  num_queries == 0 ? 1 : num_queries));
  std::vector<std::vector<RelayWire>> shard_wires(max_shards);
  std::vector<uint64_t> shard_searches(max_shards, 0);
  ParallelFor(num_queries, parallel,
              [&](size_t begin, size_t end, size_t shard) {
                MC_SPAN("par.sparse_relay_wiring");
                std::vector<RelayWire>& wires = shard_wires[shard];
                uint64_t searches = 0;
                for (size_t q = begin; q < end; ++q) {
                  const Point& point = points[queries[q]];
                  const double* p = point.coordinates().data();
                  for (size_t j = 0; j < wired_chains.size(); ++j) {
                    // DominatesEq(point, bottom), compared by value.
                    const double* bottom = &bottoms[j * d];
                    size_t i = 0;
                    while (i < d && !(p[i] < bottom[i])) ++i;
                    if (i < d) continue;
                    ++searches;
                    const size_t t = HighestDominatedPosition(
                        points, chains[wired_chains[j]], point);
                    MC_DCHECK_NE(t, kNoDominatedMember);
                    wires.emplace_back(q, relay_offset[j] + t);
                  }
                }
                shard_searches[shard] = searches;
              });
  uint64_t searches = 0;
  for (const uint64_t shard : shard_searches) searches += shard;
  MC_COUNTER("mc.net.relay_searches", searches);
  return shard_wires;
}

SparseNetworkPlan BuildSparseChainRelayNetwork(
    const WeightedPointSet& set, const std::vector<size_t>& active,
    double infinite_capacity, const ParallelOptions& parallel) {
  MC_SPAN("passive/build_sparse_network");
  const size_t num_active = active.size();
  SparseNetworkPlan plan;
  plan.relay_begin = static_cast<int>(num_active) + 2;

  const int source = 0;
  const int sink = 1;
  plan.num_relays = static_cast<size_t>(
      std::count_if(active.begin(), active.end(),
                    [&](size_t i) { return set.label(i) == 1; }));
  plan.network = FlowNetwork(plan.relay_begin +
                             static_cast<int>(plan.num_relays));

  // Terminal edges, in active order (matching the dense build).
  std::vector<size_t> zeros;     // positions in `active` of label 0
  std::vector<size_t> zero_ids;  // the same points' indices in `set`
  std::vector<size_t> ones;      // positions in `active` of label 1
  std::vector<size_t> one_ids;   // the same points' indices in `set`
  for (size_t k = 0; k < num_active; ++k) {
    const size_t i = active[k];
    const int vertex = static_cast<int>(k) + 2;
    if (set.label(i) == 0) {
      plan.network.AddEdge(source, vertex, set.weight(i));
      zeros.push_back(k);
      zero_ids.push_back(i);
    } else {
      plan.network.AddEdge(vertex, sink, set.weight(i));
      ones.push_back(k);
      one_ids.push_back(i);
    }
    ++plan.finite_edges;
  }

  // Decompose the label-1 points, the only ones that get relays; a
  // label-0 point needs no chain of its own to be wired.
  {
    MC_SPAN("passive/sparse_chains");
    plan.chains = ScalableChainDecomposition(set.points().Subset(one_ids),
                                             kSparseExactMatchingLimit)
                      .chains;
  }
  plan.num_chains = plan.chains.size();

  // Relay spines: each relay feeds its own label-1 point and the next
  // relay down its chain. Chain members turn from positions in `ones`
  // into indices into `set` on the way.
  int relay = plan.relay_begin;
  for (std::vector<size_t>& chain : plan.chains) {
    for (size_t t = 0; t < chain.size(); ++t, ++relay) {
      plan.network.AddEdge(relay, static_cast<int>(ones[chain[t]]) + 2,
                           infinite_capacity);
      chain[t] = one_ids[chain[t]];
      ++plan.infinite_edges;
      if (t > 0) {
        plan.network.AddEdge(relay, relay - 1, infinite_capacity);
        ++plan.infinite_edges;
      }
    }
  }

  // Per-point relay wiring, added in the serial (point, chain) order.
  for (const std::vector<RelayWire>& wires :
       WireRelays(set.points(), zero_ids, plan.chains, parallel)) {
    for (const auto& [q, r] : wires) {
      plan.network.AddEdge(static_cast<int>(zeros[q]) + 2,
                           plan.relay_begin + static_cast<int>(r),
                           infinite_capacity);
      ++plan.infinite_edges;
    }
  }
  return plan;
}

}  // namespace monoclass
