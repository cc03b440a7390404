// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Sparse dominance-flow networks via chain relays.
//
// The dense Theorem 4 build materializes one infinite-capacity edge per
// dominating (label-0 p, label-1 q) pair -- Theta(n^2) edges, which caps
// the n the passive solver scales to long before the max-flow solve
// does. The paper's own machinery fixes this: a chain decomposition
// (Lemma 6) of the label-1 points totally orders each chain, so the
// transitive bundle of infinite edges into a chain can be routed through
// one relay vertex per chain member:
//
//   * relay r_c[t] owns the t-th point q_c[t] of chain c (chain order
//     ascending under dominance) and feeds it: r_c[t] -> q_c[t];
//   * relays chain downward, r_c[t] -> r_c[t-1], so reaching a relay
//     reaches every label-1 point below it on the chain;
//   * each label-0 point p gets one edge per chain it reaches,
//     p -> r_c[t*], where t* is the highest t with p >= q_c[t] (binary
//     search -- dominance along a chain is prefix-closed by
//     transitivity). A p that does not dominate q_c[0] dominates no
//     member of chain c, so a d-coordinate test against the chain's
//     lowest label-1 member skips the search; searches then equal the
//     wiring edges.
//
// All relay-incident edges are infinite. Every dense pair p >= q is then
// connected by an all-infinite path p -> r_c[t*] -> ... -> r_c[t] -> q,
// and conversely any infinite path p ~> q certifies p >= q, so the
// finite-cut structure -- and with it the min-cut value (Lemmas 7-8/18)
// and the residual-reachability classifier (Lemma 16) -- is *identical*
// to the dense network's. docs/sparse_network.md gives the argument in
// full. Edge count drops from Theta(n^2) to O(n w) for the width w of
// the label-1 points, and the wiring costs O(d n w) bottom tests plus
// O(log n) per wiring edge.
//
// BuildSparseChainRelayNetwork is the one builder of this network: the
// cold solver calls it, and so does IncrementalPassiveSolver's rebuild,
// which reads its vertex and edge handles from the plan's layout and
// then patches the network delta by delta.

#ifndef MONOCLASS_PASSIVE_SPARSE_NETWORK_H_
#define MONOCLASS_PASSIVE_SPARSE_NETWORK_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "graph/graph.h"
#include "util/concurrency.h"

namespace monoclass {

// How SolvePassiveWeighted materializes the Theorem 4 flow network.
enum class PassiveNetworkBuild {
  // Dense below PassiveSolveOptions::sparse_auto_threshold contending
  // points, sparse at or above it (the default).
  kAuto,
  // One infinite edge per dominating (label-0, label-1) pair: Theta(n^2)
  // edges. Kept as the oracle the sparse build is tested against.
  kDense,
  // Per-chain relay vertices: O(n w) edges, identical min cut and
  // identical optimal classifier.
  kSparseChainRelay,
};

// A built chain-relay network plus its shape diagnostics. Vertex layout:
// 0 = source, 1 = sink, 2 + k = the k-th active point, then the relays
// of chains[0], chains[1], ... bottom up in [relay_begin, NumVertices()).
// Edge layout, which the incremental rebuild reads its handles from:
//   * adjacency(0)[j] is the terminal edge of the j-th label-0 active
//     point, and a label-1 point's terminal edge is its vertex's edge 0;
//   * a relay's edge 0 feeds its own point, and edge 1 (t > 0) is its
//     spine edge to the relay below.
struct SparseNetworkPlan {
  FlowNetwork network{0};
  int relay_begin = 2;
  // The Lemma 6 chains over the label-1 active points, as indices into
  // the set, each ascending under dominance; relays follow this order.
  std::vector<std::vector<size_t>> chains;
  size_t num_chains = 0;
  size_t num_relays = 0;
  size_t finite_edges = 0;
  size_t infinite_edges = 0;
};

// Number of label-1 points a d >= 3 active set may have before the
// Lemma 6 matching-based minimum decomposition (O(n^2.5)) would cost
// more than the dense build it is meant to avoid; larger sets fall back
// to the greedy decomposition (see ScalableChainDecomposition).
inline constexpr size_t kSparseExactMatchingLimit = 2048;

// Sentinel returned by HighestDominatedPosition when `point` dominates
// no member.
inline constexpr size_t kNoDominatedMember = static_cast<size_t>(-1);

// Largest position t such that point >= points[members[t]], where
// `members` lists point indices in ascending chain order. Dominance
// along a chain is prefix-closed (transitivity), so one binary search
// suffices. This is the relay-targeting rule: a label-0 point wires to
// the relay of the highest chain member it dominates, in WireRelays
// below and in the per-delta rewiring of passive/incremental_solver.h.
size_t HighestDominatedPosition(const PointSet& points,
                                const std::vector<size_t>& members,
                                const Point& point);

// One wiring edge (q, r): queries[q] -> relay r, where relays number the
// members of every chain in chain order (chain 0's first, bottom up).
using RelayWire = std::pair<size_t, size_t>;

// The relay wiring of BuildSparseChainRelayNetwork. For each query point
// points[queries[q]] (the label-0 points) and each chain c, in (q, c)
// order, it yields the wire to the relay of
// chains[c][HighestDominatedPosition(...)] when that exists. `chains`
// lists point indices in ascending chain order and may hold empty
// chains. A query is first tested against each chain's lowest
// member (d compares, read from one contiguous array); only the chains it
// passes get the binary search, so the searches -- counted in
// mc.net.relay_searches -- equal the wires returned. Queries shard across
// `parallel` workers; the per-shard lists, concatenated in shard order,
// are the serial (q, c) order at every thread count.
std::vector<std::vector<RelayWire>> WireRelays(
    const PointSet& points, const std::vector<size_t>& queries,
    const std::vector<std::vector<size_t>>& chains,
    const ParallelOptions& parallel = {});

// Builds the sparse chain-relay network over the points of `set` at the
// indices in `active` (the Lemma 15 contending subset, in increasing
// order), with relays over a ScalableChainDecomposition of its label-1
// points. Terminal edges carry the point weights; every other edge
// carries `infinite_capacity`. The relay wiring (WireRelays) adds its
// edges in the serial (point, chain) order, so the edge list -- and hence
// the max-flow traversal order and the extracted classifier -- is
// bit-identical to the serial build at every thread count.
SparseNetworkPlan BuildSparseChainRelayNetwork(
    const WeightedPointSet& set, const std::vector<size_t>& active,
    double infinite_capacity, const ParallelOptions& parallel = {});

}  // namespace monoclass

#endif  // MONOCLASS_PASSIVE_SPARSE_NETWORK_H_
