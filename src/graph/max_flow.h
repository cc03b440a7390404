// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Common interface for the maximum-flow solvers plus minimum-cut
// extraction (the explicit construction from the paper's Lemma 8 proof:
// the source side of the cut is the set of vertices residual-reachable
// from the source once a maximum flow is in place).

#ifndef MONOCLASS_GRAPH_MAX_FLOW_H_
#define MONOCLASS_GRAPH_MAX_FLOW_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace monoclass {

// Abstract maximum-flow solver. Implementations mutate the network's
// residual capacities; call FlowNetwork::ResetFlow() to reuse a network.
class MaxFlowSolver {
 public:
  virtual ~MaxFlowSolver() = default;

  // Computes a maximum flow from `source` to `sink` and returns its value.
  // Residual capacities in `network` reflect the flow afterwards.
  virtual double Solve(FlowNetwork& network, int source, int sink) = 0;

  // Residual-repair entry point: pushes additional flow along whatever
  // augmenting paths remain in a network that already carries a feasible
  // (not necessarily maximum) flow, and returns only the *added* value.
  // Every bundled backend works purely on residual capacities, so the
  // default simply re-runs Solve -- on a warm network that augments the
  // few repaired paths a delta opened instead of recomputing from zero.
  // This is what IncrementalPassiveSolver calls after patching the
  // dominance neighborhood of an Insert/Erase/Relabel delta.
  virtual double Augment(FlowNetwork& network, int source, int sink) {
    return Solve(network, source, sink);
  }

  // Human-readable algorithm name for benchmark tables.
  virtual std::string Name() const = 0;
};

// Identifiers for the bundled solver implementations.
enum class MaxFlowAlgorithm {
  kEdmondsKarp,  // BFS augmenting paths, O(VE^2); the reference
  kDinic,        // level graph + blocking flow, O(V^2 E); production
};

// Factory. kDinic is the library default (best all-round on the
// classification networks; see bench_maxflow).
std::unique_ptr<MaxFlowSolver> CreateMaxFlowSolver(MaxFlowAlgorithm algorithm);

// All bundled algorithms, for sweep-style tests and benchmarks.
std::vector<MaxFlowAlgorithm> AllMaxFlowAlgorithms();

// After a max flow has been computed on `network`, returns the bit-vector
// of vertices reachable from `source` through edges with positive residual
// capacity. This is the source side V_src of a minimum cut; the minimum
// cut-edge set is exactly the set of original edges leaving V_src
// (Lemmas 7-8 of the paper).
std::vector<bool> ResidualReachable(const FlowNetwork& network, int source);

// Convenience: a (u, edge-index) handle for each original edge crossing the
// minimum cut, computed from ResidualReachable. Skips reverse twins.
struct CutEdge {
  int from = 0;
  int to = 0;
  double capacity = 0;
};
std::vector<CutEdge> MinCutEdges(const FlowNetwork& network, int source);

// Sum of capacities of MinCutEdges; equals the max-flow value for a correct
// solver (used as a cross-check in tests).
double MinCutWeight(const FlowNetwork& network, int source);

}  // namespace monoclass

#endif  // MONOCLASS_GRAPH_MAX_FLOW_H_
