// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Dinic's maximum-flow algorithm: repeated BFS level graphs with DFS
// blocking flows. O(V^2 E) in general, O(E sqrt(V)) on unit-capacity
// graphs. This is the library's default solver: the classification
// networks of paper Section 5 are shallow (every source-sink path has
// exactly three edges), where Dinic terminates in at most a handful of
// phases.

#ifndef MONOCLASS_GRAPH_DINIC_H_
#define MONOCLASS_GRAPH_DINIC_H_

#include <string>
#include <vector>

#include "graph/max_flow.h"

namespace monoclass {

class DinicSolver final : public MaxFlowSolver {
 public:
  double Solve(FlowNetwork& network, int source, int sink) override;
  std::string Name() const override { return "dinic"; }

  // Whether the last Solve's last level graph reached `v`. Solve stops at
  // the first level graph that misses the sink, so these are the vertices
  // residual-reachable from the source under the maximum flow: the
  // ResidualReachable set, a minimum cut's source side, read without a
  // further traversal. Valid until the next Solve; `v` must be a vertex
  // of the network that Solve ran on.
  bool Reached(int v) const {
    MC_DCHECK_LT(static_cast<size_t>(v), level_.size());
    return level_[static_cast<size_t>(v)] >= 0;
  }

 private:
  // Rebuilds the BFS level graph; returns false when the sink became
  // unreachable (i.e., the flow is maximum).
  bool BuildLevels(const FlowNetwork& network, int source, int sink);

  // Sends a blocking-flow augmentation of at most `limit` units from
  // `vertex` towards the sink along strictly level-increasing edges.
  double Augment(FlowNetwork& network, int vertex, int sink, double limit);

  std::vector<int> level_;
  std::vector<size_t> next_edge_;
};

}  // namespace monoclass

#endif  // MONOCLASS_GRAPH_DINIC_H_
