// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "graph/max_flow.h"

#include <deque>

#include "graph/dinic.h"
#include "graph/edmonds_karp.h"

namespace monoclass {

std::unique_ptr<MaxFlowSolver> CreateMaxFlowSolver(
    MaxFlowAlgorithm algorithm) {
  switch (algorithm) {
    case MaxFlowAlgorithm::kEdmondsKarp:
      return std::make_unique<EdmondsKarpSolver>();
    case MaxFlowAlgorithm::kDinic:
      return std::make_unique<DinicSolver>();
  }
  MC_CHECK(false) << "unknown MaxFlowAlgorithm";
  return nullptr;
}

std::vector<MaxFlowAlgorithm> AllMaxFlowAlgorithms() {
  return {MaxFlowAlgorithm::kEdmondsKarp, MaxFlowAlgorithm::kDinic};
}

std::vector<bool> ResidualReachable(const FlowNetwork& network, int source) {
  MC_CHECK(network.IsValidVertex(source));
  std::vector<bool> reachable(static_cast<size_t>(network.NumVertices()),
                              false);
  std::deque<int> queue;
  reachable[static_cast<size_t>(source)] = true;
  queue.push_back(source);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (const auto& edge : network.adjacency(u)) {
      if (edge.residual > kFlowEps &&
          !reachable[static_cast<size_t>(edge.to)]) {
        reachable[static_cast<size_t>(edge.to)] = true;
        queue.push_back(edge.to);
      }
    }
  }
  return reachable;
}

std::vector<CutEdge> MinCutEdges(const FlowNetwork& network, int source) {
  const std::vector<bool> reachable = ResidualReachable(network, source);
  std::vector<CutEdge> cut;
  for (int u = 0; u < network.NumVertices(); ++u) {
    if (!reachable[static_cast<size_t>(u)]) continue;
    for (const auto& edge : network.adjacency(u)) {
      // Original edges only (reverse twins carry capacity 0), crossing from
      // the reachable side to the unreachable side.
      if (edge.capacity > 0.0 && !reachable[static_cast<size_t>(edge.to)]) {
        cut.push_back(CutEdge{u, edge.to, edge.capacity});
      }
    }
  }
  return cut;
}

double MinCutWeight(const FlowNetwork& network, int source) {
  double weight = 0.0;
  for (const CutEdge& edge : MinCutEdges(network, source)) {
    weight += edge.capacity;
  }
  return weight;
}

}  // namespace monoclass
