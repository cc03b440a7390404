// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Graph containers shared by the max-flow and matching algorithms.
//
// FlowNetwork is a residual-capacity adjacency-list network: AddEdge
// inserts the forward edge together with its zero-capacity reverse twin,
// and the solvers operate directly on residual capacities. Capacities are
// doubles because the passive classification problem (paper Problem 2)
// has real-valued point weights; a small tolerance (kFlowEps) guards the
// "is this residual edge usable" tests against floating-point dust.

#ifndef MONOCLASS_GRAPH_GRAPH_H_
#define MONOCLASS_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace monoclass {

// Residual capacities at or below this threshold count as saturated. The
// passive solvers refuse weights at or below it (CheckPassiveWeight in
// passive/flow_solver.h), so no legitimate edge is ever mistaken for dust.
inline constexpr double kFlowEps = 1e-9;

// Directed flow network over vertices 0..NumVertices()-1 with residual
// bookkeeping. Not thread-safe during Solve (solvers mutate residuals).
class FlowNetwork {
 public:
  struct Edge {
    int to = 0;          // head vertex
    size_t rev = 0;      // index of the reverse edge in adjacency_[to]
    double residual = 0; // remaining capacity
    double capacity = 0; // original capacity (0 for reverse twins)
  };

  explicit FlowNetwork(int num_vertices) {
    MC_CHECK_GE(num_vertices, 0);
    adjacency_.resize(static_cast<size_t>(num_vertices));
  }

  // Adds a directed edge u -> v with the given capacity (>= 0) and its
  // residual twin v -> u with capacity 0. Returns the index of the forward
  // edge within adjacency(u), so callers can locate it again after solving
  // (e.g., to test cut membership).
  size_t AddEdge(int u, int v, double capacity) {
    MC_CHECK_GE(capacity, 0.0);
    MC_CHECK(IsValidVertex(u));
    MC_CHECK(IsValidVertex(v));
    auto& from_list = adjacency_[static_cast<size_t>(u)];
    auto& to_list = adjacency_[static_cast<size_t>(v)];
    const size_t forward_index = from_list.size();
    from_list.push_back(Edge{v, to_list.size(), capacity, capacity});
    to_list.push_back(Edge{u, forward_index, 0.0, 0.0});
    num_stored_edges_ += 2;
    return forward_index;
  }

  // Appends a fresh isolated vertex and returns its index. Incremental
  // consumers (passive/incremental_solver.h) grow the network in place as
  // points arrive instead of rebuilding it per delta.
  int AddVertex() {
    adjacency_.emplace_back();
    return NumVertices() - 1;
  }

  // Removes the capacity of the forward edge `edge_index` of `u` (and of
  // its reverse twin), leaving both as inert zero-capacity entries: the
  // solvers, audits and ResidualReachable all skip edges with no residual
  // and no capacity, so a deactivated edge behaves exactly like a reverse
  // twin of a never-added edge. The caller must first drain any flow the
  // edge carries (see IncrementalPassiveSolver::DrainEdge) -- deactivating
  // a flow-carrying edge would silently break flow conservation.
  void DeactivateEdge(int u, size_t edge_index) {
    MC_CHECK(IsValidVertex(u));
    auto& from_list = adjacency_[static_cast<size_t>(u)];
    MC_CHECK_LT(edge_index, from_list.size());
    Edge& edge = from_list[edge_index];
    Edge& twin = adjacency_[static_cast<size_t>(edge.to)][edge.rev];
    edge.capacity = 0.0;
    edge.residual = 0.0;
    twin.capacity = 0.0;
    twin.residual = 0.0;
  }

  int NumVertices() const { return static_cast<int>(adjacency_.size()); }

  // Total number of stored edges, counting reverse twins (deactivated
  // entries included). O(1): AddEdge keeps the count.
  size_t NumStoredEdges() const { return num_stored_edges_; }

  std::vector<Edge>& adjacency(int v) {
    MC_DCHECK(IsValidVertex(v));
    return adjacency_[static_cast<size_t>(v)];
  }
  const std::vector<Edge>& adjacency(int v) const {
    MC_DCHECK(IsValidVertex(v));
    return adjacency_[static_cast<size_t>(v)];
  }

  // Flow currently assigned to an edge (capacity minus residual).
  static double FlowOn(const Edge& edge) {
    return edge.capacity - edge.residual;
  }

  // Restores all residuals to the original capacities, undoing any solve.
  void ResetFlow() {
    for (auto& list : adjacency_) {
      for (auto& edge : list) edge.residual = edge.capacity;
    }
  }

  bool IsValidVertex(int v) const {
    return v >= 0 && v < NumVertices();
  }

 private:
  std::vector<std::vector<Edge>> adjacency_;
  size_t num_stored_edges_ = 0;
};

// Unweighted bipartite graph for the matching algorithms: left vertices
// 0..num_left-1, right vertices 0..num_right-1, edges stored on the left.
class BipartiteGraph {
 public:
  BipartiteGraph(int num_left, int num_right)
      : num_right_(num_right) {
    MC_CHECK_GE(num_left, 0);
    MC_CHECK_GE(num_right, 0);
    adjacency_.resize(static_cast<size_t>(num_left));
  }

  // Adds an edge between left vertex `l` and right vertex `r`.
  void AddEdge(int l, int r) {
    MC_CHECK_GE(l, 0);
    MC_CHECK_LT(l, NumLeft());
    MC_CHECK_GE(r, 0);
    MC_CHECK_LT(r, num_right_);
    adjacency_[static_cast<size_t>(l)].push_back(r);
  }

  int NumLeft() const { return static_cast<int>(adjacency_.size()); }
  int NumRight() const { return num_right_; }

  const std::vector<int>& Neighbors(int l) const {
    MC_DCHECK_GE(l, 0);
    MC_DCHECK_LT(l, NumLeft());
    return adjacency_[static_cast<size_t>(l)];
  }

  size_t NumEdges() const {
    size_t total = 0;
    for (const auto& list : adjacency_) total += list.size();
    return total;
  }

 private:
  int num_right_;
  std::vector<std::vector<int>> adjacency_;
};

// A matching of a bipartite graph. Entries are -1 when unmatched.
struct Matching {
  std::vector<int> left_to_right;  // size NumLeft
  std::vector<int> right_to_left;  // size NumRight
  int size = 0;
};

}  // namespace monoclass

#endif  // MONOCLASS_GRAPH_GRAPH_H_
