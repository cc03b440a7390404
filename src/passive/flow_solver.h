// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Theorem 4: exact passive weighted monotone classification in
// O(d n^2) + T_maxflow(n) time. The dominance passes (the contending
// points, the Lemma 16 check and generator pruning) query a
// DominanceFrontier (core/dominance.h), O(n log n) at d = 2.
//
// Pipeline (paper Section 5.1):
//   1. restrict to the contending points P^con (Lemma 15);
//   2. build the flow network -- source -> each label-0 point with
//      capacity weight(p); each label-1 point -> sink with capacity
//      weight(q); an "infinite" edge p -> q for every contending pair
//      with label-0 p dominating label-1 q;
//   3. compute a maximum flow; by max-flow min-cut (Lemmas 7-8) the
//      residual-unreachable side reads off a minimum cut-edge set, which
//      never contains an infinite edge (Lemma 18);
//   4. the classifier h*_cut assigns 1 to exactly the points NOT
//      residual-reachable from the source; it is monotone (Lemma 16) and
//      optimal (Lemma 17); non-contending points keep their own labels.

#ifndef MONOCLASS_PASSIVE_FLOW_SOLVER_H_
#define MONOCLASS_PASSIVE_FLOW_SOLVER_H_

#include <vector>

#include "core/classifier.h"
#include "core/dataset.h"
#include "graph/max_flow.h"
#include "passive/sparse_network.h"
#include "util/concurrency.h"

namespace monoclass {

struct PassiveSolveOptions {
  // Which max-flow algorithm powers step 3.
  MaxFlowAlgorithm algorithm = MaxFlowAlgorithm::kDinic;
  // When false, skips the Lemma 15 reduction and builds the network over
  // all points (ablation knob for bench_passive_scaling; the answer is
  // identical, the network is just larger).
  bool reduce_to_contending = true;
  // How step 2 materializes the network: the Theta(n^2)-edge dense build
  // or the O(n w) chain-relay build (passive/sparse_network.h). Both
  // yield the identical min-cut value and the identical classifier;
  // kAuto picks sparse at or above sparse_auto_threshold contending
  // points.
  PassiveNetworkBuild network = PassiveNetworkBuild::kAuto;
  size_t sparse_auto_threshold = 1024;
  // Parallelism for the network build (the dense dominance-edge pass or
  // the sparse relay wiring), row-partitioned with per-shard buffers
  // concatenated in shard order, so the network is bit-identical at any
  // thread count. threads = 1 forces the serial path; 0 = hardware
  // concurrency. Every other step runs on the caller's thread.
  ParallelOptions parallel;
};

struct PassiveSolveResult {
  MonotoneClassifier classifier;
  // The optimal weighted error w-err_P(h*) -- equals the max-flow value.
  double optimal_weighted_error = 0.0;
  // The explicit optimal 0/1 assignment over the input points.
  std::vector<Label> assignment;

  // Diagnostics for the experiment harnesses. Relay/chain counts are
  // zero for a dense build; network_infinite_edges counts dominating
  // pairs when dense and relay-routed edges when sparse.
  size_t num_contending = 0;
  size_t network_vertices = 0;
  size_t network_finite_edges = 0;
  size_t network_infinite_edges = 0;
  size_t network_relays = 0;
  size_t network_chains = 0;
  bool used_sparse_network = false;
  double flow_value = 0.0;
};

// The effective infinity for type-3 (dominance) edges: one unit above the
// total weight, so no minimum cut can afford one (Lemma 18). Shared by the
// cold solver and the incremental solver so both networks are built to the
// same threshold.
double PassiveInfiniteCapacity(const WeightedPointSet& set);

// Aborts on a weight at or below kFlowEps: max flow counts such a residual
// as saturated, so the flow would undercount the cut's error (Lemma 17).
void CheckPassiveWeight(double weight);

// Steps the solver pipeline from an optimal 0/1 assignment to a finished
// result: builds the monotone classifier (Lemma 16), recomputes the
// weighted error from the classifier, and cross-checks it against
// result.flow_value (Lemmas 15/17) within the solver's tolerance.
// `result.assignment` and `result.flow_value` must be populated. Shared
// with passive/incremental_solver.h, which is what makes the warm path's
// classifier construction bit-identical to the cold solver's.
void FinalizePassiveResult(const WeightedPointSet& set,
                           PassiveSolveResult& result);

// Solves Problem 2 exactly. Requires a non-empty input.
PassiveSolveResult SolvePassiveWeighted(
    const WeightedPointSet& set, const PassiveSolveOptions& options = {});

// Convenience for unweighted inputs: returns an optimal classifier and k*.
PassiveSolveResult SolvePassiveUnweighted(
    const LabeledPointSet& set, const PassiveSolveOptions& options = {});

// The optimal error k* of eq. (2), computed via the flow solver.
size_t OptimalError(const LabeledPointSet& set);

}  // namespace monoclass

#endif  // MONOCLASS_PASSIVE_FLOW_SOLVER_H_
