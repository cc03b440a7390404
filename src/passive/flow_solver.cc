// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "passive/flow_solver.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/invariant_audit.h"
#include "graph/flow_audit.h"
#include "obs/obs.h"
#include "passive/contending.h"
#include "util/audit.h"

namespace monoclass {
namespace {

// Relative tolerance for the flow-value vs. classifier-error cross-check.
constexpr double kErrorCheckTolerance = 1e-6;

}  // namespace

double PassiveInfiniteCapacity(const WeightedPointSet& set) {
  return set.TotalWeight() + 1.0;
}

void FinalizePassiveResult(const WeightedPointSet& set,
                           PassiveSolveResult& result) {
  auto classifier =
      MonotoneClassifier::FromAssignment(set.points(), result.assignment);
  MC_CHECK(classifier.has_value())
      << "Lemma 16 violated: cut classifier is not monotone";
  result.classifier = *std::move(classifier);

  // Cross-check Lemma 17 + Lemma 15: the classifier's weighted error on the
  // full set equals the max-flow (= min-cut) value.
  result.optimal_weighted_error = WeightedError(result.classifier, set);
  MC_CHECK_LE(std::abs(result.optimal_weighted_error - result.flow_value),
              kErrorCheckTolerance * std::max(1.0, result.flow_value))
      << "flow value disagrees with classifier error";
  MC_AUDIT(AuditMonotone(result.classifier, set.points()));
}

PassiveSolveResult SolvePassiveWeighted(const WeightedPointSet& set,
                                        const PassiveSolveOptions& options) {
  MC_CHECK(!set.empty());
  const size_t n = set.size();
  MC_SPAN("passive/solve");
  MC_LATENCY("mc.lat.passive_solve");
  MC_HISTOGRAM("passive.points", n);

  // Step 1: the point indices that participate in the network: the
  // contending points, or every point when the reduction is off (the
  // partition then only fills num_contending).
  PassiveSolveResult result{.classifier =
                                MonotoneClassifier::AlwaysZero(set.dimension())};
  std::vector<size_t> active;
  {
    MC_SPAN("passive/contending");
    active = ComputeContending(set.points(), set.labels(), options.parallel)
                 .contending;
    result.num_contending = active.size();
    if (!options.reduce_to_contending) {
      active.resize(n);
      std::iota(active.begin(), active.end(), size_t{0});
    }
  }
  MC_HISTOGRAM("passive.contending_points", result.num_contending);
  MC_GAUGE("passive.contending_fraction",
           static_cast<double>(result.num_contending) /
               static_cast<double>(n));

  // Step 2: build the network. Vertex 0 = source, 1 = sink, 2 + k = the
  // k-th active point. Type-3 edges get an effective infinity: one unit
  // above the total weight, so no minimum cut can afford one (Lemma 18).
  // Either builder may materialize the dominance structure: the dense
  // per-pair scan below or the O(n w) chain-relay construction of
  // passive/sparse_network.h -- both produce the identical min cut and
  // the identical classifier (docs/sparse_network.md).
  const int source = 0;
  const int sink = 1;
  const double infinite_capacity = PassiveInfiniteCapacity(set);
  result.used_sparse_network =
      options.network == PassiveNetworkBuild::kSparseChainRelay ||
      (options.network == PassiveNetworkBuild::kAuto &&
       active.size() >= options.sparse_auto_threshold);
  FlowNetwork network(0);
  [[maybe_unused]] int relay_begin = -1;  // consumed by MC_AUDIT below
  if (result.used_sparse_network) {
    SparseNetworkPlan plan = BuildSparseChainRelayNetwork(
        set, active, infinite_capacity, options.parallel);
    relay_begin = plan.relay_begin;
    result.network_finite_edges = plan.finite_edges;
    result.network_infinite_edges = plan.infinite_edges;
    result.network_relays = plan.num_relays;
    result.network_chains = plan.num_chains;
    network = std::move(plan.network);
    MC_COUNTER("mc.net.sparse_builds", 1);
    MC_COUNTER("mc.net.relays", result.network_relays);
    MC_COUNTER("mc.net.chains", result.network_chains);
  } else {
    MC_SPAN("passive/build_network");
    network = FlowNetwork(static_cast<int>(active.size()) + 2);
    for (size_t k = 0; k < active.size(); ++k) {
      const size_t i = active[k];
      const int vertex = static_cast<int>(k) + 2;
      if (set.label(i) == 0) {
        network.AddEdge(source, vertex, set.weight(i));
      } else {
        network.AddEdge(vertex, sink, set.weight(i));
      }
      ++result.network_finite_edges;
    }
    // Dominance-edge discovery is the O(n^2) part; it only *reads* the
    // point set, so rows shard freely. Each shard records its (a, b)
    // hits in a local buffer; the buffers are concatenated in shard
    // order and only then inserted into the network, so the edge list
    // (and the flow solver's traversal order) is bit-identical to the
    // serial double loop at any thread count. FlowNetwork::AddEdge
    // itself is unsynchronized by design -- it never runs concurrently.
    const size_t num_active = active.size();
    const size_t max_shards = std::max<size_t>(
        size_t{1}, std::min<size_t>(options.parallel.Resolve(),
                                    num_active == 0 ? 1 : num_active));
    std::vector<std::vector<std::pair<size_t, size_t>>> shard_edges(
        max_shards);
    ParallelFor(num_active, options.parallel,
                [&](size_t begin, size_t end, size_t shard) {
                  MC_SPAN("par.dominance");
                  std::vector<std::pair<size_t, size_t>>& edges =
                      shard_edges[shard];
                  for (size_t a = begin; a < end; ++a) {
                    const size_t p = active[a];
                    if (set.label(p) != 0) continue;
                    for (size_t b = 0; b < num_active; ++b) {
                      const size_t q = active[b];
                      if (set.label(q) != 1 || p == q) continue;
                      if (DominatesEq(set.point(p), set.point(q))) {
                        edges.emplace_back(a, b);
                      }
                    }
                  }
                });
    for (const auto& edges : shard_edges) {
      for (const auto& [a, b] : edges) {
        network.AddEdge(static_cast<int>(a) + 2, static_cast<int>(b) + 2,
                        infinite_capacity);
        ++result.network_infinite_edges;
      }
    }
    MC_COUNTER("mc.net.dense_builds", 1);
  }
  result.network_vertices = static_cast<size_t>(network.NumVertices());
  MC_COUNTER("mc.net.vertices", result.network_vertices);
  MC_COUNTER("mc.net.finite_edges", result.network_finite_edges);
  MC_COUNTER("mc.net.infinite_edges", result.network_infinite_edges);

  // Step 3: max flow and the residual-reachability cut.
  {
    MC_SPAN("passive/maxflow");
    result.flow_value =
        CreateMaxFlowSolver(options.algorithm)->Solve(network, source, sink);
  }
  MC_HISTOGRAM("passive.flow_value", result.flow_value);
  MC_AUDIT(AuditMinCut(network, source, sink, result.flow_value,
                       {.infinity_threshold = infinite_capacity,
                        .relay_vertex_begin = relay_begin}));
  MC_SPAN("passive/extract_cut");
  const std::vector<bool> reachable = ResidualReachable(network, source);

  // Step 4: h*_cut(p) = 1 iff p's vertex is NOT residual-reachable. For a
  // label-0 point that means its source edge is in the cut (mis-classified
  // as 1); for a label-1 point reachability means its sink edge is in the
  // cut (mis-classified as 0). Non-active points keep their own labels
  // (the h' construction in the proof of Lemma 15).
  result.assignment.resize(n);
  for (size_t i = 0; i < n; ++i) result.assignment[i] = set.label(i);
  for (size_t k = 0; k < active.size(); ++k) {
    const bool positive = !reachable[static_cast<size_t>(k) + 2];
    result.assignment[active[k]] = positive ? 1 : 0;
  }

  FinalizePassiveResult(set, result);
  return result;
}

PassiveSolveResult SolvePassiveUnweighted(const LabeledPointSet& set,
                                          const PassiveSolveOptions& options) {
  return SolvePassiveWeighted(WeightedPointSet::UnitWeights(set), options);
}

size_t OptimalError(const LabeledPointSet& set) {
  if (set.empty()) return 0;
  const PassiveSolveResult result = SolvePassiveUnweighted(set);
  return static_cast<size_t>(result.optimal_weighted_error + 0.5);
}

}  // namespace monoclass
