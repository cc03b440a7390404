// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Dense-vs-sparse equivalence for the chain-relay network builder
// (passive/sparse_network.h). The sparse build must be *transparent*:
// identical optimal weighted error, identical min-cut value and a
// bit-identical optimal assignment across dimensions, max-flow backends
// and thread counts -- plus structural checks on the relay network
// itself (edge budget, relay purity, determinism of the build).

#include "passive/sparse_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/chain_decomposition.h"
#include "core/chain_decomposition_2d.h"
#include "data/synthetic.h"
#include "graph/flow_audit.h"
#include "obs/obs.h"
#include "passive/contending.h"
#include "passive/flow_solver.h"
#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

PassiveSolveOptions DenseOptions() {
  PassiveSolveOptions options;
  options.network = PassiveNetworkBuild::kDense;
  return options;
}

PassiveSolveOptions SparseOptions() {
  PassiveSolveOptions options;
  options.network = PassiveNetworkBuild::kSparseChainRelay;
  return options;
}

TEST(SparseNetworkTest, BitIdenticalAcrossDimensionsBackendsAndThreads) {
  Rng rng(2026);
  for (const size_t d : {1u, 2u, 5u}) {
    for (int trial = 0; trial < 4; ++trial) {
      const size_t n = 20 + rng.UniformInt(60);
      const auto set = testing_util::RandomWeightedSet(
          rng, n, d, rng.UniformDoubleInRange(0.25, 0.75));
      for (const MaxFlowAlgorithm algorithm : AllMaxFlowAlgorithms()) {
        PassiveSolveOptions dense = DenseOptions();
        dense.algorithm = algorithm;
        const PassiveSolveResult reference = SolvePassiveWeighted(set, dense);
        ASSERT_FALSE(reference.used_sparse_network);
        for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
          PassiveSolveOptions sparse = SparseOptions();
          sparse.algorithm = algorithm;
          sparse.parallel.threads = threads;
          const PassiveSolveResult result = SolvePassiveWeighted(set, sparse);
          ASSERT_TRUE(result.used_sparse_network);
          EXPECT_EQ(result.assignment, reference.assignment)
              << "d=" << d << " trial=" << trial << " threads=" << threads;
          EXPECT_DOUBLE_EQ(result.optimal_weighted_error,
                           reference.optimal_weighted_error);
          EXPECT_EQ(result.classifier.ClassifySet(set.points()),
                    reference.classifier.ClassifySet(set.points()));
        }
      }
    }
  }
}

TEST(SparseNetworkTest, IdenticalOnDuplicateHeavyGrids) {
  // Coordinate collisions exercise the DominatesEq tie handling: equal
  // points with opposite labels are mutually dominating, so the relay
  // binary search must still find them.
  Rng rng(73);
  for (int trial = 0; trial < 30; ++trial) {
    WeightedPointSet set;
    const size_t n = 8 + rng.UniformInt(40);
    for (size_t i = 0; i < n; ++i) {
      set.Add(Point{static_cast<double>(rng.UniformInt(3)),
                    static_cast<double>(rng.UniformInt(3))},
              rng.Bernoulli(0.5) ? 1 : 0,
              static_cast<double>(1 + rng.UniformInt(4)));
    }
    const auto dense = SolvePassiveWeighted(set, DenseOptions());
    const auto sparse = SolvePassiveWeighted(set, SparseOptions());
    EXPECT_EQ(sparse.assignment, dense.assignment) << "trial " << trial;
    EXPECT_DOUBLE_EQ(sparse.optimal_weighted_error,
                     dense.optimal_weighted_error);
  }
}

TEST(SparseNetworkTest, PlantedInstanceMatchesDenseAtScale) {
  PlantedOptions options;
  options.num_points = 2000;
  options.dimension = 2;
  options.noise_flips = 200;
  options.seed = 11;
  const PlantedInstance instance = GeneratePlanted(options);
  const auto dense =
      SolvePassiveUnweighted(instance.data, DenseOptions());
  const auto sparse =
      SolvePassiveUnweighted(instance.data, SparseOptions());
  EXPECT_EQ(sparse.assignment, dense.assignment);
  EXPECT_DOUBLE_EQ(sparse.optimal_weighted_error,
                   dense.optimal_weighted_error);
  EXPECT_DOUBLE_EQ(sparse.flow_value, dense.flow_value);
  // The point of the construction: far fewer infinite edges.
  EXPECT_LT(sparse.network_infinite_edges, dense.network_infinite_edges);
}

TEST(SparseNetworkTest, EdgeBudgetIsPointsTimesChains) {
  // Per label-0 point at most one edge per chain, plus at most two relay
  // edges per label-1 point (its feed edge and one spine hop).
  Rng rng(97);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t d = 2 + rng.UniformInt(3);
    const auto labeled = testing_util::RandomLabeledSet(rng, 120, d);
    const auto set = WeightedPointSet::UnitWeights(labeled);
    const auto active =
        ComputeContending(set.points(), set.labels()).contending;
    const SparseNetworkPlan plan =
        BuildSparseChainRelayNetwork(set, active, set.TotalWeight() + 1.0);
    EXPECT_LE(plan.infinite_edges,
              active.size() * plan.num_chains + 2 * plan.num_relays);
    EXPECT_EQ(plan.finite_edges, active.size());
    EXPECT_EQ(plan.network.NumVertices(),
              static_cast<int>(active.size() + plan.num_relays) + 2);
  }
}

TEST(SparseNetworkTest, ChainsPartitionTheLabelOneActivePoints) {
  // Only label-1 points get relays, so only they are decomposed; the
  // relays follow plan.chains in the documented layout, which the
  // incremental rebuild reads its handles from.
  Rng rng(151);
  for (int trial = 0; trial < 12; ++trial) {
    const size_t d = 1 + trial % 4;
    const auto set = WeightedPointSet::UnitWeights(
        testing_util::RandomLabeledSet(rng, 80, d));
    const auto active =
        ComputeContending(set.points(), set.labels()).contending;
    const SparseNetworkPlan plan =
        BuildSparseChainRelayNetwork(set, active, set.TotalWeight() + 1.0);
    std::vector<size_t> ones;
    std::vector<int> vertex(set.size(), -1);
    for (size_t k = 0; k < active.size(); ++k) {
      if (set.label(active[k]) == 1) ones.push_back(active[k]);
      vertex[active[k]] = static_cast<int>(k) + 2;
    }
    ASSERT_FALSE(ones.empty()) << "trial " << trial;
    EXPECT_EQ(plan.num_chains, plan.chains.size());
    EXPECT_EQ(plan.num_relays, ones.size());
    std::vector<size_t> members;
    int relay = plan.relay_begin;
    for (const std::vector<size_t>& chain : plan.chains) {
      ASSERT_FALSE(chain.empty());
      for (size_t t = 0; t < chain.size(); ++t, ++relay) {
        const auto& edges = plan.network.adjacency(relay);
        EXPECT_EQ(edges[0].to, vertex[chain[t]]);
        if (t > 0) {
          EXPECT_TRUE(DominatesEq(set.point(chain[t]), set.point(chain[t - 1])))
              << "trial " << trial;
          EXPECT_EQ(edges[1].to, relay - 1);
        }
        members.push_back(chain[t]);
      }
    }
    std::sort(members.begin(), members.end());
    EXPECT_EQ(members, ones) << "trial " << trial;
    if (d == 2) {
      EXPECT_EQ(plan.chains.size(),
                MinimumChainDecomposition2D(set.points().Subset(ones))
                    .NumChains());
    }
  }
}

TEST(SparseNetworkTest, RelayPurityAuditPassesAndCatchesViolations) {
  Rng rng(101);
  const auto labeled = testing_util::RandomLabeledSet(rng, 60, 2);
  const auto set = WeightedPointSet::UnitWeights(labeled);
  const auto active =
      ComputeContending(set.points(), set.labels()).contending;
  ASSERT_GT(active.size(), 0u);
  const double infinity = set.TotalWeight() + 1.0;
  SparseNetworkPlan plan =
      BuildSparseChainRelayNetwork(set, active, infinity);
  FlowAuditOptions options;
  options.infinity_threshold = infinity;
  options.relay_vertex_begin = plan.relay_begin;
  const double flow =
      CreateMaxFlowSolver(MaxFlowAlgorithm::kDinic)->Solve(plan.network, 0, 1);
  EXPECT_TRUE(AuditMinCut(plan.network, 0, 1, flow, options).ok);

  // A finite-capacity edge touching a relay must be flagged.
  ASSERT_GT(plan.num_relays, 0u);
  plan.network.AddEdge(0, plan.relay_begin, 0.25);
  plan.network.ResetFlow();
  const double tainted_flow =
      CreateMaxFlowSolver(MaxFlowAlgorithm::kDinic)->Solve(plan.network, 0, 1);
  const AuditResult tainted =
      AuditMinCut(plan.network, 0, 1, tainted_flow, options);
  EXPECT_FALSE(tainted.ok);
  EXPECT_NE(tainted.failure.find("relay purity"), std::string::npos);

  // A source or sink inside the relay range must be flagged too.
  FlowAuditOptions bad_range = options;
  bad_range.relay_vertex_begin = 0;
  EXPECT_FALSE(AuditMinCut(plan.network, 0, 1, tainted_flow, bad_range).ok);
}

TEST(SparseNetworkTest, BuildIsDeterministicAcrossThreadCounts) {
  Rng rng(113);
  const auto labeled = testing_util::RandomLabeledSet(rng, 200, 3);
  const auto set = WeightedPointSet::UnitWeights(labeled);
  const auto active =
      ComputeContending(set.points(), set.labels()).contending;
  const double infinity = set.TotalWeight() + 1.0;
  ParallelOptions serial;
  serial.threads = 1;
  const SparseNetworkPlan reference =
      BuildSparseChainRelayNetwork(set, active, infinity, serial);
  for (const size_t threads : {size_t{2}, size_t{8}}) {
    ParallelOptions parallel;
    parallel.threads = threads;
    const SparseNetworkPlan plan =
        BuildSparseChainRelayNetwork(set, active, infinity, parallel);
    ASSERT_EQ(plan.network.NumVertices(), reference.network.NumVertices());
    EXPECT_EQ(plan.infinite_edges, reference.infinite_edges);
    for (int v = 0; v < plan.network.NumVertices(); ++v) {
      const auto& got = plan.network.adjacency(v);
      const auto& want = reference.network.adjacency(v);
      ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
      for (size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got[e].to, want[e].to);
        EXPECT_EQ(got[e].capacity, want[e].capacity);
      }
    }
  }
}

TEST(SparseNetworkTest, AutoThresholdSelectsBuilder) {
  PlantedOptions planted;
  planted.num_points = 400;
  planted.dimension = 2;
  planted.noise_flips = 120;
  planted.seed = 7;
  const PlantedInstance instance = GeneratePlanted(planted);

  PassiveSolveOptions below;
  below.sparse_auto_threshold = 1000000;
  EXPECT_FALSE(
      SolvePassiveUnweighted(instance.data, below).used_sparse_network);

  PassiveSolveOptions above;
  above.sparse_auto_threshold = 1;
  const auto sparse = SolvePassiveUnweighted(instance.data, above);
  EXPECT_TRUE(sparse.used_sparse_network);
  EXPECT_GT(sparse.network_relays, 0u);
  EXPECT_GT(sparse.network_chains, 0u);
  EXPECT_EQ(sparse.optimal_weighted_error,
            SolvePassiveUnweighted(instance.data, below)
                .optimal_weighted_error);
}

TEST(SparseNetworkTest, EmptyAndConflictFreeInputs) {
  // No contending points: the sparse path must cope with an empty
  // active set (and with active sets that have no label-1 members).
  LabeledPointSet monotone;
  monotone.Add(Point{0, 0}, 0);
  monotone.Add(Point{1, 1}, 1);
  const auto result = SolvePassiveUnweighted(monotone, SparseOptions());
  EXPECT_TRUE(result.used_sparse_network);
  EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 0.0);
  EXPECT_EQ(result.network_relays, 0u);

  // A single mutually-dominating duplicate pair: one relay, one cut.
  WeightedPointSet pair;
  pair.Add(Point{1, 1}, 1, 3.0);
  pair.Add(Point{1, 1}, 0, 1.0);
  const auto dup = SolvePassiveWeighted(pair, SparseOptions());
  EXPECT_DOUBLE_EQ(dup.optimal_weighted_error, 1.0);
  EXPECT_EQ(dup.assignment[0], 1);
  EXPECT_EQ(dup.assignment[1], 1);
  EXPECT_EQ(dup.network_relays, 1u);
}

TEST(SparseNetworkTest, DirectBuildOnEmptyActiveSet) {
  // The builder itself (not just the solver wrapper) must accept an
  // empty contending set: just source and sink, no edges, no chains.
  WeightedPointSet set;
  set.Add(Point{0, 0}, 0, 1.0);
  set.Add(Point{1, 1}, 1, 1.0);
  SparseNetworkPlan plan = BuildSparseChainRelayNetwork(
      set, /*active=*/{}, set.TotalWeight() + 1.0);
  EXPECT_EQ(plan.network.NumVertices(), 2);
  EXPECT_EQ(plan.finite_edges, 0u);
  EXPECT_EQ(plan.infinite_edges, 0u);
  EXPECT_EQ(plan.num_chains, 0u);
  EXPECT_EQ(plan.num_relays, 0u);
  const double flow =
      CreateMaxFlowSolver(MaxFlowAlgorithm::kDinic)->Solve(plan.network, 0, 1);
  EXPECT_DOUBLE_EQ(flow, 0.0);
}

TEST(SparseNetworkTest, HighestDominatedPositionOnEmptyChain) {
  // The wiring rule's binary search must answer "no member" on an empty
  // chain rather than walking off the end -- the case the incremental
  // solver hits whenever a chain is drained of members and reused.
  PointSet points;
  points.Add(Point{1, 1});
  EXPECT_EQ(HighestDominatedPosition(points, /*members=*/{}, points[0]),
            kNoDominatedMember);
}

TEST(SparseNetworkTest, AllDuplicateMultisetMixedLabels) {
  // Every point identical: all points are pairwise mutually dominating,
  // so with both labels present EVERY point is contending, the chain
  // decomposition collapses to one chain, and the optimum pays the
  // lighter label side (the whole conflict is one clique).
  Rng rng(131);
  for (int trial = 0; trial < 10; ++trial) {
    WeightedPointSet set;
    double zero_weight = 0.0;
    double one_weight = 0.0;
    const size_t n = 4 + rng.UniformInt(20);
    size_t ones = 0;
    for (size_t i = 0; i < n; ++i) {
      // Force at least one point of each label.
      const Label label = i == 0 ? 0 : (i == 1 ? 1 : rng.Bernoulli(0.5));
      const double weight = rng.UniformDoubleInRange(0.5, 3.0);
      (label == 0 ? zero_weight : one_weight) += weight;
      ones += label;
      set.Add(Point{2.0, 3.0}, label, weight);
    }
    const auto sparse = SolvePassiveWeighted(set, SparseOptions());
    const auto dense = SolvePassiveWeighted(set, DenseOptions());
    EXPECT_EQ(sparse.assignment, dense.assignment) << "trial " << trial;
    EXPECT_EQ(sparse.num_contending, n);
    EXPECT_EQ(sparse.network_chains, 1u);
    EXPECT_EQ(sparse.network_relays, ones);
    EXPECT_NEAR(sparse.optimal_weighted_error,
                std::min(zero_weight, one_weight), 1e-9);
  }
}

TEST(SparseNetworkTest, AllDuplicateMultisetSingleLabel) {
  // All duplicates, one label: nothing conflicts, so nothing is
  // contending and the sparse build degenerates to the empty network.
  for (const Label label : {Label{0}, Label{1}}) {
    WeightedPointSet set;
    for (int i = 0; i < 6; ++i) {
      set.Add(Point{1.5, 0.5}, label, 2.0);
    }
    const auto result = SolvePassiveWeighted(set, SparseOptions());
    EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 0.0);
    EXPECT_EQ(result.num_contending, 0u);
    EXPECT_EQ(result.network_relays, 0u);
    EXPECT_EQ(result.assignment, std::vector<Label>(6, label));
  }
}

// ---------------------------------------------------------------------
// WireRelays: the shared relay wiring must yield exactly the wires of the
// unfiltered loop -- one HighestDominatedPosition per (query, chain) --
// in the same order, at every thread count.

std::vector<RelayWire> UnfilteredWires(
    const PointSet& points, const std::vector<size_t>& queries,
    const std::vector<std::vector<size_t>>& chains) {
  std::vector<RelayWire> wires;
  for (size_t q = 0; q < queries.size(); ++q) {
    size_t offset = 0;
    for (const std::vector<size_t>& chain : chains) {
      const size_t t =
          HighestDominatedPosition(points, chain, points[queries[q]]);
      if (t != kNoDominatedMember) wires.emplace_back(q, offset + t);
      offset += chain.size();
    }
  }
  return wires;
}

std::vector<RelayWire> Concatenated(
    const std::vector<std::vector<RelayWire>>& shards) {
  std::vector<RelayWire> wires;
  for (const auto& shard : shards) {
    wires.insert(wires.end(), shard.begin(), shard.end());
  }
  return wires;
}

// The sparse builder's shape: chains over every point, each keeping only
// its label-1 members (so some chains may be empty), wired from the
// label-0 points.
struct WiringInput {
  std::vector<size_t> queries;
  std::vector<std::vector<size_t>> chains;
};

WiringInput LabelSplit(const LabeledPointSet& set) {
  WiringInput input;
  const ChainDecomposition decomposition =
      ScalableChainDecomposition(set.points(), kSparseExactMatchingLimit);
  for (const std::vector<size_t>& chain : decomposition.chains) {
    input.chains.emplace_back();
    for (const size_t i : chain) {
      if (set.label(i) == 1) input.chains.back().push_back(i);
    }
  }
  for (size_t i = 0; i < set.size(); ++i) {
    if (set.label(i) == 0) input.queries.push_back(i);
  }
  return input;
}

void ExpectWiresMatchUnfiltered(const PointSet& points,
                                const WiringInput& input) {
  const std::vector<RelayWire> want =
      UnfilteredWires(points, input.queries, input.chains);
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ParallelOptions parallel;
    parallel.threads = threads;
    const std::vector<RelayWire> got = Concatenated(
        WireRelays(points, input.queries, input.chains, parallel));
    ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
    for (size_t e = 0; e < got.size(); ++e) {
      EXPECT_EQ(got[e], want[e]) << "wire " << e << " threads=" << threads;
    }
  }
}

TEST(WireRelaysTest, MatchesUnfilteredLoopOnRandomSets) {
  Rng rng(211);
  for (const size_t d : {1u, 2u, 3u}) {
    for (int trial = 0; trial < 12; ++trial) {
      const size_t n = 1 + rng.UniformInt(80);
      const auto set = testing_util::RandomLabeledSet(rng, n, d);
      SCOPED_TRACE(::testing::Message() << "d=" << d << " trial=" << trial);
      ExpectWiresMatchUnfiltered(set.points(), LabelSplit(set));
    }
  }
}

TEST(WireRelaysTest, MatchesUnfilteredLoopOnGridsWithSignedZeros) {
  // Duplicate coordinates and -0.0 beside 0.0: the bottom test must tie
  // exactly as DominatesEq does.
  Rng rng(223);
  for (const size_t d : {1u, 2u, 3u}) {
    for (int trial = 0; trial < 40; ++trial) {
      LabeledPointSet set;
      const size_t n = 1 + rng.UniformInt(40);
      for (size_t i = 0; i < n; ++i) {
        std::vector<double> coordinates;
        for (size_t j = 0; j < d; ++j) {
          const double c = static_cast<double>(rng.UniformInt(3)) - 1.0;
          coordinates.push_back(c == 0.0 && rng.Bernoulli(0.5) ? -0.0 : c);
        }
        set.Add(Point(coordinates), rng.Bernoulli(0.5) ? 1 : 0);
      }
      SCOPED_TRACE(::testing::Message() << "d=" << d << " trial=" << trial);
      ExpectWiresMatchUnfiltered(set.points(), LabelSplit(set));
    }
  }
}

TEST(WireRelaysTest, EmptyChainsAndNoQueries) {
  const PointSet points({Point{0, 0}, Point{1, 1}, Point{2, 0}, Point{3, 3}});
  // Chains with no member keep their place in the relay numbering.
  WiringInput input{.queries = {3, 1}, .chains = {{}, {0, 1}, {}, {2}, {}}};
  ExpectWiresMatchUnfiltered(points, input);
  EXPECT_EQ(Concatenated(WireRelays(points, input.queries, input.chains)),
            (std::vector<RelayWire>{{0, 1}, {0, 2}, {1, 1}}));
  // No queries, or nothing to wire to: no wires at any thread count.
  ExpectWiresMatchUnfiltered(points, {.queries = {}, .chains = {{0, 1}}});
  ExpectWiresMatchUnfiltered(points, {.queries = {3}, .chains = {{}, {}}});
  ExpectWiresMatchUnfiltered(points, {.queries = {3}, .chains = {}});
  EXPECT_TRUE(Concatenated(WireRelays(points, {}, {{0, 1}})).empty());
}

TEST(WireRelaysTest, EveryQueryAboveEveryBottomSearchesEveryChain) {
  // The degenerate case: every query dominates every chain's lowest
  // member, so no chain is skipped and the searches are queries x chains.
  constexpr size_t kChains = 6;
  constexpr size_t kLength = 5;
  PointSet points;
  WiringInput input;
  for (size_t c = 0; c < kChains; ++c) {
    input.chains.emplace_back();
    for (size_t t = 0; t < kLength; ++t) {
      input.chains.back().push_back(points.size());
      points.Add(Point{static_cast<double>(c + t * kChains),
                       static_cast<double>(kChains - 1 - c + t * kChains)});
    }
  }
  for (size_t q = 0; q < 20; ++q) {
    input.queries.push_back(points.size());
    points.Add(Point{static_cast<double>(kChains + q),
                     static_cast<double>(kChains + 2 * q)});
  }
  ExpectWiresMatchUnfiltered(points, input);
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  const size_t wires =
      Concatenated(WireRelays(points, input.queries, input.chains)).size();
  const uint64_t searches =
      obs::MetricsRegistry::Global().Snapshot().CounterValue(
          "mc.net.relay_searches");
  obs::SetEnabled(false);
  EXPECT_EQ(wires, input.queries.size() * kChains);
  EXPECT_EQ(searches, wires);
}

TEST(WireRelaysTest, SearchesEqualWiringEdgesOnAPlantedInstance) {
  PlantedOptions options;
  options.num_points = 2000;
  options.dimension = 2;
  options.noise_flips = 20;
  options.seed = 5;
  const PlantedInstance instance = GeneratePlanted(options);
  const auto set = WeightedPointSet::UnitWeights(instance.data);
  const auto active =
      ComputeContending(set.points(), set.labels()).contending;
  size_t zeros = 0;
  for (const size_t i : active) zeros += set.label(i) == 0 ? 1 : 0;

  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  const SparseNetworkPlan plan =
      BuildSparseChainRelayNetwork(set, active, set.TotalWeight() + 1.0);
  const uint64_t searches =
      obs::MetricsRegistry::Global().Snapshot().CounterValue(
          "mc.net.relay_searches");
  obs::SetEnabled(false);

  // Wiring edges: forward edges from a point vertex into the relays.
  uint64_t wiring_edges = 0;
  for (int v = 2; v < plan.relay_begin; ++v) {
    for (const FlowNetwork::Edge& edge : plan.network.adjacency(v)) {
      if (edge.capacity > 0.0 && edge.to >= plan.relay_begin) ++wiring_edges;
    }
  }
  EXPECT_GT(wiring_edges, 0u);
  EXPECT_EQ(searches, wiring_edges);
  // The bottom test is what keeps the count there: the unfiltered loop
  // searched every (label-0 point, chain) pair.
  EXPECT_LT(searches, zeros * plan.num_chains);
}

}  // namespace
}  // namespace monoclass
