// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Unit and property tests for the two max-flow solvers (Dinic in
// production, Edmonds-Karp as the reference) and the min-cut extraction:
// hand-computed instances, cross-solver agreement, agreement with a
// brute-force minimum cut (max-flow min-cut theorem, Lemma 7), and
// flow-validity audits.

#include "graph/max_flow.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

using testing_util::BruteForceMinCut;
using testing_util::FlowInstance;
using testing_util::RandomFlowInstance;

// Audits the capacity and conservation constraints of Section 2 on the
// solved network, and that the net out-flow of the source matches `value`.
void ExpectValidFlow(const FlowNetwork& network, int source, int sink,
                     double value) {
  std::vector<double> net(static_cast<size_t>(network.NumVertices()), 0.0);
  for (int u = 0; u < network.NumVertices(); ++u) {
    for (const auto& edge : network.adjacency(u)) {
      if (edge.capacity <= 0.0) continue;  // reverse twin
      const double flow = FlowNetwork::FlowOn(edge);
      EXPECT_GE(flow, -kFlowEps);
      EXPECT_LE(flow, edge.capacity + kFlowEps);
      net[static_cast<size_t>(u)] += flow;
      net[static_cast<size_t>(edge.to)] -= flow;
    }
  }
  for (int v = 0; v < network.NumVertices(); ++v) {
    if (v == source) {
      EXPECT_NEAR(net[static_cast<size_t>(v)], value, 1e-6);
    } else if (v == sink) {
      EXPECT_NEAR(net[static_cast<size_t>(v)], -value, 1e-6);
    } else {
      EXPECT_NEAR(net[static_cast<size_t>(v)], 0.0, 1e-6);
    }
  }
}

class MaxFlowAlgorithmTest
    : public ::testing::TestWithParam<MaxFlowAlgorithm> {
 protected:
  double Solve(FlowNetwork& network, int source, int sink) {
    return CreateMaxFlowSolver(GetParam())->Solve(network, source, sink);
  }
};

TEST_P(MaxFlowAlgorithmTest, SingleEdge) {
  FlowNetwork network(2);
  network.AddEdge(0, 1, 7.5);
  EXPECT_DOUBLE_EQ(Solve(network, 0, 1), 7.5);
}

TEST_P(MaxFlowAlgorithmTest, TwoEdgePathTakesBottleneck) {
  FlowNetwork network(3);
  network.AddEdge(0, 1, 9.0);
  network.AddEdge(1, 2, 4.0);
  EXPECT_DOUBLE_EQ(Solve(network, 0, 2), 4.0);
}

TEST_P(MaxFlowAlgorithmTest, ParallelPathsAdd) {
  FlowNetwork network(4);
  network.AddEdge(0, 1, 3.0);
  network.AddEdge(1, 3, 3.0);
  network.AddEdge(0, 2, 5.0);
  network.AddEdge(2, 3, 2.0);
  EXPECT_DOUBLE_EQ(Solve(network, 0, 3), 5.0);
}

TEST_P(MaxFlowAlgorithmTest, DisconnectedSinkGivesZero) {
  FlowNetwork network(4);
  network.AddEdge(0, 1, 3.0);
  network.AddEdge(2, 3, 3.0);
  EXPECT_DOUBLE_EQ(Solve(network, 0, 3), 0.0);
}

TEST_P(MaxFlowAlgorithmTest, NoEdgesAtAll) {
  FlowNetwork network(2);
  EXPECT_DOUBLE_EQ(Solve(network, 0, 1), 0.0);
}

TEST_P(MaxFlowAlgorithmTest, ClassicCLRSInstance) {
  // CLRS figure 26.6 instance; max flow 23.
  FlowNetwork network(6);
  network.AddEdge(0, 1, 16);
  network.AddEdge(0, 2, 13);
  network.AddEdge(1, 2, 10);
  network.AddEdge(2, 1, 4);
  network.AddEdge(1, 3, 12);
  network.AddEdge(3, 2, 9);
  network.AddEdge(2, 4, 14);
  network.AddEdge(4, 3, 7);
  network.AddEdge(3, 5, 20);
  network.AddEdge(4, 5, 4);
  EXPECT_DOUBLE_EQ(Solve(network, 0, 5), 23.0);
}

TEST_P(MaxFlowAlgorithmTest, RequiresReverseEdgeReasoning) {
  // The greedy path 0-1-2-3 must partially back off for the optimum 2.
  FlowNetwork network(4);
  network.AddEdge(0, 1, 1);
  network.AddEdge(0, 2, 1);
  network.AddEdge(1, 2, 1);
  network.AddEdge(1, 3, 1);
  network.AddEdge(2, 3, 1);
  EXPECT_DOUBLE_EQ(Solve(network, 0, 3), 2.0);
}

TEST_P(MaxFlowAlgorithmTest, FractionalCapacities) {
  FlowNetwork network(4);
  network.AddEdge(0, 1, 0.25);
  network.AddEdge(0, 2, 0.5);
  network.AddEdge(1, 3, 1.0);
  network.AddEdge(2, 3, 0.125);
  EXPECT_NEAR(Solve(network, 0, 3), 0.375, 1e-12);
}

TEST_P(MaxFlowAlgorithmTest, ZeroCapacityEdgeIgnored) {
  FlowNetwork network(3);
  network.AddEdge(0, 1, 0.0);
  network.AddEdge(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(Solve(network, 0, 2), 0.0);
}

TEST_P(MaxFlowAlgorithmTest, MultiEdgesBetweenSamePair) {
  FlowNetwork network(3);
  network.AddEdge(0, 1, 2.0);
  network.AddEdge(0, 1, 3.0);
  network.AddEdge(1, 2, 4.0);
  EXPECT_DOUBLE_EQ(Solve(network, 0, 2), 4.0);
}

TEST_P(MaxFlowAlgorithmTest, FlowIsValidOnRandomInstances) {
  Rng rng(0xfeedu + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    const FlowInstance instance = RandomFlowInstance(rng, 8, 20);
    FlowNetwork network = instance.Build();
    const double value = Solve(network, instance.source, instance.sink);
    ExpectValidFlow(network, instance.source, instance.sink, value);
  }
}

TEST_P(MaxFlowAlgorithmTest, MatchesBruteForceMinCut) {
  Rng rng(0xabcdu + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 60; ++trial) {
    const FlowInstance instance =
        RandomFlowInstance(rng, 2 + static_cast<int>(rng.UniformInt(8)), 24);
    FlowNetwork network = instance.Build();
    const double flow = Solve(network, instance.source, instance.sink);
    EXPECT_NEAR(flow, BruteForceMinCut(instance), 1e-9)
        << "trial " << trial;
  }
}

TEST_P(MaxFlowAlgorithmTest, MinCutEdgesMatchFlowValue) {
  Rng rng(0x5150u + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 60; ++trial) {
    const FlowInstance instance =
        RandomFlowInstance(rng, 2 + static_cast<int>(rng.UniformInt(9)), 30);
    FlowNetwork network = instance.Build();
    const double flow = Solve(network, instance.source, instance.sink);
    EXPECT_NEAR(MinCutWeight(network, instance.source), flow, 1e-9);
  }
}

TEST_P(MaxFlowAlgorithmTest, CutDisconnectsSourceFromSink) {
  Rng rng(0x1234u + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 30; ++trial) {
    const FlowInstance instance = RandomFlowInstance(rng, 9, 26);
    FlowNetwork network = instance.Build();
    Solve(network, instance.source, instance.sink);
    const std::vector<bool> reachable =
        ResidualReachable(network, instance.source);
    EXPECT_TRUE(reachable[static_cast<size_t>(instance.source)]);
    EXPECT_FALSE(reachable[static_cast<size_t>(instance.sink)])
        << "max flow must saturate every augmenting path";
  }
}

TEST_P(MaxFlowAlgorithmTest, ResetFlowAllowsResolving) {
  FlowNetwork network(3);
  network.AddEdge(0, 1, 2.0);
  network.AddEdge(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(Solve(network, 0, 2), 2.0);
  network.ResetFlow();
  EXPECT_DOUBLE_EQ(Solve(network, 0, 2), 2.0);
}

TEST_P(MaxFlowAlgorithmTest, LargeLayeredNetwork) {
  // 3 layers x 30 vertices, unit capacities: max flow = 30.
  constexpr int kLayerSize = 30;
  FlowNetwork network(2 + 3 * kLayerSize);
  const int source = 0;
  const int sink = 1;
  auto vertex = [&](int layer, int i) { return 2 + layer * kLayerSize + i; };
  for (int i = 0; i < kLayerSize; ++i) {
    network.AddEdge(source, vertex(0, i), 1.0);
    network.AddEdge(vertex(2, i), sink, 1.0);
  }
  for (int layer = 0; layer < 2; ++layer) {
    for (int i = 0; i < kLayerSize; ++i) {
      for (int j = 0; j < kLayerSize; j += 3) {
        network.AddEdge(vertex(layer, i), vertex(layer + 1, (i + j) % kLayerSize),
                        1.0);
      }
    }
  }
  EXPECT_DOUBLE_EQ(Solve(network, source, sink),
                   static_cast<double>(kLayerSize));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, MaxFlowAlgorithmTest,
    ::testing::ValuesIn(AllMaxFlowAlgorithms()),
    [](const ::testing::TestParamInfo<MaxFlowAlgorithm>& param_info) {
      std::string name = CreateMaxFlowSolver(param_info.param)->Name();
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Cross-solver stress: both algorithms must agree on medium-size random
// networks (too big for the brute-force cut, so Edmonds-Karp serves as
// the reference and Dinic must match it exactly).
TEST(MaxFlowCrossSolverTest, AllSolversAgreeOnMediumGraphs) {
  Rng rng(0x600d);
  for (int trial = 0; trial < 12; ++trial) {
    const int vertices = 50 + static_cast<int>(rng.UniformInt(150));
    const FlowInstance instance =
        RandomFlowInstance(rng, vertices, vertices * 6, 100.0);
    double reference = -1.0;
    for (const auto algorithm : AllMaxFlowAlgorithms()) {
      FlowNetwork network = instance.Build();
      const double flow = CreateMaxFlowSolver(algorithm)->Solve(
          network, instance.source, instance.sink);
      if (reference < 0) {
        reference = flow;
      } else {
        ASSERT_NEAR(flow, reference, 1e-6)
            << CreateMaxFlowSolver(algorithm)->Name() << " trial " << trial;
      }
      ASSERT_NEAR(MinCutWeight(network, instance.source), flow, 1e-6);
    }
  }
}

TEST(MaxFlowCrossSolverTest, AgreeOnNearlyDisconnectedGraphs) {
  // Sparse graphs where the sink is often unreachable exercise the
  // zero-flow paths.
  Rng rng(0xdead);
  for (int trial = 0; trial < 20; ++trial) {
    const FlowInstance instance = RandomFlowInstance(rng, 40, 30, 10.0);
    double reference = -1.0;
    for (const auto algorithm : AllMaxFlowAlgorithms()) {
      FlowNetwork network = instance.Build();
      const double flow = CreateMaxFlowSolver(algorithm)->Solve(
          network, instance.source, instance.sink);
      if (reference < 0) {
        reference = flow;
      } else {
        ASSERT_NEAR(flow, reference, 1e-9) << "trial " << trial;
      }
    }
  }
}

TEST(MaxFlowFactoryTest, AllAlgorithmsEnumerated) {
  EXPECT_EQ(AllMaxFlowAlgorithms(),
            (std::vector<MaxFlowAlgorithm>{MaxFlowAlgorithm::kEdmondsKarp,
                                           MaxFlowAlgorithm::kDinic}));
}

TEST(MaxFlowFactoryTest, NamesAreDistinct) {
  std::vector<std::string> names;
  for (const auto algorithm : AllMaxFlowAlgorithms()) {
    names.push_back(CreateMaxFlowSolver(algorithm)->Name());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(ResidualReachableTest, ReachesEverythingBeforeSolving) {
  FlowNetwork network(3);
  network.AddEdge(0, 1, 1.0);
  network.AddEdge(1, 2, 1.0);
  const std::vector<bool> reachable = ResidualReachable(network, 0);
  EXPECT_TRUE(reachable[0]);
  EXPECT_TRUE(reachable[1]);
  EXPECT_TRUE(reachable[2]);
}

}  // namespace
}  // namespace monoclass
