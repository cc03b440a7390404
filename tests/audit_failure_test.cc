// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Negative tests for the invariant-audit layer: deliberately corrupt a
// solved flow, a minimum cut, a chain decomposition and the incremental
// solver's repaired state, and assert the corresponding audit REJECTS
// the corruption. The positive direction (audits pass on honest
// solutions) is exercised everywhere else; these tests are what makes a
// green audit meaningful evidence.
//
// Also pins the oracle of the fuzz_incremental harness: its
// differential replay must accept honest delta streams, whichever way
// the initial points are loaded.

#include "fuzz/fuzz_util.h"
#include "gtest/gtest.h"
#include "monoclass.h"

namespace monoclass {

// Private-state access for the corruption tests (friend of
// IncrementalPassiveSolver).
struct IncrementalSolverTestPeer {
  static FlowNetwork& network(IncrementalPassiveSolver& solver) {
    return solver.network_;
  }
  static double& flow_value(IncrementalPassiveSolver& solver) {
    return solver.flow_value_;
  }
  static std::vector<uint8_t>& certificate(IncrementalPassiveSolver& solver) {
    return solver.certificate_;
  }
};

namespace {

// ---------------------------------------------------------------------
// AuditMinCut / AuditFlowConservation.

// A small network with max flow 4: 0->1 (3), 0->2 (2), 1->3 (2), 2->3 (3).
FlowNetwork SolvedDiamond(double* flow_out) {
  FlowNetwork network(4);
  network.AddEdge(0, 1, 3.0);
  network.AddEdge(0, 2, 2.0);
  network.AddEdge(1, 3, 2.0);
  network.AddEdge(2, 3, 3.0);
  const auto solver = CreateMaxFlowSolver(MaxFlowAlgorithm::kDinic);
  *flow_out = solver->Solve(network, 0, 3);
  return network;
}

TEST(AuditMinCutFailure, HonestSolveAudits) {
  double flow = 0.0;
  FlowNetwork network = SolvedDiamond(&flow);
  EXPECT_DOUBLE_EQ(flow, 4.0);
  EXPECT_TRUE(AuditFlowConservation(network, 0, 3, flow).ok);
  EXPECT_TRUE(AuditMinCut(network, 0, 3, flow).ok);
}

TEST(AuditMinCutFailure, FiresOnWrongFlowValue) {
  double flow = 0.0;
  FlowNetwork network = SolvedDiamond(&flow);
  const AuditResult result = AuditMinCut(network, 0, 3, flow + 1.0);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.failure.empty());
}

TEST(AuditMinCutFailure, FiresOnCorruptedEdgeFlow) {
  double flow = 0.0;
  FlowNetwork network = SolvedDiamond(&flow);
  // Push the first source edge's flow above its capacity.
  network.adjacency(0)[0].residual =
      network.adjacency(0)[0].capacity + 1.0;
  EXPECT_FALSE(AuditFlowConservation(network, 0, 3, flow).ok);
  EXPECT_FALSE(AuditMinCut(network, 0, 3, flow).ok);
}

TEST(AuditMinCutFailure, FiresOnNonMaximumFlow) {
  double flow = 0.0;
  FlowNetwork network = SolvedDiamond(&flow);
  // Zero flow conserves trivially, but the sink is residual-reachable,
  // so the cut audit must reject it (Lemma 7).
  network.ResetFlow();
  EXPECT_TRUE(AuditFlowConservation(network, 0, 3, 0.0).ok);
  EXPECT_FALSE(AuditMinCut(network, 0, 3, 0.0).ok);
}

TEST(AuditMinCutFailure, FiresOnInfiniteCutEdge) {
  // One saturated "infinite" edge: with infinity_threshold below its
  // capacity, the Lemma 18 check must reject the cut.
  FlowNetwork network(2);
  network.AddEdge(0, 1, 50.0);
  const auto solver = CreateMaxFlowSolver(MaxFlowAlgorithm::kDinic);
  const double flow = solver->Solve(network, 0, 1);
  FlowAuditOptions options;
  EXPECT_TRUE(AuditMinCut(network, 0, 1, flow, options).ok);
  options.infinity_threshold = 10.0;
  EXPECT_FALSE(AuditMinCut(network, 0, 1, flow, options).ok);
}

// ---------------------------------------------------------------------
// AuditChainDecomposition.

PointSet StaircasePoints() {
  PointSet points;
  points.Add(Point({0.0, 1.0}));
  points.Add(Point({1.0, 0.0}));
  points.Add(Point({1.0, 1.0}));
  points.Add(Point({2.0, 2.0}));
  return points;
}

TEST(AuditChainFailure, HonestDecompositionAudits) {
  const PointSet points = StaircasePoints();
  const ChainDecomposition decomposition = MinimumChainDecomposition(points);
  EXPECT_TRUE(
      AuditChainDecomposition(points, decomposition, /*expect_minimum=*/true)
          .ok);
}

TEST(AuditChainFailure, FiresOnIncomparablePointsInOneChain) {
  const PointSet points = StaircasePoints();
  // Points 0 = (0,1) and 1 = (1,0) are incomparable: a chain holding
  // both violates the dominance-order requirement.
  ChainDecomposition corrupt;
  corrupt.chains = {{0, 1}, {2, 3}};
  const AuditResult result =
      AuditChainDecomposition(points, corrupt, /*expect_minimum=*/false);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.failure.empty());
}

TEST(AuditChainFailure, FiresOnDroppedPoint) {
  const PointSet points = StaircasePoints();
  ChainDecomposition corrupt = MinimumChainDecomposition(points);
  corrupt.chains.back().pop_back();  // a point now appears in no chain
  EXPECT_FALSE(
      AuditChainDecomposition(points, corrupt, /*expect_minimum=*/false).ok);
}

TEST(AuditChainFailure, FiresOnDuplicatedPoint) {
  const PointSet points = StaircasePoints();
  ChainDecomposition corrupt = MinimumChainDecomposition(points);
  corrupt.chains.push_back({3});  // point 3 now covered twice
  EXPECT_FALSE(
      AuditChainDecomposition(points, corrupt, /*expect_minimum=*/false).ok);
}

TEST(AuditChainFailure, FiresOnNonMinimumClaim) {
  const PointSet points = StaircasePoints();
  // Width is 2 ((0,1) vs (1,0)); four singleton chains are a valid
  // decomposition but not a minimum one.
  ChainDecomposition corrupt;
  corrupt.chains = {{0}, {1}, {2}, {3}};
  EXPECT_TRUE(
      AuditChainDecomposition(points, corrupt, /*expect_minimum=*/false).ok);
  EXPECT_FALSE(
      AuditChainDecomposition(points, corrupt, /*expect_minimum=*/true).ok);
}

// ---------------------------------------------------------------------
// AuditIncrementalCut.

// Two conflicting 1D points (the label-1 point is dominated by the
// label-0 point), so the repaired network carries positive flow.
IncrementalPassiveSolver ConflictedSolver() {
  IncrementalPassiveSolver solver;
  solver.Insert(Point({0.25}), 1, 1.0);
  solver.Insert(Point({0.75}), 0, 2.0);
  solver.Insert(Point({1.25}), 1, 1.5);
  return solver;
}

TEST(AuditIncrementalFailure, HonestRepairAudits) {
  IncrementalPassiveSolver solver = ConflictedSolver();
  EXPECT_GT(solver.FlowValue(), 0.0);
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(AuditIncrementalFailure, FiresOnCorruptedFlowValue) {
  IncrementalPassiveSolver solver = ConflictedSolver();
  solver.Solve();  // cache the honest result before corrupting
  IncrementalSolverTestPeer::flow_value(solver) += 0.5;
  const AuditResult result = solver.AuditIncrementalCut();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.failure.empty());
}

TEST(AuditIncrementalFailure, FiresOnCorruptedNetworkResidual) {
  IncrementalPassiveSolver solver = ConflictedSolver();
  solver.Solve();
  // Overfill the first edge out of the source (vertex 0): flow above
  // capacity breaks conservation inside the cut audit.
  FlowNetwork& network = IncrementalSolverTestPeer::network(solver);
  ASSERT_FALSE(network.adjacency(0).empty());
  network.adjacency(0)[0].residual =
      network.adjacency(0)[0].capacity + 1.0;
  EXPECT_FALSE(solver.AuditIncrementalCut().ok);
}

// The repair trusts the kept source side to prove the flow maximum; the
// audit must reject one that lost the source, holds the sink, or has a
// residual edge leaving it (the label-0 point's source edge keeps spare
// capacity, so a certificate of the source alone is open).
TEST(AuditIncrementalFailure, FiresOnCorruptedCertificate) {
  const auto corruptions = {
      +[](std::vector<uint8_t>& certificate) { certificate[0] = 0; },
      +[](std::vector<uint8_t>& certificate) { certificate[1] = 1; },
      +[](std::vector<uint8_t>& certificate) { certificate = {1, 0}; },
  };
  for (const auto corrupt : corruptions) {
    IncrementalPassiveSolver solver = ConflictedSolver();
    solver.Solve();
    corrupt(IncrementalSolverTestPeer::certificate(solver));
    const AuditResult result = solver.AuditIncrementalCut();
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.failure.find("certificate"), std::string::npos)
        << result.failure;
  }
}

// ---------------------------------------------------------------------
// The fuzz_incremental replay oracle.

TEST(ScenarioCodec, ReplayAcceptsHonestStreams) {
  // The differential replay itself must accept a small honest stream
  // (it is the oracle fuzz_incremental trusts), loaded either way.
  fuzz::IncrementalScenario scenario;
  scenario.threads = 2;
  scenario.dimension = 1;
  scenario.initial.push_back({.coords = {0.25}, .label = 1, .weight = 1.0});
  scenario.initial.push_back({.coords = {0.75}, .label = 0, .weight = 2.0});
  fuzz::ScenarioDelta insert;
  insert.kind = 0;
  insert.coords = {0.5};
  insert.label = 1;
  insert.weight = 0.5;
  scenario.deltas.push_back(insert);
  fuzz::ScenarioDelta erase;
  erase.kind = 1;
  erase.rank = 1;
  scenario.deltas.push_back(erase);
  EXPECT_EQ(fuzz::ReplayIncrementalScenario(scenario), "");
  scenario.bulk_load = true;
  EXPECT_EQ(fuzz::ReplayIncrementalScenario(scenario), "");
}

}  // namespace
}  // namespace monoclass
