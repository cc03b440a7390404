// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// The incremental solver's central contract: after every
// Insert/Erase/Relabel delta the repaired solution is bit-identical to a
// cold SolvePassive on the current snapshot -- same assignment, same
// optimal weighted error, same classifier -- across dimensions, thread
// counts (determinism contract) and adversarial delta mixes, with
// AuditIncrementalCut() proving the repaired cut from first principles.

#include "passive/incremental_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "passive/contending.h"
#include "passive/flow_solver.h"
#include "passive/sparse_network.h"
#include "test_util.h"
#include "util/random.h"

namespace monoclass {

// Reads the maintained per-point conflict counts, the flow on a point's
// terminal edge and the patched network, and forces rebuilds
// (white-box, as in audit_failure_test).
struct IncrementalSolverTestPeer {
  static size_t conflicts(const IncrementalPassiveSolver& solver, size_t id) {
    return solver.records_[id].conflicts;
  }
  static double terminal_flow(const IncrementalPassiveSolver& solver,
                              size_t id) {
    const auto& record = solver.records_[id];
    const int tail =
        record.label == 0 ? IncrementalPassiveSolver::kSource : record.vertex;
    return FlowNetwork::FlowOn(
        solver.network_.adjacency(tail)[record.terminal_edge]);
  }
  // Set before a delta, FinishDelta takes the rebuild path.
  static bool& pending_rebuild(IncrementalPassiveSolver& solver) {
    return solver.pending_rebuild_;
  }

  // Each live contending label-0 point's live out-edges are exactly the
  // wiring rule's: one per chain whose bottom it dominates, into the
  // relay of the chain's HighestDominatedPosition.
  static ::testing::AssertionResult WiringFollowsRule(
      const IncrementalPassiveSolver& solver) {
    for (size_t id = 0; id < solver.records_.size(); ++id) {
      const auto& record = solver.records_[id];
      if (!record.live || !record.contending || record.label != 0) continue;
      const Point& point = solver.points_[id];
      std::vector<int> wired;
      for (const FlowNetwork::Edge& edge :
           solver.network_.adjacency(record.vertex)) {
        if (edge.capacity > 0.0) wired.push_back(edge.to);
      }
      std::vector<int> expected;
      for (const std::vector<size_t>& chain : solver.chains_) {
        if (chain.empty() ||
            !DominatesEq(point, solver.points_[chain.front()])) {
          continue;
        }
        const size_t t =
            HighestDominatedPosition(solver.points_, chain, point);
        expected.push_back(solver.records_[chain[t]].relay);
      }
      std::sort(wired.begin(), wired.end());
      std::sort(expected.begin(), expected.end());
      if (wired != expected) {
        return ::testing::AssertionFailure()
               << "label-0 id " << id << " has " << wired.size()
               << " live wires, the wiring rule gives " << expected.size()
               << " (or they reach other relays)";
      }
    }
    return ::testing::AssertionSuccess();
  }

  // The solver's network against BuildSparseChainRelayNetwork over the
  // snapshot's contending rows, edge for edge: same heads, same order,
  // same finite capacities, and infinite exactly where the plan's are
  // (the solver provisions 2W + 1 where the cold build uses W + 1).
  static ::testing::AssertionResult NetworkIsTheBuilders(
      const IncrementalPassiveSolver& solver) {
    const WeightedPointSet snapshot = solver.Snapshot();
    const double infinity = PassiveInfiniteCapacity(snapshot);
    const SparseNetworkPlan plan = BuildSparseChainRelayNetwork(
        snapshot,
        ComputeContending(snapshot.points(), snapshot.labels()).contending,
        infinity);
    const FlowNetwork& network = solver.network_;
    if (network.NumVertices() != plan.network.NumVertices()) {
      return ::testing::AssertionFailure()
             << network.NumVertices() << " vertices, the builder's "
             << plan.network.NumVertices();
    }
    for (int v = 0; v < network.NumVertices(); ++v) {
      const auto& got = network.adjacency(v);
      const auto& want = plan.network.adjacency(v);
      if (got.size() != want.size()) {
        return ::testing::AssertionFailure()
               << "vertex " << v << " has " << got.size()
               << " edges, the builder's " << want.size();
      }
      for (size_t e = 0; e < got.size(); ++e) {
        const double capacity = want[e].capacity == infinity
                                    ? solver.infinity_
                                    : want[e].capacity;
        if (got[e].to != want[e].to || got[e].rev != want[e].rev ||
            got[e].capacity != capacity) {
          return ::testing::AssertionFailure()
                 << "edge " << e << " of vertex " << v << " differs";
        }
      }
    }
    return ::testing::AssertionSuccess();
  }
};

namespace {

// Cold reference on the solver's current snapshot.
PassiveSolveResult ColdSolve(const IncrementalPassiveSolver& solver,
                             PassiveNetworkBuild network =
                                 PassiveNetworkBuild::kAuto) {
  PassiveSolveOptions options;
  options.network = network;
  return SolvePassiveWeighted(solver.Snapshot(), options);
}

void ExpectMatchesCold(IncrementalPassiveSolver& solver,
                       const std::string& context,
                       PassiveNetworkBuild network =
                           PassiveNetworkBuild::kAuto) {
  const PassiveSolveResult cold = ColdSolve(solver, network);
  const PassiveSolveResult& warm = solver.Solve();
  ASSERT_EQ(warm.assignment, cold.assignment) << context;
  EXPECT_EQ(warm.optimal_weighted_error, cold.optimal_weighted_error)
      << context;
  EXPECT_EQ(warm.num_contending, cold.num_contending) << context;
  const PointSet points = solver.Snapshot().points();
  EXPECT_EQ(warm.classifier.ClassifySet(points),
            cold.classifier.ClassifySet(points))
      << context;
}

// A coarse-grid random point: collisions (duplicates, ties) are common,
// which is the adversarial regime for chain splicing and relay retargets.
Point GridPoint(Rng& rng, size_t d) {
  std::vector<double> coords(d);
  for (auto& c : coords) {
    c = static_cast<double>(rng.UniformInt(8)) / 4.0;
  }
  return Point(std::move(coords));
}

TEST(IncrementalSolverTest, RandomDeltaSequencesMatchColdSolve) {
  for (const size_t d : {size_t{1}, size_t{2}, size_t{3}}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      Rng rng(1000 * d + threads);
      WeightedPointSet initial;
      for (int i = 0; i < 24; ++i) {
        initial.Add(GridPoint(rng, d), rng.Bernoulli(0.5) ? 1 : 0,
                    rng.UniformDoubleInRange(0.5, 4.0));
      }
      IncrementalSolveOptions options;
      options.parallel.threads = threads;
      IncrementalPassiveSolver solver(initial, options);
      for (int step = 0; step < 60; ++step) {
        const uint64_t op = rng.UniformInt(10);
        const std::vector<size_t> live = solver.LiveIds();
        if (op < 4 || live.empty()) {
          solver.Insert(GridPoint(rng, d), rng.Bernoulli(0.5) ? 1 : 0,
                        rng.UniformDoubleInRange(0.5, 4.0));
        } else if (op < 7) {
          solver.Erase(live[rng.UniformInt(live.size())]);
        } else {
          solver.Relabel(live[rng.UniformInt(live.size())],
                         rng.Bernoulli(0.5) ? 1 : 0);
        }
        const std::string context = "d=" + std::to_string(d) +
                                    " threads=" + std::to_string(threads) +
                                    " step=" + std::to_string(step);
        ExpectMatchesCold(solver, context);
        EXPECT_TRUE(IncrementalSolverTestPeer::WiringFollowsRule(solver))
            << context;
        if (step % 10 == 9) {
          const AuditResult audit = solver.AuditIncrementalCut();
          EXPECT_TRUE(audit.ok) << context << ": " << audit.failure;
        }
      }
      // No-op relabels (same label) don't count as deltas.
      EXPECT_LE(solver.stats().deltas, 60u);
      EXPECT_GT(solver.stats().deltas, 0u);
    }
  }
}

TEST(IncrementalSolverTest, MatchesColdSparseBuildToo) {
  // The cold reference above mostly routes dense (small n); pin the
  // sparse chain-relay cold build explicitly as a second oracle.
  Rng rng(77);
  WeightedPointSet initial;
  for (int i = 0; i < 30; ++i) {
    initial.Add(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0,
                rng.UniformDoubleInRange(0.5, 3.0));
  }
  IncrementalPassiveSolver solver(initial, {});
  for (int step = 0; step < 25; ++step) {
    const std::vector<size_t> live = solver.LiveIds();
    if (step % 3 == 0 || live.empty()) {
      solver.Insert(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0);
    } else if (step % 3 == 1) {
      solver.Erase(live[rng.UniformInt(live.size())]);
    } else {
      solver.Relabel(live[rng.UniformInt(live.size())],
                     rng.Bernoulli(0.5) ? 1 : 0);
    }
    ExpectMatchesCold(solver, "step=" + std::to_string(step),
                      PassiveNetworkBuild::kSparseChainRelay);
  }
}

TEST(IncrementalSolverTest, DeterministicAcrossThreadCounts) {
  // The same delta sequence must produce the same assignment at every
  // checkpoint regardless of thread count (the determinism contract:
  // sharded scans merge in shard order).
  std::vector<std::vector<Label>> reference;
  std::vector<uint64_t> reference_flow_bits;
  uint64_t reference_maxflow_runs = 0;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Rng rng(4242);  // same stream for every thread count
    WeightedPointSet initial;
    for (int i = 0; i < 20; ++i) {
      initial.Add(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0,
                  rng.UniformDoubleInRange(0.5, 4.0));
    }
    IncrementalSolveOptions options;
    options.parallel.threads = threads;
    IncrementalPassiveSolver solver(initial, options);
    std::vector<std::vector<Label>> checkpoints;
    std::vector<uint64_t> flow_bits;
    for (int step = 0; step < 40; ++step) {
      const std::vector<size_t> live = solver.LiveIds();
      const uint64_t op = rng.UniformInt(3);
      if (op == 0 || live.empty()) {
        solver.Insert(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0,
                      rng.UniformDoubleInRange(0.5, 4.0));
      } else if (op == 1) {
        solver.Erase(live[rng.UniformInt(live.size())]);
      } else {
        solver.Relabel(live[rng.UniformInt(live.size())],
                       rng.Bernoulli(0.5) ? 1 : 0);
      }
      flow_bits.push_back(std::bit_cast<uint64_t>(solver.FlowValue()));
      checkpoints.push_back(solver.Solve().assignment);
    }
    if (reference.empty()) {
      reference = checkpoints;
      reference_flow_bits = flow_bits;
      reference_maxflow_runs = solver.stats().maxflow_runs;
    } else {
      EXPECT_EQ(checkpoints, reference) << "threads=" << threads;
      EXPECT_EQ(flow_bits, reference_flow_bits) << "threads=" << threads;
      EXPECT_EQ(solver.stats().maxflow_runs, reference_maxflow_runs)
          << "threads=" << threads;
    }
  }
}

TEST(IncrementalSolverTest, EraseToEmptyAndRegrow) {
  Rng rng(55);
  WeightedPointSet initial;
  for (int i = 0; i < 10; ++i) {
    initial.Add(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0, 1.0);
  }
  IncrementalPassiveSolver solver(initial, {});
  while (solver.LiveSize() > 0) {
    const std::vector<size_t> live = solver.LiveIds();
    solver.Erase(live[rng.UniformInt(live.size())]);
    if (solver.LiveSize() > 0) {
      ExpectMatchesCold(solver, "shrinking");
    }
  }
  EXPECT_EQ(solver.Solve().assignment.size(), 0u);
  EXPECT_EQ(solver.Solve().optimal_weighted_error, 0.0);
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
  for (int i = 0; i < 12; ++i) {
    solver.Insert(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0,
                  rng.UniformDoubleInRange(0.5, 2.0));
    ExpectMatchesCold(solver, "regrow step " + std::to_string(i));
  }
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(IncrementalSolverTest, RelabelOnlyStream) {
  // Label corrections without structural churn: the dominant serving
  // delta. Includes no-op relabels (same label), which must not count as
  // deltas or perturb the network.
  Rng rng(66);
  WeightedPointSet initial;
  for (int i = 0; i < 25; ++i) {
    initial.Add(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0,
                rng.UniformDoubleInRange(0.5, 4.0));
  }
  IncrementalPassiveSolver solver(initial, {});
  const uint64_t before = solver.stats().deltas;
  for (int step = 0; step < 50; ++step) {
    const std::vector<size_t> live = solver.LiveIds();
    solver.Relabel(live[rng.UniformInt(live.size())],
                   rng.Bernoulli(0.5) ? 1 : 0);
    ExpectMatchesCold(solver, "relabel step " + std::to_string(step));
  }
  EXPECT_LE(solver.stats().deltas - before, 50u);
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(IncrementalSolverTest, AggressiveCompactionStaysCorrect) {
  // Force a rebuild on every delta: the compacted state must keep
  // matching cold solves (and the conflict counters must survive
  // rebuilds, which the rebuild audits under MONOCLASS_AUDIT).
  Rng rng(88);
  WeightedPointSet initial;
  for (int i = 0; i < 16; ++i) {
    initial.Add(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0, 1.0);
  }
  IncrementalPassiveSolver solver(initial);
  for (int step = 0; step < 30; ++step) {
    IncrementalSolverTestPeer::pending_rebuild(solver) = true;
    const std::vector<size_t> live = solver.LiveIds();
    if (step % 2 == 0 || live.empty()) {
      solver.Insert(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0);
    } else {
      solver.Erase(live[rng.UniformInt(live.size())]);
    }
    ExpectMatchesCold(solver, "compacting step " + std::to_string(step));
  }
  EXPECT_GT(solver.stats().rebuilds, 0u);
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(IncrementalSolverTest, InfinityHeadroomGrowsWithHeavyInserts) {
  // Inserting weight far beyond the initial total forces the infinity
  // threshold (Lemma 18) to be re-provisioned via rebuild.
  WeightedPointSet initial;
  initial.Add(Point{0.0, 0.0}, 1, 1.0);
  initial.Add(Point{1.0, 1.0}, 0, 1.0);
  IncrementalPassiveSolver solver(initial, {});
  const uint64_t rebuilds_before = solver.stats().rebuilds;
  solver.Insert(Point{0.5, 0.5}, 1, 1000.0);
  solver.Insert(Point{2.0, 2.0}, 0, 500.0);
  EXPECT_GT(solver.stats().rebuilds, rebuilds_before);
  ExpectMatchesCold(solver, "after heavy inserts");
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(IncrementalSolverTest, StartsEmptyAndGrows) {
  IncrementalPassiveSolver solver;
  EXPECT_EQ(solver.LiveSize(), 0u);
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
  const size_t a = solver.Insert(Point{1.0, 1.0}, 1, 3.0);
  const size_t b = solver.Insert(Point{1.0, 1.0}, 0, 1.0);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  // Duplicate pair with conflicting labels: the cheaper side loses.
  const PassiveSolveResult& result = solver.Solve();
  EXPECT_EQ(result.optimal_weighted_error, 1.0);
  EXPECT_EQ(result.assignment, (std::vector<Label>{1, 1}));
  ExpectMatchesCold(solver, "duplicate pair");
  solver.Erase(a);
  EXPECT_EQ(solver.Solve().optimal_weighted_error, 0.0);
  EXPECT_FALSE(solver.IsLive(a));
  EXPECT_TRUE(solver.IsLive(b));
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(IncrementalSolverTest, StatsAndDiagnosticsTrackDeltas) {
  Rng rng(99);
  IncrementalPassiveSolver solver;
  for (int i = 0; i < 15; ++i) {
    solver.Insert(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0);
  }
  const size_t flip = solver.Insert(GridPoint(rng, 2), 0);
  const std::vector<size_t> live = solver.LiveIds();
  solver.Erase(live[3]);
  solver.Relabel(flip, 1);
  const IncrementalStats& stats = solver.stats();
  EXPECT_EQ(stats.inserts, 16u);
  EXPECT_EQ(stats.erases, 1u);
  EXPECT_EQ(stats.relabels, 1u);
  EXPECT_EQ(stats.deltas, 18u);
  EXPECT_EQ(solver.NumRelays(),
            solver.Solve().network_relays);
  ExpectMatchesCold(solver, "after stats stream");
}

// One label-0 point z above a chain of two label-1 points a <= b, unit
// weights: z's relay edge targets b, and the bulk load's cold solve
// routes z's unit through b, leaving a idle.
constexpr size_t kIdleA = 0;
constexpr size_t kCarrierB = 1;
IncrementalPassiveSolver ChainUnderOnePoint() {
  WeightedPointSet initial;
  initial.Add(Point{0.0, 0.0}, 1, 1.0);  // a
  initial.Add(Point{0.5, 0.5}, 1, 1.0);  // b
  initial.Add(Point{1.0, 1.0}, 0, 1.0);  // z
  return IncrementalPassiveSolver(initial);
}

// Erasing the flow-carrying b drains z's path, which frees z's saturated
// source edge; the unit must be rerouted to a through z's retargeted
// relay edge. Only the drained source edge leaves the certificate, so a
// repair that ignored drained edges would keep a flow of 0.
TEST(IncrementalSolverTest, RepairReroutesTheUnitADrainFrees) {
  IncrementalPassiveSolver solver = ChainUnderOnePoint();
  ASSERT_EQ(IncrementalSolverTestPeer::terminal_flow(solver, kCarrierB), 1.0);
  ASSERT_EQ(IncrementalSolverTestPeer::terminal_flow(solver, kIdleA), 0.0);
  const IncrementalStats before = solver.stats();
  solver.Erase(kCarrierB);
  EXPECT_EQ(solver.stats().drained_paths, before.drained_paths + 1);
  EXPECT_EQ(solver.stats().augment_calls, before.augment_calls + 1);
  EXPECT_EQ(solver.stats().maxflow_runs, before.maxflow_runs + 1);
  EXPECT_EQ(solver.FlowValue(), 1.0);
  EXPECT_EQ(IncrementalSolverTestPeer::terminal_flow(solver, kIdleA), 1.0);
  ExpectMatchesCold(solver, "after erasing the flow-carrying point");
  const AuditResult audit = solver.AuditIncrementalCut();
  EXPECT_TRUE(audit.ok) << audit.failure;
}

// A repair runs Dinic only when the certificate's growth reaches the
// sink: erasing a point no flow crosses, or adding a label-0 point whose
// only partner is saturated, leaves the cut where it is; a label-1 point
// under a label-0 point with spare source capacity moves it.
TEST(IncrementalSolverTest, RepairRunsMaxFlowOnlyWhenTheCutCanMove) {
  IncrementalPassiveSolver solver = ChainUnderOnePoint();
  ASSERT_EQ(IncrementalSolverTestPeer::terminal_flow(solver, kIdleA), 0.0);
  const auto expect_repair = [&solver](const IncrementalStats& before,
                                       uint64_t maxflow_runs, double flow,
                                       const std::string& context) {
    EXPECT_EQ(solver.stats().augment_calls, before.augment_calls + 1)
        << context;
    EXPECT_EQ(solver.stats().maxflow_runs, before.maxflow_runs + maxflow_runs)
        << context;
    EXPECT_EQ(solver.FlowValue(), flow) << context;
    ExpectMatchesCold(solver, context);
  };

  IncrementalStats before = solver.stats();
  solver.Erase(kIdleA);  // contending (z dominates it) but idle
  expect_repair(before, 0, 1.0, "erase the idle point");

  before = solver.stats();
  solver.Insert(Point{2.0, 2.0}, 0, 3.0);  // w: dominates b only
  expect_repair(before, 0, 1.0, "insert a label-0 point over a saturated one");
  EXPECT_GT(solver.stats().certificate_visits, before.certificate_visits);

  before = solver.stats();
  solver.Insert(Point{1.5, 1.5}, 1, 1.0);  // under w only
  expect_repair(before, 1, 2.0, "insert a label-1 point under spare capacity");
  const AuditResult audit = solver.AuditIncrementalCut();
  EXPECT_TRUE(audit.ok) << audit.failure;
}

// The bulk load counts conflicts with a sweep at d = 2 and a pairwise
// scan elsewhere; both must equal a brute-force recount of the
// LabelsConflict partners, and the counts the delta path (one Insert per
// point) maintains. Signed zeros and the coarse grid make ties, equal
// points and opposite-label duplicates common.
TEST(IncrementalSolverTest, BulkLoadedConflictCountsMatchRecount) {
  Rng rng(103);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t d = trial % 3 == 2 ? 3 : 2;
    const size_t n = 1 + rng.UniformInt(40);
    WeightedPointSet initial;
    for (size_t i = 0; i < n; ++i) {
      Point point = GridPoint(rng, d);
      std::vector<double> coords = point.coordinates();
      for (double& c : coords) {
        if (c == 0.0 && rng.Bernoulli(0.5)) c = -0.0;
      }
      initial.Add(Point(std::move(coords)), rng.Bernoulli(0.5) ? 1 : 0, 1.0);
    }
    IncrementalSolveOptions options;
    options.parallel.threads = 1 + trial % 3;
    const IncrementalPassiveSolver bulk(initial, options);
    IncrementalPassiveSolver inserted(options);
    for (size_t i = 0; i < n; ++i) {
      inserted.Insert(initial.point(i), initial.label(i), initial.weight(i));
    }
    size_t contending = 0;
    for (size_t i = 0; i < n; ++i) {
      size_t expected = 0;
      for (size_t j = 0; j < n; ++j) {
        if (i != j && LabelsConflict(initial.point(i), initial.label(i),
                                     initial.point(j), initial.label(j))) {
          ++expected;
        }
      }
      contending += expected > 0 ? 1 : 0;
      EXPECT_EQ(IncrementalSolverTestPeer::conflicts(bulk, i), expected)
          << "trial " << trial << ", d " << d << ", id " << i;
      EXPECT_EQ(IncrementalSolverTestPeer::conflicts(inserted, i), expected)
          << "trial " << trial << ", d " << d << ", id " << i;
    }
    EXPECT_EQ(bulk.NumContending(), contending) << "trial " << trial;
  }
}

// A rebuild takes its network from the cold solver's builder, so after a
// bulk load and after every forced compaction the solver's network is
// the builder's over the snapshot's contending rows.
TEST(IncrementalSolverTest, RebuiltNetworkIsTheColdBuildersNetwork) {
  for (const size_t d : {size_t{1}, size_t{2}, size_t{3}}) {
    Rng rng(500 + d);
    WeightedPointSet initial;
    for (int i = 0; i < 40; ++i) {
      initial.Add(GridPoint(rng, d), rng.Bernoulli(0.5) ? 1 : 0,
                  rng.UniformDoubleInRange(0.5, 4.0));
    }
    IncrementalPassiveSolver solver(initial);
    EXPECT_TRUE(IncrementalSolverTestPeer::NetworkIsTheBuilders(solver))
        << "d=" << d << " after the bulk load";
    for (int step = 0; step < 12; ++step) {
      IncrementalSolverTestPeer::pending_rebuild(solver) = true;
      const uint64_t rebuilds = solver.stats().rebuilds;
      const std::vector<size_t> live = solver.LiveIds();
      if (step % 3 == 0) {
        solver.Insert(GridPoint(rng, d), rng.Bernoulli(0.5) ? 1 : 0);
      } else if (step % 3 == 1) {
        solver.Erase(live[rng.UniformInt(live.size())]);
      } else {
        solver.Relabel(live[rng.UniformInt(live.size())],
                       rng.Bernoulli(0.5) ? 1 : 0);
      }
      if (solver.stats().rebuilds == rebuilds) continue;  // a no-op relabel
      EXPECT_TRUE(IncrementalSolverTestPeer::NetworkIsTheBuilders(solver))
          << "d=" << d << " after the compaction at step " << step;
      ExpectMatchesCold(solver, "compaction step " + std::to_string(step));
    }
  }
}

// The three paths that retarget wires. Each checks the retarget count,
// the wiring rule and the cold solve. Chains are over the label-1 points
// at d = 2.

// An insert at a chain's bottom wires the label-0 points that dominate
// the new member but not the old bottom (they had no wire on the chain).
TEST(IncrementalSolverTest, InsertAtChainBottomWiresThePointsBelowIt) {
  WeightedPointSet initial;
  initial.Add(Point{2.0, 2.0}, 1, 1.0);  // b, its chain's only member
  initial.Add(Point{0.0, 3.0}, 1, 1.0);  // c, on another chain
  initial.Add(Point{3.0, 3.0}, 0, 1.0);  // over b and c
  initial.Add(Point{1.5, 3.5}, 0, 1.0);  // over c only
  initial.Add(Point{1.2, 3.2}, 0, 1.0);  // over c only
  initial.Add(Point{0.5, 3.5}, 0, 1.0);  // over c only, not over a
  IncrementalPassiveSolver solver(initial);
  ASSERT_EQ(solver.NumChains(), 2u);
  const uint64_t retargets = solver.stats().retarget_edges;
  solver.Insert(Point{1.0, 1.0}, 1);  // a: below b, beside c
  EXPECT_EQ(solver.NumChains(), 2u);
  EXPECT_EQ(solver.stats().retarget_edges, retargets + 2);
  EXPECT_TRUE(IncrementalSolverTestPeer::WiringFollowsRule(solver));
  ExpectMatchesCold(solver, "insert at a chain's bottom");
}

// An insert just above `below` moves the wires into `below` whose points
// dominate the new member, and leaves the others; erasing that member
// drops its wires back to `below`, and erasing the bottom drops them.
TEST(IncrementalSolverTest, SplicesRetargetTheWiresOfTheMemberBelow) {
  WeightedPointSet initial;
  initial.Add(Point{0.0, 0.0}, 1, 1.0);  // a, the bottom
  initial.Add(Point{3.0, 3.0}, 1, 1.0);  // b, above a
  initial.Add(Point{1.5, 1.5}, 0, 1.0);  // wired to a, over m
  initial.Add(Point{0.5, 2.5}, 0, 1.0);  // wired to a, not over m
  initial.Add(Point{4.0, 4.0}, 0, 1.0);  // wired to b
  initial.Add(Point{2.0, 1.2}, 0, 1.0);  // wired to a, over m
  IncrementalPassiveSolver solver(initial);
  ASSERT_EQ(solver.NumChains(), 1u);
  uint64_t retargets = solver.stats().retarget_edges;
  const size_t m = solver.Insert(Point{1.0, 1.0}, 1);  // between a and b
  EXPECT_EQ(solver.NumChains(), 1u);
  EXPECT_EQ(solver.stats().retarget_edges, retargets + 2);
  EXPECT_TRUE(IncrementalSolverTestPeer::WiringFollowsRule(solver));
  ExpectMatchesCold(solver, "insert just above below");

  retargets = solver.stats().retarget_edges;
  solver.Erase(m);  // its two wires drop back to a
  EXPECT_EQ(solver.stats().retarget_edges, retargets + 2);
  EXPECT_TRUE(IncrementalSolverTestPeer::WiringFollowsRule(solver));
  ExpectMatchesCold(solver, "erase a member with wires");

  retargets = solver.stats().retarget_edges;
  const uint64_t deactivated = solver.stats().deactivated_edges;
  solver.Erase(0);  // the bottom: its three wires go, nothing lies below
  EXPECT_EQ(solver.stats().retarget_edges, retargets);
  EXPECT_GE(solver.stats().deactivated_edges, deactivated + 3);
  EXPECT_TRUE(IncrementalSolverTestPeer::WiringFollowsRule(solver));
  ExpectMatchesCold(solver, "erase the bottom member");
  const AuditResult audit = solver.AuditIncrementalCut();
  EXPECT_TRUE(audit.ok) << audit.failure;
}

}  // namespace
}  // namespace monoclass
