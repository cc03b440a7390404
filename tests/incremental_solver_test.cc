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

#include <vector>

#include "core/dataset.h"
#include "passive/contending.h"
#include "passive/flow_solver.h"
#include "test_util.h"
#include "util/random.h"

namespace monoclass {

// Reads the maintained per-point conflict counts (white-box, as in
// audit_failure_test).
struct IncrementalSolverTestPeer {
  static size_t conflicts(const IncrementalPassiveSolver& solver, size_t id) {
    return solver.records_[id].conflicts;
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
      checkpoints.push_back(solver.Solve().assignment);
    }
    if (reference.empty()) {
      reference = checkpoints;
    } else {
      EXPECT_EQ(checkpoints, reference) << "threads=" << threads;
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
  // Force a rebuild after virtually every structural delta: the compacted
  // state must keep matching cold solves (and the conflict counters must
  // survive rebuilds, which the rebuild audits under MONOCLASS_AUDIT).
  Rng rng(88);
  IncrementalSolveOptions options;
  options.compact_dead_edge_ratio = 0.01;
  options.compact_min_dead_edges = 1;
  WeightedPointSet initial;
  for (int i = 0; i < 16; ++i) {
    initial.Add(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0, 1.0);
  }
  IncrementalPassiveSolver solver(initial, options);
  for (int step = 0; step < 30; ++step) {
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

}  // namespace
}  // namespace monoclass
