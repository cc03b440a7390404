// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Structure-aware decoding layer shared by every fuzz harness.
//
// A coverage-guided fuzzer hands us an arbitrary byte string; the
// decoders below turn it into the library's input structures (point
// sets, flow networks, incremental delta streams) the way a
// FuzzedDataProvider would: every byte consumed deterministically, an
// exhausted input degrading to zeros, and all quantities quantized onto
// coarse grids so that coordinate ties, duplicate points and weight
// collisions -- the adversarial cases for the solvers -- stay common
// under random mutation. A harness that gains a field reads it after
// its existing ones, so every checked-in corpus file (whose bytes run
// out first and decode the new field as zero) keeps its old meaning.
//
// Everything here is header-only and depends only on the public
// monoclass umbrella, so every harness can include it without extra
// build plumbing.

#ifndef MONOCLASS_FUZZ_FUZZ_UTIL_H_
#define MONOCLASS_FUZZ_FUZZ_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "monoclass.h"

namespace monoclass {
namespace fuzz {

// ---------------------------------------------------------------------
// Byte consumer.

// Sequential consumer over a fuzzer-controlled byte buffer. Reads past
// the end return zero instead of failing, so a short input decodes to a
// small-but-valid structure (the FuzzedDataProvider convention: the
// fuzzer can always extend a seed without invalidating its prefix).
class FuzzInput {
 public:
  FuzzInput(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ >= size_; }

  uint8_t TakeByte() {
    if (pos_ >= size_) return 0;
    return data_[pos_++];
  }

  uint16_t TakeU16() {
    const uint16_t lo = TakeByte();
    const uint16_t hi = TakeByte();
    return static_cast<uint16_t>(lo | (hi << 8));
  }

  bool TakeBool() { return (TakeByte() & 1) != 0; }

  // Uniform-ish value in [0, bound): consumes one byte for small bounds,
  // two for larger ones. Requires bound >= 1.
  size_t IntLessThan(size_t bound) {
    MC_CHECK_GE(bound, 1u);
    if (bound <= 256) return TakeByte() % bound;
    return TakeU16() % bound;
  }

  // Value in the inclusive range [lo, hi].
  size_t IntInRange(size_t lo, size_t hi) {
    MC_CHECK_LE(lo, hi);
    return lo + IntLessThan(hi - lo + 1);
  }

  // Coordinate on the coarse grid {0, 0.25, ..., 1.75}: collisions and
  // duplicate points are the adversarial regime for dominance scans.
  double GridCoord() { return static_cast<double>(TakeByte() % 8) / 4.0; }

  // Strictly positive weight on the grid {0.1, 0.2, ..., 4.0}.
  double GridWeight() {
    return static_cast<double>(1 + TakeByte() % 40) / 10.0;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Failure reporting.
//
// Under libFuzzer an abort is a finding: the engine saves the offending
// input as crash-<sha1> and exits. The standalone driver leaves each
// random input's file behind when it aborts, so under either engine a
// violation is loud and reproducible from the saved bytes.

[[noreturn]] inline void FuzzFail(const std::string& context,
                                  const std::string& detail) {
  std::fprintf(stderr, "FUZZ VIOLATION [%s]: %s\n", context.c_str(),
               detail.c_str());
  std::abort();
}

inline void FuzzExpect(bool ok, const std::string& context,
                       const std::string& detail) {
  if (!ok) FuzzFail(context, detail);
}

inline void FuzzRequireAudit(const AuditResult& result,
                             const std::string& context) {
  if (!result.ok) FuzzFail(context, result.failure);
}

// ---------------------------------------------------------------------
// Dataset decoders.

// Unlabeled points: n in [min_points, max_points], d in [1, max_dim],
// grid coordinates.
inline PointSet DecodePointSet(FuzzInput& in, size_t min_points,
                               size_t max_points, size_t max_dim) {
  const size_t n = in.IntInRange(min_points, max_points);
  const size_t d = in.IntInRange(1, max_dim);
  PointSet points;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> coords(d);
    for (auto& c : coords) c = in.GridCoord();
    points.Add(Point(std::move(coords)));
  }
  return points;
}

// Labeled points with the same shape conventions.
inline LabeledPointSet DecodeLabeledPointSet(FuzzInput& in, size_t min_points,
                                             size_t max_points,
                                             size_t max_dim) {
  const size_t n = in.IntInRange(min_points, max_points);
  const size_t d = in.IntInRange(1, max_dim);
  LabeledPointSet set;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> coords(d);
    for (auto& c : coords) c = in.GridCoord();
    set.Add(Point(std::move(coords)), in.TakeBool() ? Label{1} : Label{0});
  }
  return set;
}

// Fully-labeled weighted points (paper Problem 2 input). One leading
// byte decides unit weights vs grid weights -- unit-weight instances
// exercise the k* integer regime.
inline WeightedPointSet DecodeWeightedPointSet(FuzzInput& in,
                                               size_t min_points,
                                               size_t max_points,
                                               size_t max_dim) {
  const bool unit_weights = in.TakeBool();
  const size_t n = in.IntInRange(min_points, max_points);
  const size_t d = in.IntInRange(1, max_dim);
  WeightedPointSet set;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> coords(d);
    for (auto& c : coords) c = in.GridCoord();
    const Label label = in.TakeBool() ? 1 : 0;
    const double weight = unit_weights ? 1.0 : in.GridWeight();
    set.Add(Point(std::move(coords)), label, weight);
  }
  return set;
}

// Thread counts the determinism contract is exercised at. Index decoded
// from one byte so mutations flip between serial and parallel paths.
inline size_t DecodeThreadCount(FuzzInput& in) {
  static constexpr size_t kChoices[] = {1, 2, 4};
  return kChoices[in.IntLessThan(3)];
}

// ---------------------------------------------------------------------
// Raw flow-network decoder.

// A decoded network plus the terminals the harness should solve between.
struct FlowNetworkSpec {
  FlowNetwork network{2};
  int source = 0;
  int sink = 1;
  size_t num_edges = 0;
};

// Arbitrary small directed network: vertices in [2, max_vertices], up to
// max_edges edges with grid capacities (a slice of them large, so cut
// structure interacts with near-infinite edges). Self-loops are kept --
// a correct solver must route zero flow through them.
inline FlowNetworkSpec DecodeFlowNetwork(FuzzInput& in, size_t max_vertices,
                                         size_t max_edges) {
  FlowNetworkSpec spec;
  const size_t n = in.IntInRange(2, max_vertices);
  spec.network = FlowNetwork(static_cast<int>(n));
  const size_t m = in.IntLessThan(max_edges + 1);
  for (size_t e = 0; e < m; ++e) {
    const int u = static_cast<int>(in.IntLessThan(n));
    const int v = static_cast<int>(in.IntLessThan(n));
    const bool large = in.TakeByte() % 8 == 0;
    const double capacity = large ? 1000.0 : in.GridWeight();
    spec.network.AddEdge(u, v, capacity);
    ++spec.num_edges;
  }
  return spec;
}

// ---------------------------------------------------------------------
// Incremental delta streams.

// A delta in replayable form. Erase/relabel address their target by rank
// among the live ids at apply time (id = live[rank % live_count]), so
// any subsequence of a failing stream is itself a valid stream -- the
// property the ddmin shrinker relies on. Targeted deltas on an empty
// solver degrade to no-ops for the same reason.
struct ScenarioDelta {
  int kind = 0;  // 0 = insert, 1 = erase, 2 = relabel
  std::vector<double> coords;  // insert only
  Label label = 0;             // insert / relabel
  double weight = 1.0;         // insert only
  uint16_t rank = 0;           // erase / relabel target rank
};

struct ScenarioPoint {
  std::vector<double> coords;
  Label label = 0;
  double weight = 1.0;
};

struct IncrementalScenario {
  size_t threads = 1;
  size_t dimension = 1;
  std::vector<ScenarioPoint> initial;
  std::vector<ScenarioDelta> deltas;
  // Load `initial` through the bulk-load constructor (InitConflictCounts
  // and one cold Rebuild) instead of one Insert per point.
  bool bulk_load = false;
};

inline constexpr size_t kScenarioMaxInitialPoints = 16;
inline constexpr size_t kScenarioMaxDeltas = 32;

// Decodes a delta stream. Bounds keep a single replay (which cold-solves
// the snapshot per delta when cross-checked) comfortably fast.
inline IncrementalScenario DecodeIncrementalScenario(FuzzInput& in) {
  IncrementalScenario scenario;
  static constexpr size_t kThreadChoices[] = {1, 2, 8};
  scenario.threads = kThreadChoices[in.IntLessThan(3)];
  scenario.dimension = in.IntInRange(1, 3);
  const bool unit_weights = in.TakeBool();
  const size_t d = scenario.dimension;
  const size_t n0 = in.IntLessThan(kScenarioMaxInitialPoints);
  for (size_t i = 0; i < n0; ++i) {
    ScenarioPoint p;
    p.coords.resize(d);
    for (auto& c : p.coords) c = in.GridCoord();
    p.label = in.TakeBool() ? 1 : 0;
    p.weight = unit_weights ? 1.0 : in.GridWeight();
    scenario.initial.push_back(std::move(p));
  }
  const size_t nd = in.IntLessThan(kScenarioMaxDeltas);
  for (size_t i = 0; i < nd; ++i) {
    ScenarioDelta delta;
    delta.kind = static_cast<int>(in.IntLessThan(3));
    if (delta.kind == 0) {
      delta.coords.resize(d);
      for (auto& c : delta.coords) c = in.GridCoord();
      delta.label = in.TakeBool() ? 1 : 0;
      delta.weight = unit_weights ? 1.0 : in.GridWeight();
    } else if (delta.kind == 1) {
      delta.rank = in.TakeU16();
    } else {
      delta.rank = in.TakeU16();
      delta.label = in.TakeBool() ? 1 : 0;
    }
    scenario.deltas.push_back(std::move(delta));
  }
  scenario.bulk_load = in.TakeBool();
  return scenario;
}

inline std::string DescribeCoords(const std::vector<double>& coords) {
  std::string out = "(";
  for (size_t i = 0; i < coords.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(coords[i]);
  }
  return out + ")";
}

inline std::string DescribeIncrementalScenario(
    const IncrementalScenario& scenario) {
  std::string out = "  threads=" + std::to_string(scenario.threads) +
                    " d=" + std::to_string(scenario.dimension) +
                    (scenario.bulk_load ? " bulk_load" : "") + "\n";
  for (const ScenarioPoint& p : scenario.initial) {
    out += "  init " + DescribeCoords(p.coords) +
           " label=" + std::to_string(p.label) +
           " weight=" + std::to_string(p.weight) + "\n";
  }
  for (const ScenarioDelta& delta : scenario.deltas) {
    if (delta.kind == 0) {
      out += "  insert " + DescribeCoords(delta.coords) +
             " label=" + std::to_string(delta.label) +
             " weight=" + std::to_string(delta.weight) + "\n";
    } else if (delta.kind == 1) {
      out += "  erase rank=" + std::to_string(delta.rank) + "\n";
    } else {
      out += "  relabel rank=" + std::to_string(delta.rank) +
             " label=" + std::to_string(delta.label) + "\n";
    }
  }
  return out;
}

// Replays the scenario through an IncrementalPassiveSolver,
// cross-checking the repaired flow value and the warm solution against
// cold solves on BOTH network builds after every delta, and closing
// with the full AuditIncrementalCut proof. Returns "" on success, else a
// description of the first divergence.
inline std::string ReplayIncrementalScenario(
    const IncrementalScenario& scenario) {
  IncrementalSolveOptions options;
  options.parallel.threads = scenario.threads;
  const auto initial_points = [&scenario] {
    WeightedPointSet initial;
    for (const ScenarioPoint& p : scenario.initial) {
      initial.Add(Point(p.coords), p.label, p.weight);
    }
    return initial;
  };
  IncrementalPassiveSolver solver =
      scenario.bulk_load
          ? IncrementalPassiveSolver(initial_points(), options)
          : IncrementalPassiveSolver(options);
  if (!scenario.bulk_load) {
    for (const ScenarioPoint& p : scenario.initial) {
      solver.Insert(Point(p.coords), p.label, p.weight);
    }
  }

  const auto check = [&solver](const std::string& where) -> std::string {
    const WeightedPointSet snapshot = solver.Snapshot();
    std::vector<PassiveSolveResult> colds;  // dense, then sparse
    if (solver.LiveSize() > 0) {
      for (const PassiveNetworkBuild build :
           {PassiveNetworkBuild::kDense,
            PassiveNetworkBuild::kSparseChainRelay}) {
        PassiveSolveOptions cold_options;
        cold_options.network = build;
        colds.push_back(SolvePassiveWeighted(snapshot, cold_options));
      }
    }
    // The repaired flow value is read before Solve(): a repair that
    // wrongly skipped its max flow shows here, at the delta that caused
    // it, instead of aborting in the extraction's Lemma 17 check.
    const double cold_flow = colds.empty() ? 0.0 : colds.front().flow_value;
    if (std::abs(solver.FlowValue() - cold_flow) >
        1e-6 * std::max(1.0, std::abs(cold_flow))) {
      return where + ": repaired flow value " +
             std::to_string(solver.FlowValue()) + " != cold flow value " +
             std::to_string(cold_flow);
    }
    const PassiveSolveResult& warm = solver.Solve();
    if (solver.LiveSize() == 0) {
      if (warm.optimal_weighted_error != 0.0 || !warm.assignment.empty()) {
        return where + ": empty snapshot solved to a nonzero answer";
      }
      return "";
    }
    for (size_t k = 0; k < colds.size(); ++k) {
      const PassiveSolveResult& cold = colds[k];
      const std::string label = k == 0 ? "dense" : "sparse";
      if (warm.assignment != cold.assignment) {
        return where + ": assignment diverged from cold " + label + " solve";
      }
      if (warm.optimal_weighted_error != cold.optimal_weighted_error) {
        return where + ": error " +
               std::to_string(warm.optimal_weighted_error) + " != cold " +
               label + " error " +
               std::to_string(cold.optimal_weighted_error);
      }
      if (!EquivalentOn(warm.classifier, cold.classifier,
                        snapshot.points())) {
        return where + ": classifier diverged from cold " + label + " solve";
      }
    }
    return "";
  };

  std::string failure = check("after bulk load");
  if (!failure.empty()) return failure;
  for (size_t i = 0; i < scenario.deltas.size(); ++i) {
    const ScenarioDelta& delta = scenario.deltas[i];
    if (delta.kind == 0) {
      solver.Insert(Point(delta.coords), delta.label, delta.weight);
    } else {
      const std::vector<size_t> live = solver.LiveIds();
      if (!live.empty()) {
        const size_t id = live[delta.rank % live.size()];
        if (delta.kind == 1) {
          solver.Erase(id);
        } else {
          solver.Relabel(id, delta.label);
        }
      }
    }
    failure = check("delta " + std::to_string(i));
    if (!failure.empty()) return failure;
  }
  const AuditResult audit = solver.AuditIncrementalCut();
  if (!audit.ok) return "final cut audit: " + audit.failure;
  return "";
}

// ddmin-lite: greedily drop single deltas, then single initial points,
// re-running the replay after each candidate removal, until no single
// removal still reproduces a failure. The replay budget bounds shrink
// time on long streams.
inline IncrementalScenario ShrinkIncrementalScenario(
    IncrementalScenario scenario) {
  size_t replays = 0;
  constexpr size_t kMaxReplays = 400;
  bool progress = true;
  while (progress && replays < kMaxReplays) {
    progress = false;
    for (size_t i = scenario.deltas.size(); i-- > 0;) {
      if (++replays > kMaxReplays) break;
      IncrementalScenario candidate = scenario;
      candidate.deltas.erase(candidate.deltas.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (!ReplayIncrementalScenario(candidate).empty()) {
        scenario = std::move(candidate);
        progress = true;
      }
    }
    for (size_t i = scenario.initial.size(); i-- > 0;) {
      if (++replays > kMaxReplays) break;
      IncrementalScenario candidate = scenario;
      candidate.initial.erase(candidate.initial.begin() +
                              static_cast<std::ptrdiff_t>(i));
      if (!ReplayIncrementalScenario(candidate).empty()) {
        scenario = std::move(candidate);
        progress = true;
      }
    }
  }
  return scenario;
}

}  // namespace fuzz
}  // namespace monoclass

#endif  // MONOCLASS_FUZZ_FUZZ_UTIL_H_
