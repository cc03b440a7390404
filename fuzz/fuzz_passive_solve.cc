// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Differential fuzz harness for cold SolvePassiveWeighted.
//
// Decodes a weighted point set and solves it with every max-flow
// backend, with or without the Lemma 15 contending reduction, on the
// dense or the sparse chain-relay network build. All paths must agree
// on the optimal weighted error; the returned classifier must audit
// monotone (Lemma 16) and must actually achieve the reported error on
// the input; instances of up to 13 points are additionally checked
// against the exponential brute-force oracle. Built with
// MONOCLASS_AUDIT=ON, each solve also re-verifies Lemmas 7/8/18 (and
// relay purity on the sparse build) on the solved network.
//
// At d = 2 the harness also checks the O(n log n) sweeps against the
// pairwise scans they replace, bit for bit: the contending partition
// (a sweep that marks too many points still solves optimally, so only
// this direct compare catches it), the Lemma 16 check on the labels, on
// the solved assignment and on an assignment decoded from the input, and
// the minimal generators of the set's points. The sweeps see a copy of
// the points in which decoded zero coordinates may be -0.0. The flow
// optimum is compared with the 2D staircase DP at every size.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "monoclass.h"

namespace monoclass {
namespace fuzz {
namespace {

// Recomputes the classifier's weighted error from first principles.
double ClassifierWeightedError(const MonotoneClassifier& h,
                               const WeightedPointSet& set) {
  double error = 0.0;
  for (size_t i = 0; i < set.size(); ++i) {
    if (h.Classify(set.point(i)) != (set.label(i) != 0)) error += set.weight(i);
  }
  return error;
}

// The same points with each zero coordinate turned into -0.0 where the
// point's sign byte has that coordinate's bit set.
PointSet WithSignedZeros(const PointSet& points,
                         const std::vector<uint8_t>& signs) {
  PointSet out;
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<double> coords = points[i].coordinates();
    for (size_t k = 0; k < coords.size(); ++k) {
      if (coords[k] == 0.0 && ((signs[i] >> k) & 1) != 0) coords[k] = -0.0;
    }
    out.Add(Point(std::move(coords)));
  }
  return out;
}

// Sweep (the d = 2 path of each function) against its scan, bit for bit.
void CheckSweepsAgainstScans(const PointSet& points,
                             const std::vector<Label>& labels,
                             const std::vector<Label>& solved,
                             const std::vector<Label>& decoded) {
  const ContendingPartition sweep = ComputeContending(points, labels);
  const ContendingPartition scan = ComputeContendingScan(points, labels);
  FuzzExpect(sweep.contending == scan.contending &&
                 sweep.is_contending == scan.is_contending,
             "sweep/contending",
             "sweep marks " + std::to_string(sweep.contending.size()) +
                 " contending points, scan " +
                 std::to_string(scan.contending.size()));
  const std::pair<const char*, const std::vector<Label>*> assignments[] = {
      {"labels", &labels}, {"solved", &solved}, {"decoded", &decoded}};
  for (const auto& [name, values] : assignments) {
    FuzzExpect(IsMonotoneAssignment(points, *values) ==
                   IsMonotoneAssignmentScan(points, *values),
               std::string("sweep/lemma16/") + name,
               "sweep and scan disagree on monotonicity");
  }
  const std::vector<Point> minimal = MinimalGenerators(points.points());
  const std::vector<Point> reference = MinimalGeneratorsScan(points.points());
  // Same survivors in the same order, down to the sign of a zero.
  bool same = minimal == reference;
  for (size_t i = 0; same && i < minimal.size(); ++i) {
    same = std::signbit(minimal[i][0]) == std::signbit(reference[i][0]) &&
           std::signbit(minimal[i][1]) == std::signbit(reference[i][1]);
  }
  FuzzExpect(same, "sweep/generators",
             "sweep keeps " + std::to_string(minimal.size()) +
                 " generators, scan " + std::to_string(reference.size()));
}

void FuzzOne(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  const WeightedPointSet set = DecodeWeightedPointSet(in, 1, 40, 4);
  const bool reduce = in.TakeBool();
  const bool sparse = in.TakeBool();
  // Read after the original fields, so older corpus files decode as
  // before (these come out all zero for them).
  std::vector<Label> decoded(set.size());
  std::vector<uint8_t> signs(set.size());
  for (size_t i = 0; i < set.size(); ++i) {
    decoded[i] = in.TakeBool() ? 1 : 0;
    signs[i] = in.TakeByte();
  }

  double reference = -1.0;
  std::vector<Label> solved;
  for (const MaxFlowAlgorithm algorithm : AllMaxFlowAlgorithms()) {
    PassiveSolveOptions options;
    options.algorithm = algorithm;
    options.reduce_to_contending = reduce;
    options.network = sparse ? PassiveNetworkBuild::kSparseChainRelay
                             : PassiveNetworkBuild::kDense;
    const PassiveSolveResult result = SolvePassiveWeighted(set, options);
    const std::string context =
        "passive/" + CreateMaxFlowSolver(algorithm)->Name() +
        (reduce ? "/contending" : "/full") + (sparse ? "/sparse" : "/dense");

    FuzzRequireAudit(AuditMonotone(result.classifier, set.points()), context);
    FuzzExpect(result.optimal_weighted_error >= -1e-9, context,
               "negative optimal error");
    FuzzExpect(result.assignment.size() == set.size(), context,
               "assignment size mismatch");

    const double achieved = ClassifierWeightedError(result.classifier, set);
    FuzzExpect(
        std::abs(achieved - result.optimal_weighted_error) <=
            1e-6 * std::max(1.0, result.optimal_weighted_error),
        context,
        "classifier achieves " + std::to_string(achieved) +
            " but the solver reported " +
            std::to_string(result.optimal_weighted_error));

    if (reference < 0.0) {
      reference = result.optimal_weighted_error;
      solved = result.assignment;
    } else {
      FuzzExpect(std::abs(result.optimal_weighted_error - reference) <=
                     1e-6 * std::max(1.0, reference),
                 context,
                 "error " + std::to_string(result.optimal_weighted_error) +
                     " disagrees with reference " + std::to_string(reference));
    }
  }

  if (set.dimension() == 2) {
    CheckSweepsAgainstScans(WithSignedZeros(set.points(), signs),
                            set.labels(), solved, decoded);
    const Staircase2DResult staircase = SolvePassiveStaircase2D(set);
    FuzzExpect(std::abs(staircase.optimal_weighted_error - reference) <=
                   1e-6 * std::max(1.0, reference),
               "passive/staircase_2d",
               "staircase error " +
                   std::to_string(staircase.optimal_weighted_error) +
                   " disagrees with flow error " + std::to_string(reference));
  }

  // Exponential ground truth on small instances.
  if (set.size() <= 13) {
    const BruteForceResult brute = SolvePassiveBruteForce(set);
    FuzzExpect(std::abs(brute.optimal_weighted_error - reference) <=
                   1e-6 * std::max(1.0, reference),
               "passive/brute_force",
               "brute-force error " +
                   std::to_string(brute.optimal_weighted_error) +
                   " disagrees with flow error " + std::to_string(reference));
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace monoclass

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  monoclass::fuzz::FuzzOne(data, size);
  return 0;
}
