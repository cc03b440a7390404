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
// At every dimension the harness also checks the dominance-frontier
// passes against the pairwise scans they replace, bit for bit: the
// contending partition (a pass that marks too many points still solves
// optimally, so only this direct compare catches it), the Lemma 16 check
// on the labels, on the solved assignment and on an assignment decoded
// from the input, the generators FromAssignment reads off each monotone
// one, and the minimal generators of the set's points. These passes see a
// copy of the points in which decoded zero coordinates may be -0.0; the
// generator list may also turn a zero into -infinity and a 1.75 into
// +infinity. WeightedError must equal a loop over the generators exactly,
// on the input and on its signed-zero copy. At d = 2 the flow optimum is
// also compared with the 2D staircase DP.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "monoclass.h"

namespace monoclass {
namespace fuzz {
namespace {

// Recomputes the classifier's weighted error from first principles,
// without Classify (which queries the generators' frontier).
double ClassifierWeightedError(const MonotoneClassifier& h,
                               const WeightedPointSet& set) {
  double error = 0.0;
  for (size_t i = 0; i < set.size(); ++i) {
    bool positive = false;
    for (const Point& g : h.generators()) {
      positive = positive || DominatesEq(set.point(i), g);
    }
    if (positive != (set.label(i) != 0)) error += set.weight(i);
  }
  return error;
}

// The same points with each zero coordinate turned into -0.0 where the
// point's sign byte has that coordinate's bit (0-3) set. With
// `infinities`, a coordinate whose bit 4-7 is set becomes -infinity where
// it is zero and +infinity where it is 1.75, the grid's top (generators
// may be infinite; dataset points may not).
std::vector<Point> WithSignedZeros(const PointSet& points,
                                   const std::vector<uint8_t>& signs,
                                   bool infinities) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Point> out;
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<double> coords = points[i].coordinates();
    for (size_t k = 0; k < coords.size(); ++k) {
      if (coords[k] == 0.0 && ((signs[i] >> k) & 1) != 0) coords[k] = -0.0;
      if (!infinities || ((signs[i] >> (k + 4)) & 1) == 0) continue;
      if (coords[k] == 0.0) coords[k] = -kInf;
      if (coords[k] == 1.75) coords[k] = kInf;
    }
    out.emplace_back(std::move(coords));
  }
  return out;
}

// Same points in the same order, down to the sign of a zero.
bool BitIdentical(const std::vector<Point>& a, const std::vector<Point>& b) {
  if (a != b) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t k = 0; k < a[i].dimension(); ++k) {
      if (std::signbit(a[i][k]) != std::signbit(b[i][k])) return false;
    }
  }
  return true;
}

// Each frontier pass against its pairwise scan, bit for bit.
void CheckFrontierAgainstScans(const PointSet& points,
                               const std::vector<Label>& labels,
                               const std::vector<Label>& solved,
                               const std::vector<Label>& decoded,
                               const std::vector<Point>& generators) {
  const std::string d = "/d" + std::to_string(points.dimension());
  const ContendingPartition frontier = ComputeContending(points, labels);
  const ContendingPartition scan = ComputeContendingScan(points, labels);
  FuzzExpect(frontier.contending == scan.contending &&
                 frontier.is_contending == scan.is_contending,
             "frontier/contending" + d,
             "frontier marks " + std::to_string(frontier.contending.size()) +
                 " contending points, scan " +
                 std::to_string(scan.contending.size()));
  const std::pair<const char*, const std::vector<Label>*> assignments[] = {
      {"labels", &labels}, {"solved", &solved}, {"decoded", &decoded}};
  for (const auto& [name, values] : assignments) {
    const bool monotone = IsMonotoneAssignmentScan(points, *values);
    FuzzExpect(IsMonotoneAssignment(points, *values) == monotone,
               std::string("frontier/lemma16/") + name + d,
               "frontier and scan disagree on monotonicity");
    const auto h = MonotoneClassifier::FromAssignment(points, *values);
    FuzzExpect(h.has_value() == monotone,
               std::string("frontier/from_assignment/") + name + d,
               "FromAssignment disagrees with the scan on monotonicity");
    if (!h.has_value()) continue;
    std::vector<Point> positives;
    for (size_t i = 0; i < points.size(); ++i) {
      if ((*values)[i] == 1) positives.push_back(points[i]);
    }
    FuzzExpect(BitIdentical(h->generators(),
                            MinimalGeneratorsScan(std::move(positives))),
               std::string("frontier/from_assignment/") + name + d,
               "FromAssignment's generators differ from the scan's");
  }
  const std::vector<Point> minimal = MinimalGenerators(generators);
  const std::vector<Point> reference = MinimalGeneratorsScan(generators);
  FuzzExpect(BitIdentical(minimal, reference), "frontier/generators" + d,
             "frontier keeps " + std::to_string(minimal.size()) +
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
    FuzzExpect(WeightedError(result.classifier, set) == achieved, context,
               "WeightedError " +
                   std::to_string(WeightedError(result.classifier, set)) +
                   " != per-generator loop " + std::to_string(achieved));
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

  const PointSet signed_points(WithSignedZeros(set.points(), signs, false));
  const std::vector<Point> generators =
      WithSignedZeros(set.points(), signs, true);
  CheckFrontierAgainstScans(signed_points, set.labels(), solved, decoded,
                            generators);
  WeightedPointSet signed_set;
  for (size_t i = 0; i < set.size(); ++i) {
    signed_set.Add(signed_points[i], set.label(i), set.weight(i));
  }
  const auto h = MonotoneClassifier::FromGenerators(generators,
                                                    set.dimension());
  FuzzExpect(WeightedError(h, signed_set) ==
                 ClassifierWeightedError(h, signed_set),
             "weighted_error/signed_zeros",
             "WeightedError disagrees with the per-generator loop");
  if (set.dimension() == 2) {
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
