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

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

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

void FuzzOne(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  const WeightedPointSet set = DecodeWeightedPointSet(in, 1, 40, 4);
  const bool reduce = in.TakeBool();
  const bool sparse = in.TakeBool();

  double reference = -1.0;
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
    } else {
      FuzzExpect(std::abs(result.optimal_weighted_error - reference) <=
                     1e-6 * std::max(1.0, reference),
                 context,
                 "error " + std::to_string(result.optimal_weighted_error) +
                     " disagrees with reference " + std::to_string(reference));
    }
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
