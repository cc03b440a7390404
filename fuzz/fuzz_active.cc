// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Differential fuzz harness for the active solvers under a simulated
// oracle.
//
// Decodes a hidden ground-truth labeling, wraps it in an InMemoryOracle
// (optionally a NoisyOracle -- the lying-labeler robustness scenario)
// and runs SolveActiveMultiD through a fuzzed configuration: chain path
// (Lemma 6 / greedy / 2D patience), sampling parameters, thread count.
// Audits: the classifier is monotone (Lemma 16), Sigma satisfies the
// Lemma 13 covering identity, probes never exceed n, and with a
// truthful oracle the active error never beats the exact passive
// optimum computed independently by the flow solver.

#include <cstddef>
#include <cstdint>
#include <string>

#include "fuzz/fuzz_util.h"
#include "monoclass.h"

namespace monoclass {
namespace fuzz {
namespace {

void FuzzOne(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  const LabeledPointSet truth = DecodeLabeledPointSet(in, 1, 48, 3);

  ActiveSolveOptions options;
  options.sampling = ActiveSamplingParams::Practical(0.5, 0.05);
  options.seed = in.TakeU16();
  options.parallel.threads = DecodeThreadCount(in);
  const size_t path = in.IntLessThan(3);
  if (path == 1) {
    options.precomputed_chains = GreedyChainDecomposition(truth.points());
  } else if (path == 2 && truth.dimension() == 2) {
    options.use_fast_2d_chains = true;
  }

  const bool noisy = in.TakeByte() % 4 == 0;
  InMemoryOracle truthful(truth);
  NoisyOracle lying(truth, /*flip_probability=*/0.1, /*seed=*/in.TakeU16());
  LabelOracle& oracle = noisy ? static_cast<LabelOracle&>(lying)
                              : static_cast<LabelOracle&>(truthful);

  const ActiveSolveResult result =
      SolveActiveMultiD(truth.points(), oracle, options);
  const std::string context = noisy ? "active/noisy" : "active/truthful";

  FuzzRequireAudit(AuditMonotone(result.classifier, truth.points()), context);
  FuzzRequireAudit(
      AuditWeightedSample(result.sigma, static_cast<double>(truth.size())),
      context + "/sigma");
  FuzzExpect(result.probes <= truth.size(), context,
             "probe count exceeds the number of points");
  FuzzExpect(result.num_chains >= 1, context, "no chains used");

  if (!noisy) {
    // The returned classifier can never beat the exact optimum.
    const size_t active_error = CountErrors(result.classifier, truth);
    const size_t optimal_error = OptimalError(truth);
    FuzzExpect(active_error >= optimal_error, context,
               "active error " + std::to_string(active_error) +
                   " beats the exact optimum " +
                   std::to_string(optimal_error) + " (accounting bug)");
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace monoclass

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  monoclass::fuzz::FuzzOne(data, size);
  return 0;
}
