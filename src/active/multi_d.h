// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Active monotone classification in R^d (paper Section 4, Theorems 2-3).
//
// Pipeline:
//   1. compute a minimum chain decomposition C_1..C_w (Lemma 6);
//   2. run the Section 3 1D algorithm on each chain -- a chain sorted by
//      dominance is a 1D instance with coordinate = rank, because every
//      monotone classifier maps a prefix of the chain to 0 and the rest
//      to 1 -- obtaining a fully-labeled weighted sample Sigma_i;
//   3. Sigma = union Sigma_i; find the classifier minimizing
//      w-err_Sigma by solving passive weighted classification on Sigma
//      with the Theorem 4 flow solver (the Theorem 3 reduction).
//
// With probability >= 1 - delta the result's error on P is at most
// (1 + eps) k*. Probes: O((w/eps^2) log n log(n/w)).
//
// SolveActiveMultiD is the composition of three public stages, one per
// step above. A caller that owns the probing loop runs them itself:
// net/session.h decomposes once, keeps each finished chain's outcome and
// solves Sigma once, and gets the solve SolveActiveMultiD would return.

#ifndef MONOCLASS_ACTIVE_MULTI_D_H_
#define MONOCLASS_ACTIVE_MULTI_D_H_

#include <optional>
#include <vector>

#include "active/one_d.h"
#include "active/oracle.h"
#include "active/params.h"
#include "core/chain_decomposition.h"
#include "core/classifier.h"
#include "core/dataset.h"
#include "obs/probe_budget.h"
#include "passive/flow_solver.h"
#include "util/concurrency.h"

namespace monoclass {

struct ActiveSolveOptions {
  ActiveSamplingParams sampling = ActiveSamplingParams::Practical(0.5, 0.01);
  // Deterministic seed for the sampling; every run is reproducible.
  uint64_t seed = 1;
  // For 2D inputs, use the O(n log n) patience decomposition
  // (core/chain_decomposition_2d.h) instead of the O(dn^2 + n^2.5)
  // Lemma 6 path; identical chain count, much faster at scale. Ignored
  // when d != 2 or when precomputed_chains is set.
  bool use_fast_2d_chains = false;
  // Override the decomposition entirely (used by large-scale benches where
  // the workload generator already knows the chains, skipping the
  // O(d n^2 + n^2.5) Lemma 6 step; an ablation passes
  // GreedyChainDecomposition(points) for more chains -> more probes).
  // Must be a valid decomposition of the input points.
  std::optional<ChainDecomposition> precomputed_chains;
  // Options for the final passive solve on Sigma.
  PassiveSolveOptions passive;
  // Parallelism for the per-chain 1D solves. Chains are independent
  // sub-problems, so they run as pool tasks; results are merged in chain
  // order and each chain draws from its own (seed, chain_index) RNG
  // stream, making the output bit-identical to the serial run.
  // threads = 1 takes the exact serial path (no pool, no locking);
  // 0 = hardware concurrency. See docs/concurrency.md.
  ParallelOptions parallel;
};

struct ActiveSolveResult {
  MonotoneClassifier classifier;
  // Probing cost: distinct points revealed.
  size_t probes = 0;
  // Number of chains used (= the dominance width w for the Lemma 6 path).
  size_t num_chains = 0;
  // The union Sigma of the per-chain weighted samples.
  WeightedPointSet sigma;
  // min_h w-err_Sigma(h) achieved by the returned classifier.
  double sigma_error = 0.0;
  // Diagnostics aggregated over chains.
  size_t total_levels = 0;
  size_t full_probe_levels = 0;
  // Probe account of this run against the instantiated Theorem 2 bound
  // (per-chain breakdown included; see obs/probe_budget.h).
  obs::ProbeBudgetReport probe_budget;
};

// Solves Problem 1 on the points behind `oracle`. `points` supplies the
// visible coordinates; `oracle` must index the same array.
ActiveSolveResult SolveActiveMultiD(const PointSet& points,
                                    LabelOracle& oracle,
                                    const ActiveSolveOptions& options = {});

// Stage 1: the chain decomposition `options` selects (precomputed_chains,
// the 2D patience decomposition, or Lemma 6). A pure function of the
// points and options.
ChainDecomposition DecomposeForActiveSolve(const PointSet& points,
                                           const ActiveSolveOptions& options);

// One chain's Section 3 run: its weighted sample Sigma_i and the distinct
// points it revealed.
struct ActiveChainOutcome {
  OneDSolveResult result;
  size_t distinct_probes = 0;
};

// Stage 2: the 1D algorithm on chain `chain_index` of `decomposition`,
// with coordinate = rank along the chain, an equal share delta / w of
// the failure budget and the RNG stream Rng(options.seed, chain_index).
// The outcome depends only on the chain, the seed and the answers to its
// own probes. `oracle` indexes the whole point set; concurrent calls on
// distinct chains need a thread-safe oracle.
ActiveChainOutcome SolveActiveChain(const ChainDecomposition& decomposition,
                                    size_t chain_index, LabelOracle& oracle,
                                    const ActiveSolveOptions& options);

// Stage 3: Sigma = the union of every chain's sample (`chains`, in chain
// order), solved as passive weighted classification (the Theorem 3
// reduction). `probes` is the run's distinct probe count; chains
// partition the points, so it is the sum of the chains' distinct_probes.
ActiveSolveResult SolveActiveSigma(const PointSet& points,
                                   const std::vector<ActiveChainOutcome>& chains,
                                   size_t probes,
                                   const ActiveSolveOptions& options);

}  // namespace monoclass

#endif  // MONOCLASS_ACTIVE_MULTI_D_H_
