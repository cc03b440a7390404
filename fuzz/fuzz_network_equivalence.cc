// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Differential fuzz harness for dense-vs-sparse network equivalence.
//
// Decodes a weighted point set and solves it through the dense Theorem 4
// network and the sparse chain-relay construction (including the kAuto
// router pinned to a fuzzed threshold and a fuzzed thread count for the
// relay wiring). The sparse rewrite is provably cut-preserving, so the
// harness demands *bit-identical* optimum, assignment and classifier --
// any drift is a finding. Built with MONOCLASS_AUDIT=ON every solve also
// re-verifies Lemmas 7/8/18 and relay purity internally. The shared relay
// wiring (WireRelays) is also compared, wire for wire, with one
// HighestDominatedPosition per (label-0 point, chain).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "monoclass.h"

namespace monoclass {
namespace fuzz {
namespace {

// WireRelays against the unfiltered loop, on the sparse builder's shape:
// chains over every point keep their label-1 members (some may end up
// empty) and the label-0 points are wired.
void CheckRelayWiring(const WeightedPointSet& set, size_t threads) {
  const ChainDecomposition decomposition =
      ScalableChainDecomposition(set.points(), kSparseExactMatchingLimit);
  std::vector<std::vector<size_t>> chains;
  for (const std::vector<size_t>& chain : decomposition.chains) {
    chains.emplace_back();
    for (const size_t i : chain) {
      if (set.label(i) == 1) chains.back().push_back(i);
    }
  }
  std::vector<size_t> queries;
  for (size_t i = 0; i < set.size(); ++i) {
    if (set.label(i) == 0) queries.push_back(i);
  }
  std::vector<RelayWire> want;
  for (size_t q = 0; q < queries.size(); ++q) {
    size_t offset = 0;
    for (const std::vector<size_t>& chain : chains) {
      const size_t t =
          HighestDominatedPosition(set.points(), chain, set.point(queries[q]));
      if (t != kNoDominatedMember) want.emplace_back(q, offset + t);
      offset += chain.size();
    }
  }
  ParallelOptions parallel;
  parallel.threads = threads;
  std::vector<RelayWire> got;
  for (const std::vector<RelayWire>& shard :
       WireRelays(set.points(), queries, chains, parallel)) {
    got.insert(got.end(), shard.begin(), shard.end());
  }
  FuzzExpect(got == want,
             "network/relay_wiring(threads=" + std::to_string(threads) + ")",
             "WireRelays yields " + std::to_string(got.size()) +
                 " wires, the unfiltered loop " +
                 std::to_string(want.size()));
}

void FuzzOne(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  const WeightedPointSet set = DecodeWeightedPointSet(in, 1, 48, 4);
  const size_t threads = DecodeThreadCount(in);
  CheckRelayWiring(set, threads);

  PassiveSolveOptions dense;
  dense.network = PassiveNetworkBuild::kDense;
  const PassiveSolveResult dense_result = SolvePassiveWeighted(set, dense);
  FuzzRequireAudit(AuditMonotone(dense_result.classifier, set.points()),
                   "network/dense");

  PassiveSolveOptions sparse;
  sparse.network = PassiveNetworkBuild::kSparseChainRelay;
  sparse.parallel.threads = threads;
  const PassiveSolveResult sparse_result = SolvePassiveWeighted(set, sparse);
  FuzzRequireAudit(AuditMonotone(sparse_result.classifier, set.points()),
                   "network/sparse");

  const std::string context =
      "network/equivalence(threads=" + std::to_string(threads) + ")";
  FuzzExpect(dense_result.assignment == sparse_result.assignment, context,
             "sparse chain-relay assignment diverged from the dense build");
  FuzzExpect(dense_result.optimal_weighted_error ==
                 sparse_result.optimal_weighted_error,
             context,
             "sparse optimum " +
                 std::to_string(sparse_result.optimal_weighted_error) +
                 " != dense optimum " +
                 std::to_string(dense_result.optimal_weighted_error));
  FuzzExpect(
      EquivalentOn(dense_result.classifier, sparse_result.classifier,
                   set.points()),
      context, "sparse classifier diverged from the dense build");

  // The kAuto router must agree with whichever branch it picked; pin the
  // threshold to a fuzzed value so both sides of the boundary are hit.
  PassiveSolveOptions routed;
  routed.network = PassiveNetworkBuild::kAuto;
  routed.sparse_auto_threshold = in.IntLessThan(set.size() + 2);
  const PassiveSolveResult routed_result = SolvePassiveWeighted(set, routed);
  FuzzExpect(routed_result.assignment == dense_result.assignment,
             "network/auto", "kAuto assignment diverged from the dense build");
  FuzzExpect(routed_result.optimal_weighted_error ==
                 dense_result.optimal_weighted_error,
             "network/auto", "kAuto optimum diverged from the dense build");
}

}  // namespace
}  // namespace fuzz
}  // namespace monoclass

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  monoclass::fuzz::FuzzOne(data, size);
  return 0;
}
