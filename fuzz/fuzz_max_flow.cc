// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Differential fuzz harness for the max-flow backends on raw networks.
//
// Decodes an arbitrary small directed network (parallel edges,
// self-loops, edges into the source and out of the sink all allowed --
// a correct solver must tolerate every shape) and solves it with both
// backends. Each backend must agree on the flow value, satisfy
// the Section 2 flow axioms (AuditFlowConservation), produce a
// residual-reachability cut whose weight equals the flow
// (AuditMinCut, Lemmas 7-8), and match MinCutWeight.

#include <cmath>
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
  const FlowNetworkSpec spec = DecodeFlowNetwork(in, 20, 64);

  double reference = -1.0;
  for (const MaxFlowAlgorithm algorithm : AllMaxFlowAlgorithms()) {
    FlowNetwork network = spec.network;  // each backend solves a fresh copy
    const auto solver = CreateMaxFlowSolver(algorithm);
    const double flow = solver->Solve(network, spec.source, spec.sink);
    const std::string context = "maxflow/" + solver->Name();

    FuzzExpect(flow >= -1e-9, context, "negative flow value");
    FuzzRequireAudit(
        AuditFlowConservation(network, spec.source, spec.sink, flow), context);
    FuzzRequireAudit(AuditMinCut(network, spec.source, spec.sink, flow),
                     context);

    const double cut = MinCutWeight(network, spec.source);
    FuzzExpect(std::abs(cut - flow) <= 1e-6 * std::max(1.0, std::abs(flow)),
               context,
               "min-cut weight " + std::to_string(cut) +
                   " != flow value " + std::to_string(flow));

    if (reference < 0.0) {
      reference = flow;
    } else {
      FuzzExpect(std::abs(flow - reference) <=
                     1e-6 * std::max(1.0, std::abs(reference)),
                 context,
                 "flow " + std::to_string(flow) +
                     " disagrees with reference " + std::to_string(reference));
    }

    // A second Solve on the already-saturated network must add nothing.
    const double extra = solver->Solve(network, spec.source, spec.sink);
    FuzzExpect(std::abs(extra) <= 1e-9, context,
               "a second Solve on a maximum flow added " +
                   std::to_string(extra));
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace monoclass

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  monoclass::fuzz::FuzzOne(data, size);
  return 0;
}
