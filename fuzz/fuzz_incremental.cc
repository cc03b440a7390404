// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Differential fuzz harness for the incremental warm-start solver.
//
// Decodes an insert/erase/relabel delta stream (rank-addressed, so every
// byte mutation is a valid stream) and replays it through
// IncrementalPassiveSolver, the initial points loaded one Insert at a
// time or through the bulk-load constructor, cross-checking the warm
// solution against cold solves on BOTH network builds after every delta
// and closing with the AuditIncrementalCut proof obligation. A failing
// stream is ddmin-shrunk and the minimal repro printed before the abort.

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
  const IncrementalScenario scenario = DecodeIncrementalScenario(in);
  const std::string failure = ReplayIncrementalScenario(scenario);
  if (!failure.empty()) {
    const IncrementalScenario minimal = ShrinkIncrementalScenario(scenario);
    FuzzFail("incremental",
             failure + "\nminimal repro:\n" +
                 DescribeIncrementalScenario(minimal));
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace monoclass

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  monoclass::fuzz::FuzzOne(data, size);
  return 0;
}
