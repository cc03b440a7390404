// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Randomized self-check driver for the invariant-audit layer.
//
// Each iteration draws an adversarial dataset (uniform-random labels,
// planted classifiers with noise, or staircase chain instances) and
// cross-validates the solver stack:
//
//   * both max-flow backends must agree on the optimal weighted error,
//     and each solved network must pass AuditMinCut (Lemmas 7/8/18);
//   * the flow solver must match the exponential brute-force solver on
//     small inputs;
//   * minimum / greedy / 2D-patience chain decompositions must pass
//     AuditChainDecomposition, with Dilworth certificates for the minimum
//     variants;
//   * the active multi-D solver's Sigma must satisfy the Lemma 13
//     covering identity and its classifier must audit monotone.
//
// Built with MONOCLASS_AUDIT=ON the hot-path MC_AUDIT hooks also fire on
// every internal solve, and under ASan/UBSan/TSan the same run doubles as
// a memory/UB sweep. Exits non-zero on the first violation.
//
// The incremental mode (--incremental) fuzzes the warm-start delta
// pipeline instead: random insert/erase/relabel streams replayed through
// IncrementalPassiveSolver via the shared fuzz/fuzz_util.h scenario
// codec, every step cross-checked against cold solves on BOTH network
// builds, with ddmin shrinking on failure. Incremental streams also run
// as part of the default rotation.
//
// Every mode is seeded independently per iteration (a splitmix64 of
// --seed and the iteration number), so a failure is reproducible from
// the mode name and one 64-bit seed alone. With --crash-dir=DIR (default
// DIR=crashes when running under --budget-seconds) each failure is
// persisted as a replayable artifact:
//
//   * incremental failures -> the ddmin-minimal delta stream, encoded
//     with fuzz_util.h's invertible codec. The file is byte-compatible
//     with the fuzz_incremental harness (corpus or direct replay) and
//     with --replay below.
//   * other modes -> a one-line text stub "audit_fuzz-replay-v1
//     mode=<m> seed=<n>" that --replay re-executes exactly.
//
// Usage: audit_fuzz [--iters=N] [--seed=S] [--verbose] [--incremental]
//                   [--budget-seconds=S] [--crash-dir=DIR] [--replay=FILE]

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "monoclass.h"

namespace monoclass {
namespace {

struct FuzzOptions {
  uint64_t iters = 50;
  uint64_t seed = 1;
  bool verbose = false;
  // Run only the incremental-solver delta-stream fuzzer.
  bool incremental = false;
  // When > 0, loop until this wall-clock budget is spent instead of a
  // fixed iteration count (the CI smoke job's knob).
  double budget_seconds = 0.0;
  // Where failing inputs are persisted; empty disables persistence
  // (budget runs default to "crashes").
  std::string crash_dir;
  // When non-empty, replay this artifact instead of fuzzing.
  std::string replay;
};

// Minimal flag parsing; aborts on unknown flags so CI typos fail loudly.
FuzzOptions ParseFlags(int argc, char** argv) {
  FuzzOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--iters=", 0) == 0) {
      options.iters = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--incremental") {
      options.incremental = true;
    } else if (arg.rfind("--budget-seconds=", 0) == 0) {
      options.budget_seconds = std::strtod(argv[i] + 17, nullptr);
    } else if (arg.rfind("--crash-dir=", 0) == 0) {
      options.crash_dir = std::string(arg.substr(12));
    } else if (arg.rfind("--replay=", 0) == 0) {
      options.replay = std::string(arg.substr(9));
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: audit_fuzz [--iters=N] [--seed=S] [--verbose] "
                   "[--incremental] [--budget-seconds=S] [--crash-dir=DIR] "
                   "[--replay=FILE]\n";
      std::exit(2);
    }
  }
  if (options.crash_dir.empty() && options.budget_seconds > 0.0) {
    options.crash_dir = "crashes";
  }
  return options;
}

size_t g_violations = 0;

void Report(const AuditResult& result, const std::string& context) {
  if (!result.ok) {
    ++g_violations;
    std::cerr << "AUDIT VIOLATION [" << context << "]: " << result.failure
              << "\n";
  }
}

void Expect(bool ok, const std::string& context, const std::string& detail) {
  if (!ok) {
    ++g_violations;
    std::cerr << "CROSS-CHECK FAILURE [" << context << "]: " << detail << "\n";
  }
}

// Uniform-random points with iid labels: no planted structure, so the
// contending set is large and the flow network dense -- the adversarial
// regime for the passive solver.
WeightedPointSet RandomWeightedSet(Rng& rng, size_t n, size_t d,
                                   bool unit_weights) {
  WeightedPointSet set;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> coords(d);
    for (auto& c : coords) {
      // A coarse grid makes coordinate collisions (ties, duplicates) common.
      c = static_cast<double>(rng.UniformInt(8)) / 4.0;
    }
    const Label label = rng.Bernoulli(0.5) ? 1 : 0;
    const double weight =
        unit_weights ? 1.0 : static_cast<double>(1 + rng.UniformInt(40)) / 10.0;
    set.Add(Point(std::move(coords)), label, weight);
  }
  return set;
}

void FuzzPassiveCrossSolver(Rng& rng) {
  const size_t n = 4 + rng.UniformInt(48);
  const size_t d = 1 + rng.UniformInt(4);
  const bool unit_weights = rng.Bernoulli(0.3);
  const WeightedPointSet set = RandomWeightedSet(rng, n, d, unit_weights);

  double reference_error = -1.0;
  for (const MaxFlowAlgorithm algorithm : AllMaxFlowAlgorithms()) {
    PassiveSolveOptions options;
    options.algorithm = algorithm;
    options.reduce_to_contending = rng.Bernoulli(0.8);
    // Half the solves route the dominance structure through chain
    // relays; with MONOCLASS_AUDIT on, each one re-verifies relay
    // purity and Lemmas 7/8/18 on the relay network.
    options.network = rng.Bernoulli(0.5) ? PassiveNetworkBuild::kDense
                                         : PassiveNetworkBuild::kSparseChainRelay;
    const PassiveSolveResult result = SolvePassiveWeighted(set, options);
    const std::string context =
        "passive/" + CreateMaxFlowSolver(algorithm)->Name() +
        (result.used_sparse_network ? "/sparse" : "/dense");
    Report(AuditMonotone(result.classifier, set.points()), context);
    Expect(result.optimal_weighted_error >= -1e-9, context,
           "negative optimal error");
    if (reference_error < 0.0) {
      reference_error = result.optimal_weighted_error;
    } else {
      Expect(std::abs(result.optimal_weighted_error - reference_error) <=
                 1e-6 * std::max(1.0, reference_error),
             context,
             "error " + std::to_string(result.optimal_weighted_error) +
                 " disagrees with reference " +
                 std::to_string(reference_error));
    }
  }

  // The sparse chain-relay network must be fully transparent: not just
  // the same optimum, the same optimal assignment bit for bit.
  {
    PassiveSolveOptions dense;
    dense.network = PassiveNetworkBuild::kDense;
    PassiveSolveOptions sparse;
    sparse.network = PassiveNetworkBuild::kSparseChainRelay;
    sparse.parallel.threads = 1 + rng.UniformInt(4);
    const PassiveSolveResult dense_result = SolvePassiveWeighted(set, dense);
    const PassiveSolveResult sparse_result = SolvePassiveWeighted(set, sparse);
    Expect(dense_result.assignment == sparse_result.assignment,
           "passive/sparse_equivalence",
           "sparse chain-relay assignment diverged from the dense build");
    Expect(dense_result.optimal_weighted_error ==
               sparse_result.optimal_weighted_error,
           "passive/sparse_equivalence",
           "sparse optimum " +
               std::to_string(sparse_result.optimal_weighted_error) +
               " != dense optimum " +
               std::to_string(dense_result.optimal_weighted_error));
  }

  // Exponential ground truth on small instances.
  if (n <= 13) {
    const BruteForceResult brute = SolvePassiveBruteForce(set);
    Expect(std::abs(brute.optimal_weighted_error - reference_error) <=
               1e-6 * std::max(1.0, reference_error),
           "passive/brute_force",
           "brute-force error " + std::to_string(brute.optimal_weighted_error) +
               " disagrees with flow error " + std::to_string(reference_error));
  }
}

void FuzzChainDecompositions(Rng& rng) {
  const size_t n = 2 + rng.UniformInt(60);
  const size_t d = 1 + rng.UniformInt(3);
  PointSet points;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> coords(d);
    for (auto& c : coords) {
      c = static_cast<double>(rng.UniformInt(10));
    }
    points.Add(Point(std::move(coords)));
  }

  const ChainDecomposition minimum = MinimumChainDecomposition(points);
  Report(AuditChainDecomposition(points, minimum, /*expect_minimum=*/true),
         "chains/minimum");

  const ChainDecomposition greedy = GreedyChainDecomposition(points);
  Report(AuditChainDecomposition(points, greedy, /*expect_minimum=*/false),
         "chains/greedy");
  Expect(greedy.NumChains() >= minimum.NumChains(), "chains/greedy",
         "greedy produced fewer chains than the minimum decomposition");

  if (d == 2) {
    const ChainDecomposition patience = MinimumChainDecomposition2D(points);
    Report(
        AuditChainDecomposition(points, patience, /*expect_minimum=*/true),
        "chains/patience2d");
    Expect(patience.NumChains() == minimum.NumChains(), "chains/patience2d",
           "patience chain count disagrees with Lemma 6 path");
  }
}

void FuzzActiveSolve(Rng& rng) {
  ChainInstanceOptions instance_options;
  instance_options.num_chains = 1 + rng.UniformInt(6);
  instance_options.chain_length = 8 + rng.UniformInt(48);
  instance_options.noise_per_chain = rng.UniformInt(4);
  instance_options.noise_mode =
      rng.Bernoulli(0.5) ? NoiseMode::kUniform : NoiseMode::kBoundary;
  instance_options.seed = rng.Next();
  const ChainInstance instance = GenerateChainInstance(instance_options);

  InMemoryOracle oracle(instance.data);
  ActiveSolveOptions options;
  options.sampling = ActiveSamplingParams::Practical(0.5, 0.05);
  options.seed = rng.Next();
  const uint64_t path = rng.UniformInt(3);
  if (path == 0) {
    options.precomputed_chains = instance.chains;
  } else if (path == 1) {
    options.precomputed_chains =
        GreedyChainDecomposition(instance.data.points());
  } else if (instance.data.dimension() == 2) {
    options.use_fast_2d_chains = true;
  }
  const ActiveSolveResult result =
      SolveActiveMultiD(instance.data.points(), oracle, options);

  Report(AuditMonotone(result.classifier, instance.data.points()),
         "active/classifier");
  Report(AuditWeightedSample(result.sigma,
                             static_cast<double>(instance.data.size())),
         "active/sigma");
  Expect(result.probes <= instance.data.size(), "active/probes",
         "probe count exceeds the number of points");

  // The returned classifier can never beat the optimum, and with the
  // noise bound k* <= total_flips its error is a finite quantity the
  // passive solver can verify independently.
  const size_t active_error = CountErrors(result.classifier, instance.data);
  const size_t optimal_error = OptimalError(instance.data);
  Expect(active_error >= optimal_error, "active/error",
         "active error beats the exact optimum (accounting bug)");
}

// ---- Incremental warm-start fuzzing ------------------------------------
//
// Scenario representation, replay (warm vs cold differential on both
// network builds + AuditIncrementalCut) and ddmin shrinking live in
// fuzz/fuzz_util.h, shared with the fuzz_incremental libFuzzer harness.
// Generation stays on the codec's grids (coarse coords, 0.1-step
// weights, bounded stream lengths) so every failing scenario encodes
// losslessly into a replayable artifact.

// Returns the ddmin-minimal failing scenario, or nullopt when the
// stream replayed cleanly.
std::optional<fuzz::IncrementalScenario> FuzzIncrementalSolver(Rng& rng) {
  fuzz::IncrementalScenario scenario;
  const size_t d = 1 + rng.UniformInt(3);
  scenario.dimension = d;
  const bool unit_weights = rng.Bernoulli(0.3);
  const auto grid_coords = [&rng, d] {
    std::vector<double> coords(d);
    for (auto& c : coords) {
      c = static_cast<double>(rng.UniformInt(8)) / 4.0;
    }
    return coords;
  };
  const auto grid_weight = [&rng, unit_weights] {
    return unit_weights ? 1.0
                        : static_cast<double>(1 + rng.UniformInt(40)) / 10.0;
  };

  const size_t thread_choices[] = {1, 2, 8};
  scenario.threads = thread_choices[rng.UniformInt(3)];
  const size_t n0 = rng.UniformInt(fuzz::kScenarioMaxInitialPoints);
  for (size_t i = 0; i < n0; ++i) {
    scenario.initial.push_back({.coords = grid_coords(),
                                .label = rng.Bernoulli(0.5) ? Label{1}
                                                            : Label{0},
                                .weight = grid_weight()});
  }
  const size_t steps =
      8 + rng.UniformInt(fuzz::kScenarioMaxDeltas - 8);
  for (size_t i = 0; i < steps; ++i) {
    fuzz::ScenarioDelta delta;
    const uint64_t op = rng.UniformInt(10);
    if (op < 4) {
      delta.kind = 0;
      delta.coords = grid_coords();
      delta.label = rng.Bernoulli(0.5) ? 1 : 0;
      delta.weight = grid_weight();
    } else if (op < 7) {
      delta.kind = 1;
      delta.rank = static_cast<uint16_t>(rng.UniformInt(1u << 16));
    } else {
      delta.kind = 2;
      delta.rank = static_cast<uint16_t>(rng.UniformInt(1u << 16));
      delta.label = rng.Bernoulli(0.5) ? 1 : 0;
    }
    scenario.deltas.push_back(std::move(delta));
  }

  const std::string failure = fuzz::ReplayIncrementalScenario(scenario);
  if (failure.empty()) return std::nullopt;
  ++g_violations;
  fuzz::IncrementalScenario minimal =
      fuzz::ShrinkIncrementalScenario(scenario);
  std::cerr << "INCREMENTAL VIOLATION: " << failure << "\n"
            << "minimal repro (fails with: "
            << fuzz::ReplayIncrementalScenario(minimal) << "):\n"
            << fuzz::DescribeIncrementalScenario(minimal);
  return minimal;
}

// ---- Mode dispatch, persistence and replay -----------------------------

// The four independently-seeded modes of the default rotation.
enum class FuzzMode { kPassive, kChains, kActive, kIncremental };

constexpr const char* kModeNames[] = {"passive", "chains", "active",
                                      "incremental"};

const char* ModeName(FuzzMode mode) {
  return kModeNames[static_cast<size_t>(mode)];
}

// splitmix64: mode m of iteration i runs on an independent, printable
// 64-bit seed, so "mode + seed" fully reproduces any failure.
uint64_t DeriveSeed(uint64_t base, uint64_t iter, FuzzMode mode) {
  uint64_t z = base + iter * 0x9E3779B97F4A7C15ull +
               static_cast<uint64_t>(mode) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Runs one mode on one derived seed; returns the encoded artifact to
// persist when the mode found a violation with a binary repro (only the
// incremental codec has one).
std::vector<uint8_t> RunMode(FuzzMode mode, uint64_t seed) {
  Rng rng(seed);
  switch (mode) {
    case FuzzMode::kPassive:
      FuzzPassiveCrossSolver(rng);
      break;
    case FuzzMode::kChains:
      FuzzChainDecompositions(rng);
      break;
    case FuzzMode::kActive:
      FuzzActiveSolve(rng);
      break;
    case FuzzMode::kIncremental: {
      const std::optional<fuzz::IncrementalScenario> minimal =
          FuzzIncrementalSolver(rng);
      if (minimal.has_value()) {
        return fuzz::EncodeIncrementalScenario(*minimal);
      }
      break;
    }
  }
  return {};
}

constexpr std::string_view kReplayMagic = "audit_fuzz-replay-v1";

void PersistCrash(const std::string& crash_dir, FuzzMode mode, uint64_t seed,
                  const std::vector<uint8_t>& encoded) {
  if (crash_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(crash_dir, ec);
  if (ec) {
    std::cerr << "audit_fuzz: cannot create crash dir " << crash_dir << ": "
              << ec.message() << "\n";
    return;
  }
  const std::string path = crash_dir + "/crash-" + ModeName(mode) + "-" +
                           std::to_string(seed);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!encoded.empty()) {
    // Incremental repro: raw scenario bytes, corpus-compatible with the
    // fuzz_incremental harness.
    out.write(reinterpret_cast<const char*>(encoded.data()),
              static_cast<std::streamsize>(encoded.size()));
  } else {
    out << kReplayMagic << " mode=" << ModeName(mode) << " seed=" << seed
        << "\n";
  }
  std::cerr << "audit_fuzz: failing input persisted to " << path << "\n";
}

// Replays a persisted artifact: either a text stub naming a (mode, seed)
// pair, or raw incremental-scenario bytes (the format fuzz_incremental
// consumes). Returns the process exit code.
int ReplayArtifact(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    std::cerr << "audit_fuzz: cannot read replay file " << path << "\n";
    return 2;
  }
  const std::string bytes((std::istreambuf_iterator<char>(stream)),
                          std::istreambuf_iterator<char>());

  if (bytes.rfind(kReplayMagic, 0) == 0) {
    std::string mode_name;
    uint64_t seed = 0;
    const size_t mode_pos = bytes.find("mode=");
    const size_t seed_pos = bytes.find("seed=");
    if (mode_pos != std::string::npos && seed_pos != std::string::npos) {
      mode_name = bytes.substr(mode_pos + 5,
                               bytes.find(' ', mode_pos) - (mode_pos + 5));
      seed = std::strtoull(bytes.c_str() + seed_pos + 5, nullptr, 10);
    }
    for (size_t m = 0; m < 4; ++m) {
      if (mode_name == kModeNames[m]) {
        std::cout << "audit_fuzz: replaying mode=" << mode_name
                  << " seed=" << seed << "\n";
        RunMode(static_cast<FuzzMode>(m), seed);
        std::cout << "audit_fuzz replay: " << g_violations
                  << " violation(s)\n";
        return g_violations == 0 ? 0 : 1;
      }
    }
    std::cerr << "audit_fuzz: unrecognized mode in replay stub: " << bytes;
    return 2;
  }

  // Raw scenario bytes.
  fuzz::FuzzInput in(reinterpret_cast<const uint8_t*>(bytes.data()),
                     bytes.size());
  const fuzz::IncrementalScenario scenario =
      fuzz::DecodeIncrementalScenario(in);
  std::cout << "audit_fuzz: replaying incremental scenario ("
            << scenario.initial.size() << " initial, "
            << scenario.deltas.size() << " deltas)\n"
            << fuzz::DescribeIncrementalScenario(scenario);
  const std::string failure = fuzz::ReplayIncrementalScenario(scenario);
  if (failure.empty()) {
    std::cout << "audit_fuzz replay: 0 violation(s)\n";
    return 0;
  }
  std::cerr << "INCREMENTAL VIOLATION: " << failure << "\n";
  return 1;
}

}  // namespace
}  // namespace monoclass

int main(int argc, char** argv) {
  using namespace monoclass;  // tool binary, not library code
  const FuzzOptions options = ParseFlags(argc, argv);
  if (!options.replay.empty()) {
    return ReplayArtifact(options.replay);
  }

  WallTimer timer;
  uint64_t iter = 0;
  const auto keep_going = [&options, &timer, &iter] {
    return options.budget_seconds > 0.0
               ? timer.ElapsedSeconds() < options.budget_seconds
               : iter < options.iters;
  };
  const std::vector<FuzzMode> rotation =
      options.incremental
          ? std::vector<FuzzMode>{FuzzMode::kIncremental}
          : std::vector<FuzzMode>{FuzzMode::kPassive, FuzzMode::kChains,
                                  FuzzMode::kActive, FuzzMode::kIncremental};
  for (; keep_going(); ++iter) {
    const size_t before = g_violations;
    for (const FuzzMode mode : rotation) {
      const uint64_t seed = DeriveSeed(options.seed, iter, mode);
      const size_t mode_before = g_violations;
      const std::vector<uint8_t> encoded = RunMode(mode, seed);
      if (g_violations != mode_before) {
        std::cerr << "audit_fuzz: reproduce with --replay or: audit_fuzz "
                  << "--iters=1 --seed=" << options.seed << " (iter " << iter
                  << ", mode " << ModeName(mode) << ", derived seed " << seed
                  << ")\n";
        PersistCrash(options.crash_dir, mode, seed, encoded);
      }
    }
    if (options.verbose || g_violations != before) {
      std::cout << "iter " << iter << ": "
                << (g_violations == before ? "ok" : "VIOLATIONS") << "\n";
    }
  }

  std::cout << "audit_fuzz: " << iter << " iterations, "
            << g_violations << " violation(s)"
            << (MC_AUDIT_ENABLED ? " [MONOCLASS_AUDIT on]"
                                 : " [MONOCLASS_AUDIT off]")
            << "\n";
  return g_violations == 0 ? 0 : 1;
}
