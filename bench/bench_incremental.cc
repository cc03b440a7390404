// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Experiment INC: incremental warm-start passive solving
// (passive/incremental_solver.h). The claim under test: on a serving-
// shaped workload -- a large planted instance followed by a stream of
// random inserts, erases and label corrections -- the delta-repair
// pipeline sustains an update rate at least 10x the throughput of
// re-running the cold solver per delta, while every audited checkpoint
// stays bit-identical to a cold solve of the current snapshot
// (AuditIncrementalCut).
//
// Usage: bench_incremental [--ci]
//   --ci scales down (n ~ 20k, ~2k deltas) and reports as INC_CI; the
//   full run (n = 100k, 10k deltas) reports as INC. The mc.inc.* phase
//   counters in BENCH_INC*.json are deterministic for a fixed seed at
//   any thread count, so they gate exactly under mc_report --compare.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/synthetic.h"
#include "passive/flow_solver.h"
#include "passive/incremental_solver.h"
#include "util/random.h"
#include "util/timer.h"

namespace monoclass {
namespace {

Point RandomUnitPoint(Rng& rng, size_t d) {
  std::vector<double> coords(d);
  for (auto& c : coords) c = rng.UniformDouble();
  return Point(std::move(coords));
}

// Returns false when a span was still open as the trace was written.
bool Run(bool ci) {
  const std::string id = ci ? "INC_CI" : "INC";
  const size_t n = ci ? 20000 : 100000;
  const size_t num_deltas = ci ? 2000 : 10000;
  const size_t num_audits = ci ? 3 : 5;
  const size_t d = 2;
  const uint64_t seed = 20260808;

  bench::PrintHeader(
      id, "incremental warm-start solving",
      "delta repair sustains >= 10x the cold-rerun update throughput with "
      "every audited checkpoint bit-identical to a cold solve");
  bench::BenchReport::Global().AddParam("n", std::to_string(n));
  bench::BenchReport::Global().AddParam("deltas", std::to_string(num_deltas));
  bench::BenchReport::Global().AddParam("seed", std::to_string(seed));

  PlantedOptions planted;
  planted.num_points = n;
  planted.dimension = d;
  planted.noise_flips = n / 100;
  planted.seed = seed;
  const PlantedInstance instance = GeneratePlanted(planted);
  Rng rng(seed + 1);

  bench::PrintSection("bulk load (one cold solve at n)");
  // Every span ends before Finish() writes the trace: the optional lets
  // the load span close while the solver it timed lives on.
  std::optional<obs::SpanTimer> load_timer(std::in_place, "bench/bulk_load");
  IncrementalPassiveSolver solver(
      WeightedPointSet::UnitWeights(instance.data));
  const PassiveSolveResult& loaded = solver.Solve();
  const double load_seconds = load_timer->ElapsedMillis() * 1e-3;
  load_timer.reset();
  {
    TextTable table({"n", "contending", "chains", "relays", "k*", "load-s"});
    table.AddRowValues(
        n, loaded.num_contending, loaded.network_chains,
        loaded.network_relays,
        static_cast<size_t>(loaded.optimal_weighted_error + 0.5),
        FormatDouble(load_seconds, 3));
    bench::PrintTable(table);
  }

  bench::PrintSection("cold rerun throughput (the baseline a re-solving "
                      "server would pay per delta)");
  double cold_seconds = 0.0;
  {
    const WeightedPointSet snapshot = solver.Snapshot();
    obs::SpanTimer timer("bench/cold_solve");
    const PassiveSolveResult cold = SolvePassiveWeighted(snapshot);
    cold_seconds = timer.ElapsedMillis() * 1e-3;
    TextTable table({"cold-solve-s", "cold-solves/s", "k*"});
    table.AddRowValues(
        FormatDouble(cold_seconds, 3), FormatDouble(1.0 / cold_seconds, 4),
        static_cast<size_t>(cold.optimal_weighted_error + 0.5));
    bench::PrintTable(table);
  }

  bench::PrintSection("sustained delta stream (insert 40% / erase 30% / "
                      "relabel 30%, solution extracted every n/10 deltas)");
  // Bench-side live-id bookkeeping keeps target selection O(1) so the
  // timer measures the solver, not the harness.
  std::vector<size_t> live;
  live.reserve(n + num_deltas);
  for (size_t id_ = 0; id_ < n; ++id_) live.push_back(id_);
  const size_t extract_every = std::max<size_t>(1, num_deltas / 10);
  double stream_seconds = 0.0;
  // The extractions (Solve(): the cut, the classifier and its checks) are
  // timed apart from the delta repairs they interleave with.
  double extract_seconds = 0.0;
  size_t extractions = 0;
  {
    obs::SpanTimer stream_timer("bench/delta_stream");
    for (size_t i = 0; i < num_deltas; ++i) {
      const uint64_t op = rng.UniformInt(10);
      if (op < 4 || live.empty()) {
        const Point point = RandomUnitPoint(rng, d);
        // Planted label with the instance's noise rate, so the contending
        // set stays serving-shaped instead of exploding.
        Label label = instance.planted.Classify(point) ? 1 : 0;
        if (rng.Bernoulli(0.01)) label = 1 - label;
        live.push_back(solver.Insert(point, label));
      } else if (op < 7) {
        const size_t slot = rng.UniformInt(live.size());
        solver.Erase(live[slot]);
        live[slot] = live.back();
        live.pop_back();
      } else {
        const size_t slot = rng.UniformInt(live.size());
        solver.Relabel(live[slot], rng.Bernoulli(0.5) ? 1 : 0);
      }
      if ((i + 1) % extract_every == 0) {
        const WallTimer extract_timer;
        solver.Solve();
        extract_seconds += extract_timer.ElapsedSeconds();
        ++extractions;
      }
    }
    stream_seconds = stream_timer.ElapsedMillis() * 1e-3;
  }
  // Delta throughput without the extractions, and the sustained rate
  // with them; the 10x bar applies to the sustained rate.
  const double delta_seconds = stream_seconds - extract_seconds;
  const double deltas_per_sec =
      static_cast<double>(num_deltas) / delta_seconds;
  const double updates_per_sec =
      static_cast<double>(num_deltas) / stream_seconds;
  const double cold_per_sec = 1.0 / cold_seconds;
  const double speedup = updates_per_sec / cold_per_sec;
  {
    TextTable table({"deltas", "delta-s", "deltas/s", "extracts",
                     "extract-ms", "stream-s", "updates/s", "cold-solves/s",
                     "delta-speedup", "speedup", ">=10x"});
    table.AddRowValues(
        num_deltas, FormatDouble(delta_seconds, 4),
        FormatDouble(deltas_per_sec, 5), extractions,
        FormatDouble(extractions == 0
                         ? 0.0
                         : extract_seconds * 1e3 /
                               static_cast<double>(extractions),
                     4),
        FormatDouble(stream_seconds, 4), FormatDouble(updates_per_sec, 5),
        FormatDouble(cold_per_sec, 4),
        FormatDouble(deltas_per_sec / cold_per_sec, 4),
        FormatDouble(speedup, 4), speedup >= 10.0 ? "yes" : "NO");
    bench::PrintTable(table);
    if (speedup < 10.0) {
      std::cerr << "bench_incremental: sustained speedup " << speedup
                << "x is below the 10x acceptance bar\n";
    }
  }

  bench::PrintSection("audited checkpoints (AuditIncrementalCut: repaired "
                      "cut + classifier vs cold solve, bit for bit)");
  {
    TextTable table({"checkpoint", "live", "contending", "audit"});
    size_t failures = 0;
    for (size_t checkpoint = 0; checkpoint < num_audits; ++checkpoint) {
      // A short burst of further deltas between audits.
      for (size_t i = 0; i < 20; ++i) {
        const uint64_t op = rng.UniformInt(10);
        if (op < 4 || live.empty()) {
          live.push_back(
              solver.Insert(RandomUnitPoint(rng, d),
                            rng.Bernoulli(0.5) ? 1 : 0));
        } else if (op < 7) {
          const size_t slot = rng.UniformInt(live.size());
          solver.Erase(live[slot]);
          live[slot] = live.back();
          live.pop_back();
        } else {
          solver.Relabel(live[rng.UniformInt(live.size())],
                         rng.Bernoulli(0.5) ? 1 : 0);
        }
      }
      const AuditResult audit = solver.AuditIncrementalCut();
      if (!audit.ok) {
        ++failures;
        std::cerr << "AUDIT FAILURE at checkpoint " << checkpoint << ": "
                  << audit.failure << "\n";
      }
      table.AddRowValues(checkpoint, solver.LiveSize(),
                         solver.NumContending(),
                         audit.ok ? "ok" : "FAIL");
    }
    bench::PrintTable(table);
    if (failures > 0) {
      std::cerr << "bench_incremental: " << failures
                << " audited checkpoint(s) diverged from the cold solve\n";
      std::exit(1);
    }
  }

  const IncrementalStats& stats = solver.stats();
  bench::PrintSection("pipeline stats");
  {
    TextTable table({"deltas", "enter-con", "leave-con", "drained-paths",
                     "retargets", "augments", "rebuilds"});
    table.AddRowValues(stats.deltas, stats.enter_contending,
                       stats.leave_contending, stats.drained_paths,
                       stats.retarget_edges, stats.augment_calls,
                       stats.rebuilds);
    bench::PrintTable(table);
  }
  return bench::BenchReport::Global().Finish();
}

}  // namespace
}  // namespace monoclass

int main(int argc, char** argv) {
  argc = monoclass::bench::ParseBenchArgs(argc, argv);
  bool ci = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0) {
      ci = true;
    } else {
      std::cerr << "usage: bench_incremental [--ci] [--telemetry-dump "
                   "<path>]\n";
      return 2;
    }
  }
  return monoclass::Run(ci) ? 0 : 1;
}
