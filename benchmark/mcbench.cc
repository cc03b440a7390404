// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// mcbench: the benchmark program. Runs one workload for a fixed window
// and prints its metrics, ending with one JSON line (see README.md).
//
//   mcbench --workload passive_cold --seed 1 --seconds 30 --trace 0
//           --out-dir .bench_build/out
//
// benchmark/run.sh builds this binary and is the normal entry point.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: mcbench --workload NAME [--seed N] [--seconds S]\n"
               "               [--trace 0|1] [--out-dir DIR]\n"
               "workloads: passive_cold active_solve incremental_stream "
               "serve\n");
}

}  // namespace

int main(int argc, char** argv) {
  mcbench::RunConfig config;
  config.out_dir = ".";
  config.daemon_path = MCBENCH_DAEMON_PATH;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      config.traced = value == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (config.seconds <= 0.0) {
    Usage();
    return 2;
  }

  void (*run)(const mcbench::RunConfig&, mcbench::Report&) = nullptr;
  if (config.workload == "passive_cold") {
    run = mcbench::RunPassiveCold;
  } else if (config.workload == "active_solve") {
    run = mcbench::RunActiveSolve;
  } else if (config.workload == "incremental_stream") {
    run = mcbench::RunIncrementalStream;
  } else if (config.workload == "serve") {
    run = mcbench::RunServe;
  } else {
    Usage();
    return 2;
  }

  // The traced run is the only one with obs and span recording on; its
  // end-to-end numbers are never reported.
  monoclass::obs::SetEnabled(config.traced);
  mcbench::SetTracing(config.traced);
  // The whole run, the serve daemon included, shares one CPU
  // (README.md, "Steadiness").
  const int cpu = mcbench::PinToOneCpu();

  std::printf("mcbench: workload=%s seed=%llu seconds=%g traced=%d "
              "solver_threads=%zu cpu=%d nproc=%u build=%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.traced ? 1 : 0, mcbench::kSolverThreads, cpu,
              std::thread::hardware_concurrency(),
              monoclass::obs::BuildType().c_str());
  mcbench::Report report(config.traced);
  const double calib_before = mcbench::CalibrationMs();
  const mcbench::CpuTicks ticks_before = mcbench::ReadCpuTicks();
  run(config, report);
  const mcbench::CpuTicks ticks_after = mcbench::ReadCpuTicks();
  const double calib_after = mcbench::CalibrationMs();

  const double drift_pct =
      100.0 * std::abs(calib_after - calib_before) / calib_before;
  const uint64_t ticks = ticks_after.total - ticks_before.total;
  const double steal_pct =
      ticks == 0 ? 0.0
                 : 100.0 * static_cast<double>(ticks_after.steal -
                                               ticks_before.steal) /
                       static_cast<double>(ticks);
  report.Set("env.calib_ms", (calib_before + calib_after) / 2.0);
  report.Set("env.calib_drift_pct", drift_pct);
  std::printf("env: calibration %.2f ms before, %.2f ms after (%.1f%%), "
              "%.1f%% of CPU time stolen by the host%s\n",
              calib_before, calib_after, drift_pct, steal_pct,
              drift_pct > mcbench::kNoisyDriftPct ? " -- NOISY HOST" : "");

  if (config.traced) {
    const std::string path =
        config.out_dir + "/TRACE_" + config.workload + ".json";
    report.Gate(mcbench::WriteChromeTrace(path), "cannot write " + path);
    std::printf("trace: %s\n", path.c_str());
  }
  return report.Print();
}
