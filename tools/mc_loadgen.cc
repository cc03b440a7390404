// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// mc_loadgen: load generator for monoclassd (docs/serving.md).
//
// Simulates many concurrent active-learning clients: session sizes are
// drawn from a Zipfian rank distribution (hot small instances, a heavy
// tail of large ones), each client answers the server's probe batches
// from a locally planted ground truth with a configurable think time,
// and every Nth session is independently re-solved locally and compared
// bit-for-bit against the server's result. Emits a schema-v3
// BENCH_SERVE[_CI].json through bench/bench_util.h with client-side
// mc.lat.srv_request / mc.lat.srv_session_step quantiles and the
// server's own mc.srv.* counters fetched over the Stats endpoint --
// the artifact the serve-smoke CI job validates and regression-gates.
//
// Determinism contract (--ci): session j draws everything from
// Rng(seed, j) streams, clients are closed-loop, think time is 0 and
// server TTL eviction is off, so every counter in the report is
// bit-identical across runs regardless of thread interleaving; only
// latency quantiles and timings vary (and those never gate).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "monoclass.h"
#include "tools/flag_parse.h"

namespace {

using monoclass::ActiveSolveOptions;
using monoclass::ActiveSolveResult;
using monoclass::GeneratePlanted;
using monoclass::InMemoryOracle;
using monoclass::tools::ParseFlagValue;

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t sessions = 100;
  size_t clients = 4;
  uint64_t seed = 1;
  size_t dimension = 2;
  // Session size = size_step * zipf_rank, rank in [1, zipf_ranks].
  size_t size_step = 16;
  size_t zipf_ranks = 10;
  double zipf_s = 1.2;
  int think_ms = 0;
  size_t verify_every = 0;       // 0 = never re-solve locally
  size_t passive_every = 0;      // 0 = no one-shot passive mix-in
  size_t partial_every = 8;      // every Nth session answers in halves
  bool shutdown_server = false;  // send kShutdown when done
  bool ci = false;
  std::string experiment_id = "SERVE";
};

// Zipfian rank sampler over [1, ranks]: P(r) proportional to r^-s.
// Inverse-CDF over precomputed cumulative weights; deterministic given
// the caller's Rng stream.
class ZipfSampler {
 public:
  ZipfSampler(size_t ranks, double s) : cumulative_(ranks) {
    double total = 0.0;
    for (size_t r = 1; r <= ranks; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), s);
      cumulative_[r - 1] = total;
    }
    for (double& c : cumulative_) c /= total;
  }

  size_t Sample(monoclass::Rng& rng) const {
    const double u = rng.UniformDouble();
    for (size_t i = 0; i < cumulative_.size(); ++i) {
      if (u <= cumulative_[i]) return i + 1;
    }
    return cumulative_.size();
  }

 private:
  std::vector<double> cumulative_;
};

struct WorkerTally {
  uint64_t sessions_completed = 0;
  uint64_t steps = 0;
  uint64_t probes_answered = 0;
  uint64_t protocol_errors = 0;
  uint64_t verify_failures = 0;
  uint64_t passive_solves = 0;
};

// Runs one complete session (job index j) against the server through
// `client`, answering probes from a planted ground truth.
void RunSessionJob(monoclass::net::Client& client, const LoadgenConfig& config,
                   size_t j, WorkerTally* tally) {
  monoclass::Rng rng(config.seed, static_cast<uint64_t>(j));
  const ZipfSampler sampler(config.zipf_ranks, config.zipf_s);
  const size_t rank = sampler.Sample(rng);
  const size_t n = config.size_step * rank;

  monoclass::PlantedOptions planted_options;
  planted_options.num_points = n;
  planted_options.dimension = config.dimension;
  planted_options.noise_flips = n / 10;
  planted_options.seed = config.seed * 1000003 + j;
  const monoclass::PlantedInstance instance = GeneratePlanted(planted_options);
  const uint64_t session_seed = config.seed + j;

  monoclass::net::SessionOpenRequest open;
  open.points = instance.data.points();
  open.seed = session_seed;
  open.epsilon = 0.5;
  open.delta = 0.01;

  monoclass::net::Client::SessionState state;
  {
    MC_LATENCY("mc.lat.srv_request");
    state = client.OpenSession(open);
  }
  const bool partial =
      config.partial_every > 0 && j % config.partial_every == 0;

  size_t step_in_session = 0;
  while (!state.done) {
    if (config.think_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(config.think_ms));
    }
    std::vector<uint64_t> indices = state.probe_indices;
    // The partial-answer path answers the first half of every other
    // batch only; the server must re-issue the remainder (the resume
    // seam). Keyed on the step index *within this session* so the
    // exercise is deterministic per job, not per worker schedule.
    if (partial && indices.size() > 1 && step_in_session % 2 == 0) {
      indices.resize(indices.size() / 2);
    }
    ++step_in_session;
    std::vector<uint8_t> labels(indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      labels[i] = instance.data.label(static_cast<size_t>(indices[i]));
    }
    tally->probes_answered += labels.size();
    ++tally->steps;
    MC_LATENCY("mc.lat.srv_request");
    MC_LATENCY("mc.lat.srv_session_step");
    state = client.StepSession(state.session_id, indices, labels);
  }
  ++tally->sessions_completed;

  if (config.verify_every > 0 && j % config.verify_every == 0) {
    // Independent local reference: the served result must be bit-for-bit
    // the uninterrupted solve.
    InMemoryOracle oracle(instance.data);
    ActiveSolveOptions reference_options;
    reference_options.sampling =
        monoclass::ActiveSamplingParams::Practical(0.5, 0.01);
    reference_options.seed = session_seed;
    reference_options.parallel.threads = 1;
    const ActiveSolveResult reference =
        monoclass::SolveActiveMultiD(instance.data.points(), oracle,
                                     reference_options);
    const bool generators_match =
        reference.classifier.generators() ==
        state.result.classifier.generators();
    if (!generators_match || reference.probes != state.result.probes) {
      ++tally->verify_failures;
    }
  }

  if (config.passive_every > 0 && j % config.passive_every == 0) {
    monoclass::net::PassiveSolveRequest request;
    request.points = instance.data.points();
    request.labels = instance.data.labels();
    MC_LATENCY("mc.lat.srv_request");
    const monoclass::net::PassiveSolveResult solved =
        client.PassiveSolve(request);
    ++tally->passive_solves;
    // Sanity: optimal error can never exceed the planted noise.
    if (solved.optimal_weighted_error >
        static_cast<double>(planted_options.noise_flips) + 1e-9) {
      ++tally->protocol_errors;
    }
  }
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port P [options]\n"
      "  --host H            server address (default 127.0.0.1)\n"
      "  --port P            server port (required)\n"
      "  --ci                seeded CI preset (520 sessions, 8 clients,\n"
      "                      verification on, BENCH_SERVE_CI.json)\n"
      "  --sessions N        total sessions (default 100)\n"
      "  --clients N         concurrent client connections (default 4)\n"
      "  --seed S            base seed (default 1)\n"
      "  --think-ms N        per-step think time (default 0)\n"
      "  --zipf-s S          Zipf exponent for session sizes (default 1.2)\n"
      "  --zipf-ranks N      Zipf rank count (default 10)\n"
      "  --size-step N       points per Zipf rank (default 16)\n"
      "  --verify-every N    re-solve every Nth session locally (0 = off)\n"
      "  --passive-every N   one-shot passive solve every Nth job (0 = off)\n"
      "  --shutdown          send a shutdown frame when done\n"
      "  --experiment-id ID  report id (BENCH_<ID>.json; default SERVE)\n"
      "  --telemetry-dump PATH / --telemetry-interval-ms N\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  argc = monoclass::bench::ParseBenchArgs(argc, argv);
  LoadgenConfig config;
  bool have_port = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mc_loadgen: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict numeric values (tools/flag_parse.h); the lower bounds keep
    // out port 0 and the zeros that would leave a run with no clients or
    // no points.
    auto number = [&]<typename T>(const char* flag, T lo) -> T {
      return ParseFlagValue<T>("mc_loadgen", flag, next(flag), lo);
    };
    if (arg == "--host") {
      config.host = next("--host");
    } else if (arg == "--port") {
      config.port = number("--port", uint16_t{1});
      have_port = true;
    } else if (arg == "--ci") {
      config.ci = true;
    } else if (arg == "--sessions") {
      config.sessions = number("--sessions", size_t{0});
    } else if (arg == "--clients") {
      config.clients = number("--clients", size_t{1});
    } else if (arg == "--seed") {
      config.seed = number("--seed", uint64_t{0});
    } else if (arg == "--think-ms") {
      config.think_ms = number("--think-ms", 0);
    } else if (arg == "--zipf-s") {
      config.zipf_s = number("--zipf-s", 0.0);
    } else if (arg == "--zipf-ranks") {
      config.zipf_ranks = number("--zipf-ranks", size_t{1});
    } else if (arg == "--size-step") {
      config.size_step = number("--size-step", size_t{1});
    } else if (arg == "--verify-every") {
      config.verify_every = number("--verify-every", size_t{0});
    } else if (arg == "--passive-every") {
      config.passive_every = number("--passive-every", size_t{0});
    } else if (arg == "--shutdown") {
      config.shutdown_server = true;
    } else if (arg == "--experiment-id") {
      config.experiment_id = next("--experiment-id");
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "mc_loadgen: unknown flag %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (config.ci) {
    config.sessions = 520;
    config.clients = 8;
    config.seed = 2026;
    config.think_ms = 0;
    config.verify_every = 16;
    config.passive_every = 10;
    config.experiment_id = "SERVE_CI";
  }
  if (!have_port) {
    std::fprintf(stderr, "mc_loadgen: --port is required\n");
    Usage(argv[0]);
    return 2;
  }

  monoclass::obs::SetEnabled(true);
  monoclass::bench::BenchReport::Global().Begin(
      config.experiment_id, "monoclassd serve benchmark",
      "concurrent active sessions over the framed wire protocol complete "
      "with zero protocol errors and served results bit-identical to "
      "local solves");
  monoclass::bench::BenchReport::Global().SetThreads(config.clients);
  monoclass::bench::BenchReport::Global().AddParam(
      "sessions", std::to_string(config.sessions));
  monoclass::bench::BenchReport::Global().AddParam(
      "clients", std::to_string(config.clients));
  monoclass::bench::BenchReport::Global().AddParam(
      "seed", std::to_string(config.seed));
  monoclass::bench::BenchReport::Global().AddParam(
      "zipf_s", std::to_string(config.zipf_s));
  monoclass::bench::BenchReport::Global().AddParam(
      "think_ms", std::to_string(config.think_ms));
  monoclass::bench::BenchReport::Global().BeginPhase("serve");

  // Closed-loop workers: a shared atomic cursor hands out session jobs.
  monoclass::mc::atomic<uint64_t> next_job{0};
  std::vector<WorkerTally> tallies(config.clients);
  std::vector<monoclass::mc::thread> workers;
  workers.reserve(config.clients);
  bool connect_failed = false;
  monoclass::Mutex connect_mu;

  for (size_t w = 0; w < config.clients; ++w) {
    workers.emplace_back([&, w] {
      monoclass::net::Client client;
      if (!client.Connect(config.host, config.port)) {
        monoclass::MutexLock lock(connect_mu);
        connect_failed = true;
        return;
      }
      WorkerTally& tally = tallies[w];
      while (true) {
        const uint64_t j = next_job.fetch_add(1);
        if (j >= config.sessions) break;
        try {
          RunSessionJob(client, config, static_cast<size_t>(j), &tally);
        } catch (const monoclass::net::WireError& error) {
          ++tally.protocol_errors;
          std::fprintf(stderr, "mc_loadgen: session %llu: %s\n",
                       static_cast<unsigned long long>(j), error.what());
          if (!client.connected() ||
              !client.Connect(config.host, config.port)) {
            break;
          }
        }
      }
    });
  }
  for (monoclass::mc::thread& worker : workers) worker.join();

  WorkerTally total;
  for (const WorkerTally& tally : tallies) {
    total.sessions_completed += tally.sessions_completed;
    total.steps += tally.steps;
    total.probes_answered += tally.probes_answered;
    total.protocol_errors += tally.protocol_errors;
    total.verify_failures += tally.verify_failures;
    total.passive_solves += tally.passive_solves;
  }
  MC_COUNTER("mc.ldg.sessions_completed", total.sessions_completed);
  MC_COUNTER("mc.ldg.steps", total.steps);
  MC_COUNTER("mc.ldg.probes_answered", total.probes_answered);
  MC_COUNTER("mc.ldg.protocol_errors", total.protocol_errors);
  MC_COUNTER("mc.ldg.verify_failures", total.verify_failures);
  MC_COUNTER("mc.ldg.passive_solves", total.passive_solves);

  // Pull the server's own counters into this report so BENCH_SERVE
  // carries both sides of the wire. Latency quantiles stay client-side.
  uint64_t unreachable = connect_failed ? 1 : 0;
  try {
    monoclass::net::Client stats_client;
    if (!stats_client.Connect(config.host, config.port)) {
      unreachable = 1;
    } else {
      const monoclass::net::StatsResponse stats = stats_client.FetchStats();
      for (const auto& [name, value] : stats.counters) {
        if (name.rfind("mc.srv.", 0) == 0) {
          monoclass::obs::MetricsRegistry::Global()
              .GetCounter(name)
              ->Add(value);
        }
      }
      if (config.shutdown_server) stats_client.Shutdown();
    }
  } catch (const monoclass::net::WireError& error) {
    std::fprintf(stderr, "mc_loadgen: stats fetch: %s\n", error.what());
    ++total.protocol_errors;
  }

  monoclass::bench::BenchReport::Global().Finish();

  std::printf(
      "mc_loadgen: %llu/%llu sessions, %llu steps, %llu probes answered, "
      "%llu passive solves, %llu protocol errors, %llu verify failures\n",
      static_cast<unsigned long long>(total.sessions_completed),
      static_cast<unsigned long long>(config.sessions),
      static_cast<unsigned long long>(total.steps),
      static_cast<unsigned long long>(total.probes_answered),
      static_cast<unsigned long long>(total.passive_solves),
      static_cast<unsigned long long>(total.protocol_errors),
      static_cast<unsigned long long>(total.verify_failures));

  if (unreachable || total.protocol_errors > 0 || total.verify_failures > 0 ||
      total.sessions_completed < config.sessions) {
    return 1;
  }
  return 0;
}
