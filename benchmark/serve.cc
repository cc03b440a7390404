// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// serve: monoclassd on loopback, driven from this process by one client
// thread per connection. Each job is a resumable active session (d = 2,
// 10 % noise, Zipf-sized); every kPartialEvery-th answers half of
// alternate batches and every kPassiveEvery-th also sends a one-shot
// passive solve. After an untimed warm-up come two phases:
//
//   capacity -- closed loop, zero think time, for the whole window of an
//               untraced run: sessions completed per second is the
//               throughput metric and every round-trip a unit operation;
//   open     -- traced runs only, the second half of the window: Poisson
//               session arrivals at the frozen kOpenRate, drawn from the
//               seed; client threads claim arrivals in order, so there is
//               no dispatcher thread. Its latencies are per-layer metrics.
//
// Only this workload exercises net (frames, codecs, sessions and their
// replays) and the server's handler pool. Client-side numbers are named
// serve.* and net.*; the daemon's own enter only as srv.*.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"

namespace mcbench {
namespace {

using monoclass::net::Client;
using monoclass::net::WireError;

constexpr size_t kZipfRanks = 10;
constexpr double kZipfS = 1.2;
constexpr size_t kPointsPerRank = 32;
constexpr double kEpsilon = 0.5;
constexpr double kDelta = 0.01;
constexpr uint64_t kPartialEvery = 8;
constexpr uint64_t kPassiveEvery = 10;
constexpr uint64_t kVerifyEvery = 16;
// Client connections, each driven by its own thread, and the daemon's
// handler threads. The run has one CPU (PinToOneCpu); with one request
// in flight its client, reader and handler threads hand the CPU to each
// other and never wait for it (README.md, "Steadiness").
constexpr size_t kConnections = 1;
constexpr int kDaemonThreads = 1;
// Daemon starts timed for setup_s, in batches whose mean time is one
// sample: a start takes about 3 ms, about as long as one of the host's
// fast or slow states lasts (README.md, "Steadiness").
constexpr int kSetups = 25;
constexpr double kBatchSetups = 5;
constexpr double kWarmupSeconds = 2.0;
// Sessions per capacity batch.
constexpr double kBatchSessions = 25;
// Share of a traced run's window in the closed loop; the open loop
// gets the rest.
constexpr double kTracedClosedShare = 0.5;
constexpr double kOverheadSeconds = 2.0;
// Open-loop arrival rate in sessions/s, frozen: never derived from a
// run, so every commit faces the same offered load. It is a third to a
// half of the one connection's capacity, which moved between 55 and 90
// sessions/s with the host when the benchmark was defined (README.md);
// nearer capacity, a 15 % slower host doubled the request p50.
constexpr double kOpenRate = 25.0;
constexpr const char* kHost = "127.0.0.1";
// Job index spaces of the phases; open-phase arrival k is job k.
constexpr uint64_t kCapacityJobs = uint64_t{1} << 32;
constexpr uint64_t kWarmupJobs = uint64_t{2} << 32;
constexpr uint64_t kOverheadJobs = uint64_t{3} << 32;
constexpr uint64_t kArrivalStream = uint64_t{4} << 32;

// One session job: its points, labels and session seed are drawn from
// (seed, job index).
struct Job {
  LabeledPointSet data;
  uint64_t session_seed = 0;
  bool partial = false;
  bool passive = false;
  bool verify = false;
};

Job MakeJob(uint64_t seed, uint64_t j) {
  Rng rng(seed, j);
  double weights[kZipfRanks];
  double total = 0.0;
  for (size_t r = 0; r < kZipfRanks; ++r) {
    weights[r] = std::pow(static_cast<double>(r + 1), -kZipfS);
    total += weights[r];
  }
  // The size rank comes from a golden-ratio sequence in j, not from the
  // seed: every stretch of jobs then holds the Zipf mix almost exactly,
  // so seeds differ in content but not in how many large sessions they
  // draw (random draws moved the request p50 by a third between seeds).
  constexpr double kGolden = 0.6180339887498949;
  double u = std::fmod(static_cast<double>(j % (uint64_t{1} << 32)) * kGolden,
                       1.0) *
             total;
  size_t rank = kZipfRanks;
  for (size_t r = 0; r < kZipfRanks; ++r) {
    u -= weights[r];
    if (u <= 0.0) {
      rank = r + 1;
      break;
    }
  }
  const size_t n = kPointsPerRank * rank;
  Job job;
  job.data = PlantedInstance2D(n, n / 10, rng.Next());
  job.session_seed = rng.Next();
  job.partial = j % kPartialEvery == 0;
  job.passive = j % kPassiveEvery == 0;
  job.verify = j % kVerifyEvery == 0;
  return job;
}

monoclass::net::SessionOpenRequest OpenRequest(const Job& job) {
  monoclass::net::SessionOpenRequest open;
  open.points = job.data.points();
  open.seed = job.session_seed;
  open.epsilon = kEpsilon;
  open.delta = kDelta;
  return open;
}

struct StepAnswers {
  std::vector<uint64_t> indices;
  std::vector<uint8_t> labels;
};

struct ServedSession {
  uint64_t job = 0;
  monoclass::net::SessionResultMessage result;
  std::vector<StepAnswers> script;  // verify jobs only
};

// What one client thread saw in one phase.
struct Tally {
  Samples request_ms, open_ms, step_ms, passive_ms;
  Samples session_ms, conn_wait_ms, gen_late_ms;
  uint64_t requests = 0;
  uint64_t failed = 0;
  std::vector<ServedSession> served;
};

// monoclassd as a child process on an ephemeral loopback port.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns the daemon and returns once it answers a ping.
  bool Start(const RunConfig& config, const std::string& telemetry_path) {
    port_file_ = config.out_dir + "/monoclassd.port";
    std::remove(port_file_.c_str());
    std::vector<std::string> args = {
        config.daemon_path,  "--host",         kHost,
        "--port",            "0",              "--port-file",
        port_file_,          "--threads",      std::to_string(kDaemonThreads),
        "--session-ttl-ms",  "0"};
    if (!telemetry_path.empty()) {
      args.insert(args.end(), {"--telemetry-dump", telemetry_path,
                               "--telemetry-interval-ms", "1000"});
    }
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const std::string log = config.out_dir + "/monoclassd.log";
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ == 0) {
      // The daemon dies with this process, even if mcbench is killed
      // or aborts before Stop().
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      execv(argv[0], argv.data());
      _exit(127);
    }
    if (pid_ < 0) return false;
    const WallTimer timer;
    while (timer.ElapsedSeconds() < 10.0) {
      std::ifstream in(port_file_);
      std::string line;
      if (std::getline(in, line) && in.good() && !line.empty()) {
        port_ = static_cast<uint16_t>(std::stoi(line));
        try {
          Client client;
          return client.Connect(kHost, port_) && client.Ping(1) == 1;
        } catch (const WireError&) {
          return false;
        }
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  // Asks the daemon to exit over the wire and waits for it; kills it if
  // it has not exited after a grace period.
  void Stop() {
    if (pid_ < 0) return;
    try {
      Client client;
      if (client.Connect(kHost, port_)) client.Shutdown();
    } catch (const WireError&) {
      // Reaped below either way.
    }
    const WallTimer timer;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (timer.ElapsedSeconds() > 10.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  std::string port_file_;
};

// Runs job `j` to completion on `client`, adding each round-trip time to
// the tally. A failed request abandons the session, counts as failed and
// as a request that missed every latency limit (it is recorded as lasting
// `failed_ms`), and reconnects.
bool RunSession(Client& client, uint16_t port, const Job& job, uint64_t j,
                Tally& tally, double failed_ms) {
  Span session("serve.session", j);
  ServedSession served;
  served.job = j;
  auto request = [&](const char* name, Samples& by_type, auto&& call) {
    Span span(name, j);
    ++tally.requests;
    try {
      call();
    } catch (const WireError& error) {
      ++tally.failed;
      std::fprintf(stderr, "serve: job %llu: %s\n",
                   static_cast<unsigned long long>(j), error.what());
      tally.request_ms.Add(failed_ms);
      client.Disconnect();
      client.Connect(kHost, port);
      return false;
    }
    const double ms = span.Stop() * 1e3;
    tally.request_ms.Add(ms);
    by_type.Add(ms);
    return true;
  };

  Client::SessionState state;
  const monoclass::net::SessionOpenRequest open = OpenRequest(job);
  if (!request("serve.open", tally.open_ms,
               [&] { state = client.OpenSession(open); })) {
    return false;
  }
  for (size_t step = 0; !state.done; ++step) {
    StepAnswers answers;
    answers.indices = state.probe_indices;
    // Partial jobs answer the first half of alternate batches; the
    // server re-issues the rest (the resume path).
    if (job.partial && answers.indices.size() > 1 && step % 2 == 0) {
      answers.indices.resize(answers.indices.size() / 2);
    }
    for (const uint64_t index : answers.indices) {
      answers.labels.push_back(job.data.label(static_cast<size_t>(index)));
    }
    if (!request("serve.step", tally.step_ms, [&] {
          state = client.StepSession(state.session_id, answers.indices,
                                     answers.labels);
        })) {
      return false;
    }
    if (job.verify) served.script.push_back(std::move(answers));
  }
  served.result = std::move(state.result);
  if (job.passive) {
    monoclass::net::PassiveSolveRequest solve;
    solve.points = job.data.points();
    solve.labels = job.data.labels();
    if (!request("serve.passive", tally.passive_ms,
                 [&] { client.PassiveSolve(solve); })) {
      return false;
    }
  }
  tally.served.push_back(std::move(served));
  return true;
}

// Copies `from`'s samples and counts into `into`, and moves its served
// sessions there.
void Absorb(Tally& from, Tally& into) {
  into.request_ms.Append(from.request_ms);
  into.open_ms.Append(from.open_ms);
  into.step_ms.Append(from.step_ms);
  into.passive_ms.Append(from.passive_ms);
  into.session_ms.Append(from.session_ms);
  into.conn_wait_ms.Append(from.conn_wait_ms);
  into.gen_late_ms.Append(from.gen_late_ms);
  into.requests += from.requests;
  into.failed += from.failed;
  for (ServedSession& served : from.served) {
    into.served.push_back(std::move(served));
  }
  from.served.clear();
}

// Closed loop: every client runs sessions back to back until `seconds`
// have passed. Returns sessions completed per second, the median over
// batches of kBatchSessions consecutive completions.
double ClosedLoop(std::vector<Client>& clients, uint16_t port,
                  const RunConfig& config, uint64_t job_base, double seconds,
                  std::vector<Tally>& tallies) {
  const double failed_ms = seconds * 1e3;
  monoclass::mc::atomic<uint64_t> next{0};
  std::vector<std::vector<double>> completions(clients.size());
  const WallTimer clock;
  std::vector<monoclass::mc::thread> workers;
  for (size_t w = 0; w < clients.size(); ++w) {
    workers.emplace_back([&, w] {
      while (clock.ElapsedSeconds() < seconds) {
        const uint64_t j = job_base + next.fetch_add(1);
        const Job job = MakeJob(config.seed, j);
        if (RunSession(clients[w], port, job, j, tallies[w], failed_ms)) {
          completions[w].push_back(clock.ElapsedSeconds());
        }
      }
    });
  }
  for (monoclass::mc::thread& worker : workers) worker.join();
  std::vector<double> times;
  for (const std::vector<double>& own : completions) {
    times.insert(times.end(), own.begin(), own.end());
  }
  std::sort(times.begin(), times.end());
  BatchRate rate(kBatchSessions);
  double previous = 0.0;
  for (const double t : times) {
    rate.Add(1.0, t - previous);
    previous = t;
  }
  return rate.Median();
}

// Open loop over arrivals precomputed from the seed.
void OpenLoop(std::vector<Client>& clients, uint16_t port,
              const RunConfig& config, double seconds,
              std::vector<Tally>& tallies) {
  std::vector<double> due;
  Rng rng(config.seed, kArrivalStream);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / kOpenRate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  const double failed_ms = seconds * 1e3;
  monoclass::mc::atomic<size_t> next{0};
  const WallTimer clock;
  std::vector<monoclass::mc::thread> workers;
  for (size_t w = 0; w < clients.size(); ++w) {
    workers.emplace_back([&, w] {
      Tally& tally = tallies[w];
      for (size_t k = next.fetch_add(1); k < due.size();
           k = next.fetch_add(1)) {
        const Job job = MakeJob(config.seed, k);
        const double claimed = clock.ElapsedSeconds();
        if (claimed < due[k]) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(due[k] - claimed));
          tally.gen_late_ms.Add((clock.ElapsedSeconds() - due[k]) * 1e3);
          tally.conn_wait_ms.Add(0.0);
        } else {
          tally.conn_wait_ms.Add((claimed - due[k]) * 1e3);
        }
        if (RunSession(clients[w], port, job, k, tally, failed_ms)) {
          tally.session_ms.Add((clock.ElapsedSeconds() - due[k]) * 1e3);
        }
      }
    });
  }
  for (monoclass::mc::thread& worker : workers) worker.join();
}

// `name value` lines of the daemon's final telemetry exposition.
std::map<std::string, double> ReadExposition(const std::string& path) {
  std::map<std::string, double> values;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return values;
}

double Quantile(const std::map<std::string, double>& exposition,
                const std::string& metric, const char* q) {
  const auto it = exposition.find(metric + "{quantile=\"" + q + "\"}");
  return it == exposition.end() ? 0.0 : it->second;
}

// Encodes and decodes one message through its codec and a frame.
template <typename Message>
double CodecMicros(const Message& message, monoclass::net::MessageType type) {
  const WallTimer timer;
  monoclass::net::WireStream out;
  message.Serialize(out);
  monoclass::net::Frame frame;
  frame.type = static_cast<uint16_t>(type);
  frame.payload = out.TakeBytes();
  const std::vector<uint8_t> bytes = monoclass::net::EncodeFrame(frame);
  size_t consumed = 0;
  std::optional<monoclass::net::Frame> decoded =
      monoclass::net::TryDecodeFrame(bytes, &consumed);
  MC_CHECK(decoded.has_value());
  monoclass::net::WireStream in(std::move(decoded->payload));
  Message::Unserialize(in);
  in.ExpectEnd();
  return timer.ElapsedMicros();
}

}  // namespace

void RunServe(const RunConfig& config, Report& report) {
  const std::string telemetry_path =
      config.traced ? config.out_dir + "/monoclassd_telemetry.prom" : "";

  // Set-up: spawning the daemon until it answers. The last one serves.
  BatchRate setups(kBatchSetups);
  Daemon daemon;
  for (int k = 0; k < kSetups; ++k) {
    daemon.Stop();
    Span span("setup.daemon", static_cast<uint64_t>(k));
    const bool started = daemon.Start(config, telemetry_path);
    setups.Add(1.0, span.Stop());
    if (!started) {
      report.Gate(false, "monoclassd did not start: " + config.daemon_path);
      return;
    }
  }
  const uint16_t port = daemon.port();
  std::vector<Client> clients(kConnections);
  for (Client& client : clients) {
    if (!client.Connect(kHost, port)) {
      report.Gate(false, "cannot connect to monoclassd");
      return;
    }
  }

  // Untraced runs spend the whole window in the closed loop; traced runs
  // split it with the open loop, whose latencies are per-layer metrics.
  const double closed_seconds =
      config.traced ? config.seconds * kTracedClosedShare : config.seconds;
  std::vector<Tally> warmup(clients.size()), closed(clients.size()),
      open(clients.size()), overhead(clients.size());
  ClosedLoop(clients, port, config, kWarmupJobs, kWarmupSeconds, warmup);
  const double capacity = ClosedLoop(clients, port, config, kCapacityJobs,
                                     closed_seconds, closed);
  double overhead_pct = 0.0;
  if (config.traced) {
    OpenLoop(clients, port, config, config.seconds - closed_seconds, open);
    monoclass::obs::SetEnabled(false);
    SetTracing(false);
    const double untraced = ClosedLoop(clients, port, config, kOverheadJobs,
                                       kOverheadSeconds, overhead);
    SetTracing(true);
    monoclass::obs::SetEnabled(true);
    overhead_pct = 100.0 * (untraced / capacity - 1.0);
  }
  Tally capacity_phase, open_phase, all;
  for (Tally& tally : closed) Absorb(tally, capacity_phase);
  for (Tally& tally : open) Absorb(tally, open_phase);
  for (Tally& tally : warmup) Absorb(tally, all);
  for (Tally& tally : overhead) Absorb(tally, all);
  Absorb(capacity_phase, all);
  Absorb(open_phase, all);

  // The daemon's side, read before it exits: counters over Stats, then
  // its peak RSS; the latency histograms arrive in the final telemetry
  // snapshot it writes on shutdown.
  std::map<std::string, uint64_t> counters;
  try {
    for (const auto& [name, value] : clients[0].FetchStats().counters) {
      counters[name] = value;
    }
  } catch (const WireError& error) {
    report.Gate(false, std::string("stats fetch failed: ") + error.what());
  }
  const double daemon_rss = PeakRssMiB(daemon.pid());
  for (Client& client : clients) client.Disconnect();
  daemon.Stop();

  report.AddOps(all.requests, all.failed);
  report.Set("setup_s", 1.0 / setups.Median());
  report.Set("peak_rss_mb", daemon_rss);
  report.Set("op_ms.p50", capacity_phase.request_ms.Median());
  report.Set("op_ms.p90", capacity_phase.request_ms.Quantile(0.9));
  report.Set("throughput_per_s", capacity);

  // Off the clock: probes and error against exact k* for every served
  // session, and every kVerifyEvery-th job re-solved locally, which must
  // match the served result bit for bit.
  double probes = 0.0;
  double points = 0.0;
  double errors = 0.0;
  double optimum = 0.0;
  size_t mismatches = 0;
  std::vector<std::pair<Job, const ServedSession*>> scripted;
  for (const ServedSession& served : all.served) {
    Job job = MakeJob(config.seed, served.job);
    probes += static_cast<double>(served.result.probes);
    points += static_cast<double>(job.data.size());
    errors += static_cast<double>(
        monoclass::CountErrors(served.result.classifier, job.data));
    optimum += static_cast<double>(monoclass::OptimalError(job.data));
    if (!job.verify) continue;
    monoclass::InMemoryOracle oracle(job.data);
    monoclass::ActiveSolveOptions options;
    options.sampling = monoclass::ActiveSamplingParams::Practical(kEpsilon, kDelta);
    options.seed = job.session_seed;
    options.parallel.threads = 1;
    const monoclass::ActiveSolveResult local =
        monoclass::SolveActiveMultiD(job.data.points(), oracle, options);
    if (local.classifier.generators() !=
            served.result.classifier.generators() ||
        local.probes != served.result.probes) {
      ++mismatches;
    }
    scripted.emplace_back(std::move(job), &served);
  }
  report.Set("labels_per_point", probes / points);
  report.Set("error_ratio", errors / optimum);
  report.Gate(mismatches == 0, std::to_string(mismatches) +
                                   " served sessions differ from a local "
                                   "SolveActiveMultiD");
  report.Gate(!scripted.empty(), "no session was verified");
  if (!config.traced) return;

  report.Set("trace_overhead_pct", overhead_pct);
  report.Set("serve.open_ms.p50", open_phase.open_ms.Median());
  report.Set("serve.open_ms.p99", open_phase.open_ms.Quantile(0.99));
  report.Set("serve.step_ms.p50", open_phase.step_ms.Median());
  report.Set("serve.step_ms.p99", open_phase.step_ms.Quantile(0.99));
  report.Set("serve.passive_ms.p50", open_phase.passive_ms.Median());
  report.Set("serve.passive_ms.p99", open_phase.passive_ms.Quantile(0.99));
  report.Set("serve.session_ms.p50", open_phase.session_ms.Median());
  report.Set("serve.session_ms.p99", open_phase.session_ms.Quantile(0.99));
  report.Set("serve.conn_wait_ms.p50", open_phase.conn_wait_ms.Median());
  report.Set("serve.gen_late_ms.p99", open_phase.gen_late_ms.Quantile(0.99));

  // The verified sessions' scripts replayed in-process through
  // SessionManager (no sockets), and their messages through the codecs.
  monoclass::net::SessionManager manager({.capacity = 1024, .ttl_ms = 0});
  Samples replay_ms, codec_us;
  size_t replay_mismatches = 0;
  for (const auto& [job, served] : scripted) {
    monoclass::net::SessionOptions options;
    options.seed = job.session_seed;
    options.epsilon = kEpsilon;
    options.delta = kDelta;
    monoclass::net::Session::StepOutcome outcome;
    Span open_span("net.open", served->job);
    const uint64_t id = manager.Open(job.data.points(), options, &outcome);
    replay_ms.Add(open_span.Stop() * 1e3);
    codec_us.Add(CodecMicros(OpenRequest(job),
                             monoclass::net::MessageType::kSessionOpen));
    for (const StepAnswers& answers : served->script) {
      Span step_span("net.step", served->job);
      manager.Step(id, answers.indices, answers.labels, &outcome);
      replay_ms.Add(step_span.Stop() * 1e3);
      monoclass::net::SessionStepRequest step;
      step.session_id = id;
      step.indices = answers.indices;
      step.labels = answers.labels;
      codec_us.Add(
          CodecMicros(step, monoclass::net::MessageType::kSessionStep));
      if (!outcome.done) {
        monoclass::net::SessionProbeMessage probe;
        probe.session_id = id;
        probe.indices = outcome.probe_indices;
        codec_us.Add(
            CodecMicros(probe, monoclass::net::MessageType::kSessionProbe));
      }
    }
    if (!outcome.done || outcome.result.classifier.generators() !=
                             served->result.classifier.generators()) {
      ++replay_mismatches;
    }
    codec_us.Add(CodecMicros(served->result,
                             monoclass::net::MessageType::kSessionResult));
  }
  report.Gate(replay_mismatches == 0,
              std::to_string(replay_mismatches) +
                  " in-process session replays differ from the served result");
  report.Set("net.session_step_ms.p50", replay_ms.Median());
  report.Set("net.session_step_ms.p99", replay_ms.Quantile(0.99));
  report.Set("net.codec_us.p50", codec_us.Median());

  const std::map<std::string, double> exposition =
      ReadExposition(telemetry_path);
  report.Gate(!exposition.empty(), "no telemetry from " + telemetry_path);
  report.Set("srv.handler_ms.p50",
             Quantile(exposition, "mc.lat.srv_handler", "0.5") * 1e-3);
  report.Set("srv.handler_ms.p99",
             Quantile(exposition, "mc.lat.srv_handler", "0.99") * 1e-3);
  report.Set("srv.pool_wait_ms.p50",
             Quantile(exposition, "mc.lat.pool_task_wait", "0.5") * 1e-3);
  report.Set("srv.pool_wait_ms.p99",
             Quantile(exposition, "mc.lat.pool_task_wait", "0.99") * 1e-3);
  report.Set("srv.pool_run_ms.p50",
             Quantile(exposition, "mc.lat.pool_task_run", "0.5") * 1e-3);
  report.Set("srv.pool_run_ms.p99",
             Quantile(exposition, "mc.lat.pool_task_run", "0.99") * 1e-3);
  const double opened =
      static_cast<double>(counters["mc.srv.sessions_opened"]);
  const double requests = static_cast<double>(counters["mc.srv.requests"]);
  report.Set("srv.replays_per_session",
             opened > 0.0
                 ? static_cast<double>(counters["mc.srv.session_replays"]) /
                       opened
                 : 0.0);
  report.Set("srv.bytes_per_request",
             requests > 0.0 ? static_cast<double>(counters["mc.srv.bytes_rx"] +
                                                  counters["mc.srv.bytes_tx"]) /
                                  requests
                            : 0.0);
}

}  // namespace mcbench
