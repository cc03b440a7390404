// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Session lifecycle tests. The load-bearing claim (see net/session.h)
// is that a solve driven through Step() round-trips -- including
// interrupted, partially-answered round-trips -- is bit-for-bit the
// solve an uninterrupted SolveActiveMultiD would produce over the same
// (points, seed), while a session decomposes once and replays only the
// chain in progress. The eviction tests use an injected fake clock so
// TTL expiry needs no sleeping.

#include "net/session.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "active/multi_d.h"
#include "active/oracle.h"
#include "active/params.h"
#include "data/synthetic.h"
#include "net/wire.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "test_util.h"
#include "util/concurrency.h"
#include "util/random.h"

namespace monoclass {
namespace net {
namespace {

LabeledPointSet MakeInstance(size_t n, uint64_t seed) {
  PlantedOptions options;
  options.num_points = n;
  options.dimension = 2;
  options.noise_flips = n / 10;
  options.seed = seed;
  return GeneratePlanted(options).data;
}

SessionOptions MakeOptions(uint64_t seed) {
  SessionOptions options;
  options.seed = seed;
  options.epsilon = 0.5;
  options.delta = 0.01;
  return options;
}

// The uninterrupted reference: same params a Session uses, solved on
// `threads` threads (the result is the same on any count).
ActiveSolveResult ReferenceSolve(const LabeledPointSet& instance,
                                 uint64_t seed, size_t threads = 1) {
  InMemoryOracle oracle(instance);
  ActiveSolveOptions options;
  options.sampling = ActiveSamplingParams::Practical(0.5, 0.01);
  options.seed = seed;
  options.parallel.threads = threads;
  options.passive.parallel.threads = threads;
  return SolveActiveMultiD(instance.points(), oracle, options);
}

// Every field of two solves, Sigma and the probe account included.
void ExpectSameSolve(const ActiveSolveResult& served,
                     const ActiveSolveResult& reference,
                     const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(served.classifier.generators(),
            reference.classifier.generators());
  EXPECT_EQ(served.probes, reference.probes);
  EXPECT_EQ(served.num_chains, reference.num_chains);
  EXPECT_EQ(served.sigma_error, reference.sigma_error);
  EXPECT_EQ(served.total_levels, reference.total_levels);
  EXPECT_EQ(served.full_probe_levels, reference.full_probe_levels);
  ASSERT_EQ(served.sigma.size(), reference.sigma.size());
  for (size_t i = 0; i < served.sigma.size(); ++i) {
    EXPECT_EQ(served.sigma.point(i), reference.sigma.point(i)) << i;
    EXPECT_EQ(served.sigma.label(i), reference.sigma.label(i)) << i;
    EXPECT_EQ(served.sigma.weight(i), reference.sigma.weight(i)) << i;
  }
  const obs::ProbeBudgetReport& a = served.probe_budget;
  const obs::ProbeBudgetReport& b = reference.probe_budget;
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.w, b.w);
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.delta, b.delta);
  EXPECT_EQ(a.theorem2_bound, b.theorem2_bound);
  EXPECT_EQ(a.measured_probes, b.measured_probes);
  EXPECT_EQ(a.per_chain_probes, b.per_chain_probes);
  EXPECT_EQ(a.utilization, b.utilization);
}

// Drives `session` to completion, answering every probe fully.
ActiveSolveResult DriveToCompletion(Session& session,
                                    const LabeledPointSet& instance) {
  Session::StepOutcome outcome = session.Step({}, {});
  while (!outcome.done) {
    std::vector<uint8_t> labels(outcome.probe_indices.size());
    for (size_t i = 0; i < outcome.probe_indices.size(); ++i) {
      labels[i] =
          instance.label(static_cast<size_t>(outcome.probe_indices[i]));
    }
    outcome = session.Step(outcome.probe_indices, labels);
  }
  return outcome.result;
}

TEST(SessionTest, SteppedSolveIsBitForBitTheUninterruptedSolve) {
  for (const uint64_t seed : {1u, 7u, 1234u}) {
    const LabeledPointSet instance = MakeInstance(80, seed * 31);
    Session session(instance.points(), MakeOptions(seed));
    const ActiveSolveResult served = DriveToCompletion(session, instance);
    ASSERT_GT(session.NumReplays(), 1u);
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      ExpectSameSolve(served, ReferenceSolve(instance, seed, threads),
                      "seed=" + std::to_string(seed) +
                          " threads=" + std::to_string(threads));
    }
  }
}

TEST(SessionTest, DecomposesOnceAndReplaysOnlyTheChainInProgress) {
  // Open decomposes; each step re-runs the chain in progress and runs
  // on through the chains it completes. Every replay but the last stops
  // in exactly one chain, and every chain finishes exactly once.
  obs::SetEnabled(true);
  for (const uint64_t seed : {2u, 9u}) {
    obs::MetricsRegistry::Global().ResetAll();
    const LabeledPointSet instance = MakeInstance(120, seed * 13);
    Session session(instance.points(), MakeOptions(seed));
    const ActiveSolveResult served = DriveToCompletion(session, instance);
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(snapshot.CounterValue("mc.srv.session_decompositions"), 1u);
    EXPECT_EQ(snapshot.CounterValue("mc.srv.session_replays"),
              session.NumReplays());
    EXPECT_EQ(snapshot.CounterValue("mc.srv.session_chain_solves"),
              served.num_chains + session.NumReplays() - 1);
    EXPECT_GT(served.num_chains, 1u);
  }
  obs::SetEnabled(false);
}

TEST(SessionTest, StopMidChainLeavesNoSpanOpen) {
  // A replay that stops unwinds through the chain's span and latency
  // scope; the capture must still pair every begin with its end.
  obs::SetEnabled(true);
  obs::ResetFlightRecorder();
  obs::StartFlightCapture();
  size_t stopped_replays = 0;
  for (const uint64_t seed : {4u, 5u, 6u}) {
    const LabeledPointSet instance = MakeInstance(64, seed);
    Session session(instance.points(), MakeOptions(seed));
    DriveToCompletion(session, instance);
    stopped_replays += session.NumReplays() - 1;
  }
  obs::StopFlightCapture();
  const obs::FlightSnapshot capture = obs::SnapshotFlightCapture();
  obs::StopFlightRecording();
  obs::ResetFlightRecorder();
  obs::SetEnabled(false);

  size_t chain_spans = 0;
  for (const obs::FlightEvent& event : capture.events) {
    if (event.type == obs::FlightEventType::kSpanBegin &&
        capture.names[event.name_id] == "par.chain") {
      ++chain_spans;
    }
  }
  EXPECT_GT(stopped_replays, 0u);
  EXPECT_GE(chain_spans, stopped_replays);
  std::ostringstream trace;
  EXPECT_EQ(obs::WriteFlightChromeTrace(capture, trace), 0u);
}

TEST(SessionTest, OnlyRejectedAnswersLeaveStep) {
  // The replay's stop is caught inside Step: answering any subset of a
  // batch, or of points never asked for, returns a batch or the result
  // and never throws.
  const uint64_t seed = 21;
  const LabeledPointSet instance = MakeInstance(72, 37);
  Session session(instance.points(), MakeOptions(seed));
  Rng rng(seed, 0);
  Session::StepOutcome outcome = session.Step({}, {});
  while (!outcome.done) {
    std::vector<uint64_t> indices;
    for (const uint64_t index : outcome.probe_indices) {
      if (rng.UniformInt(3) != 0) indices.push_back(index);
    }
    indices.push_back(rng.UniformInt(instance.size()));
    std::vector<uint8_t> labels(indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      labels[i] = instance.label(static_cast<size_t>(indices[i]));
    }
    ASSERT_NO_THROW(outcome = session.Step(indices, labels));
  }
  ExpectSameSolve(outcome.result, ReferenceSolve(instance, seed), "");
}

TEST(SessionTest, ProbeBatchesNeverRepeatAnsweredIndices) {
  const LabeledPointSet instance = MakeInstance(60, 3);
  Session session(instance.points(), MakeOptions(5));
  std::set<uint64_t> answered;
  Session::StepOutcome outcome = session.Step({}, {});
  while (!outcome.done) {
    std::set<uint64_t> batch(outcome.probe_indices.begin(),
                             outcome.probe_indices.end());
    EXPECT_EQ(batch.size(), outcome.probe_indices.size())
        << "duplicate index inside one batch";
    for (const uint64_t index : outcome.probe_indices) {
      EXPECT_EQ(answered.count(index), 0u)
          << "server re-requested answered index " << index;
      answered.insert(index);
    }
    std::vector<uint8_t> labels(outcome.probe_indices.size());
    for (size_t i = 0; i < outcome.probe_indices.size(); ++i) {
      labels[i] =
          instance.label(static_cast<size_t>(outcome.probe_indices[i]));
    }
    outcome = session.Step(outcome.probe_indices, labels);
  }
  EXPECT_EQ(answered.size(), session.NumKnownLabels());
}

TEST(SessionTest, PartialAnswersResumeToIdenticalResult) {
  const uint64_t seed = 11;
  const LabeledPointSet instance = MakeInstance(80, 17);
  const ActiveSolveResult reference = ReferenceSolve(instance, seed);

  // Answer only the first half of every batch; the session must re-issue
  // the remainder and still converge to the identical solve.
  Session session(instance.points(), MakeOptions(seed));
  Session::StepOutcome outcome = session.Step({}, {});
  size_t round = 0;
  while (!outcome.done) {
    std::vector<uint64_t> indices = outcome.probe_indices;
    if (round % 2 == 0 && indices.size() > 1) {
      indices.resize(indices.size() / 2);
    }
    std::vector<uint8_t> labels(indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      labels[i] = instance.label(static_cast<size_t>(indices[i]));
    }
    outcome = session.Step(indices, labels);
    ++round;
  }
  ExpectSameSolve(outcome.result, reference, "partial answers");
}

TEST(SessionTest, EmptyAnswerSetResendsThePendingBatch) {
  const LabeledPointSet instance = MakeInstance(60, 23);
  Session session(instance.points(), MakeOptions(3));
  Session::StepOutcome first = session.Step({}, {});
  ASSERT_FALSE(first.done);
  // A client that lost the response resumes with no answers: the same
  // batch must come back (replay determinism).
  const Session::StepOutcome resent = session.Step({}, {});
  EXPECT_EQ(resent.probe_indices, first.probe_indices);
}

TEST(SessionTest, RejectsBadAnswers) {
  const LabeledPointSet instance = MakeInstance(20, 29);
  Session session(instance.points(), MakeOptions(3));
  EXPECT_THROW(session.Step({instance.size() + 5}, {1}), WireError);
  EXPECT_THROW(session.Step({0}, {2}), WireError);
  EXPECT_THROW(session.Step({0, 1}, {1}), WireError);  // size mismatch
}

TEST(SessionTest, RejectedStepRecordsNoAnswers) {
  // Answers are checked before any is recorded: a bad second answer
  // must not leave the valid first one behind in the session.
  const LabeledPointSet instance = MakeInstance(20, 31);
  Session session(instance.points(), MakeOptions(3));
  const size_t known = session.NumKnownLabels();
  EXPECT_THROW(session.Step({0, uint64_t{1} << 30}, {1, 0}), WireError);
  EXPECT_EQ(session.NumKnownLabels(), known);
  EXPECT_THROW(session.Step({2, 3}, {1, 7}), WireError);
  EXPECT_EQ(session.NumKnownLabels(), known);
}

TEST(SessionTest, RejectsEmptyPointSetAndUnknownAlgorithm) {
  EXPECT_THROW(Session(PointSet(), MakeOptions(1)), WireError);
  SessionOptions bad = MakeOptions(1);
  bad.algorithm = 99;
  EXPECT_THROW(Session(MakeInstance(8, 1).points(), bad), WireError);
}

TEST(SessionTest, StepFromPlainThreadRunsNoPoolTasks) {
  // A server steps sessions on its reader threads, which are not pool
  // workers, so nothing but the session's own settings keeps the replay
  // -- the per-chain solves and the Sigma solve -- off the shared pool.
  if (ParallelOptions{}.Resolve() < 2) {
    GTEST_SKIP() << "one hardware thread: every solve is serial anyway";
  }
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  const LabeledPointSet instance = MakeInstance(200, 7);
  Session session(instance.points(), MakeOptions(3));
  DriveToCompletion(session, instance);
  const uint64_t tasks =
      obs::MetricsRegistry::Global().Snapshot().CounterValue("mc.pool.tasks");
  obs::SetEnabled(false);
  EXPECT_GT(session.NumReplays(), 1u);
  EXPECT_EQ(tasks, 0u);
}

// ------------------------------------------------------------- manager

TEST(SessionManagerTest, ConcurrentSessionsAreBitIdenticalPerSession) {
  // The serving claim: concurrency across sessions never leaks into any
  // single session's solve. Run the same 12 sessions under managers
  // stepped by 1, 2 and 8 threads; every session's result must be
  // bit-identical to its own single-threaded reference.
  constexpr size_t kSessions = 12;
  std::vector<LabeledPointSet> instances;
  std::vector<ActiveSolveResult> references;
  for (size_t i = 0; i < kSessions; ++i) {
    instances.push_back(MakeInstance(48 + 8 * (i % 3), 100 + i));
    references.push_back(ReferenceSolve(instances[i], 1000 + i));
  }

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SessionManager manager(SessionManager::Config{});
    std::vector<uint64_t> ids(kSessions);
    std::vector<Session::StepOutcome> outcomes(kSessions);
    for (size_t i = 0; i < kSessions; ++i) {
      ids[i] = manager.Open(instances[i].points(), MakeOptions(1000 + i),
                            &outcomes[i]);
    }
    // Worker w drives sessions w, w+threads, ... to completion.
    std::vector<mc::thread> workers;
    for (size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        for (size_t i = w; i < kSessions; i += threads) {
          Session::StepOutcome outcome = outcomes[i];
          while (!outcome.done) {
            std::vector<uint8_t> labels(outcome.probe_indices.size());
            for (size_t k = 0; k < outcome.probe_indices.size(); ++k) {
              labels[k] = instances[i].label(
                  static_cast<size_t>(outcome.probe_indices[k]));
            }
            const SessionManager::StepStatus status = manager.Step(
                ids[i], outcome.probe_indices, labels, &outcome);
            ASSERT_EQ(status, SessionManager::StepStatus::kOk);
          }
          outcomes[i] = outcome;
        }
      });
    }
    for (mc::thread& worker : workers) worker.join();

    for (size_t i = 0; i < kSessions; ++i) {
      ExpectSameSolve(outcomes[i].result, references[i],
                      "threads=" + std::to_string(threads) +
                          " session=" + std::to_string(i));
    }
    // Completion retires every session.
    EXPECT_EQ(manager.NumActive(), 0u);
    EXPECT_EQ(manager.ResidentPoints(), 0u);
  }
}

TEST(SessionManagerTest, AbandonedSessionsExpireAndFreeState) {
  int64_t fake_now = 0;
  SessionManager::Config config;
  config.ttl_ms = 1000;
  SessionManager manager(config, [&fake_now] { return fake_now; });

  const LabeledPointSet instance = MakeInstance(40, 7);
  Session::StepOutcome outcome;
  const uint64_t id =
      manager.Open(instance.points(), MakeOptions(2), &outcome);
  ASSERT_FALSE(outcome.done);
  EXPECT_EQ(manager.NumActive(), 1u);
  EXPECT_EQ(manager.ResidentPoints(), instance.size());

  // Touch within the TTL: stays alive.
  fake_now = 900;
  EXPECT_EQ(manager.EvictExpired(), 0u);
  EXPECT_EQ(manager.Step(id, {}, {}, &outcome),
            SessionManager::StepStatus::kOk);

  // Abandon past the TTL: evicted, memory freed, id forgotten.
  fake_now = 2000;
  EXPECT_EQ(manager.EvictExpired(), 1u);
  EXPECT_EQ(manager.NumActive(), 0u);
  EXPECT_EQ(manager.ResidentPoints(), 0u);
  EXPECT_EQ(manager.Step(id, {}, {}, &outcome),
            SessionManager::StepStatus::kUnknownSession);
}

TEST(SessionManagerTest, TtlZeroDisablesExpiry) {
  int64_t fake_now = 0;
  SessionManager::Config config;
  config.ttl_ms = 0;
  SessionManager manager(config, [&fake_now] { return fake_now; });
  const LabeledPointSet instance = MakeInstance(24, 13);
  Session::StepOutcome outcome;
  manager.Open(instance.points(), MakeOptions(2), &outcome);
  fake_now = int64_t{1} << 40;
  EXPECT_EQ(manager.EvictExpired(), 0u);
  EXPECT_EQ(manager.NumActive(), 1u);
}

TEST(SessionManagerTest, CapacityEvictsLeastRecentlyTouched) {
  int64_t fake_now = 0;
  SessionManager::Config config;
  config.capacity = 2;
  config.ttl_ms = 0;
  SessionManager manager(config, [&fake_now] { return fake_now; });
  const LabeledPointSet instance = MakeInstance(24, 19);

  Session::StepOutcome outcome;
  const uint64_t first =
      manager.Open(instance.points(), MakeOptions(2), &outcome);
  fake_now = 10;
  const uint64_t second =
      manager.Open(instance.points(), MakeOptions(3), &outcome);
  fake_now = 20;
  // Touch `first` so `second` becomes the LRU victim.
  ASSERT_EQ(manager.Step(first, {}, {}, &outcome),
            SessionManager::StepStatus::kOk);
  fake_now = 30;
  manager.Open(instance.points(), MakeOptions(4), &outcome);
  EXPECT_EQ(manager.NumActive(), 2u);
  EXPECT_EQ(manager.Step(second, {}, {}, &outcome),
            SessionManager::StepStatus::kUnknownSession);
  EXPECT_EQ(manager.Step(first, {}, {}, &outcome),
            SessionManager::StepStatus::kOk);
}

TEST(SessionManagerTest, CloseFreesAndForgets) {
  SessionManager manager(SessionManager::Config{});
  const LabeledPointSet instance = MakeInstance(24, 31);
  Session::StepOutcome outcome;
  const uint64_t id =
      manager.Open(instance.points(), MakeOptions(2), &outcome);
  EXPECT_TRUE(manager.Close(id));
  EXPECT_FALSE(manager.Close(id));
  EXPECT_EQ(manager.NumActive(), 0u);
  EXPECT_EQ(manager.ResidentPoints(), 0u);
}

}  // namespace
}  // namespace net
}  // namespace monoclass
