// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Resumable active-learning sessions (docs/serving.md).
//
// The paper's active algorithm is interactive by construction: it draws
// sample positions, probes the oracle, and recurses on what the labels
// reveal. A serving system cannot block a solver thread on a human
// labeler, so a Session runs the stages of the active solver
// (active/multi_d.h) itself, WITHOUT rewriting them as coroutines:
//
//   * Open (the constructor) computes the chain decomposition, a pure
//     function of the points, once.
//   * Every Step() records the client's answers and replays the chain in
//     progress from its start against every answer known so far. A
//     replaying oracle serves the known answers; the first probing round
//     (a LabelOracle::Prefetch batch) that holds an unknown point ends
//     the replay, and that round's unknown points are the next
//     round-trip's probe batch.
//   * A chain whose replay runs to its end keeps its outcome, so no later
//     step re-runs it. The step that finishes the last chain solves
//     Sigma, once per session.
//
// This is sound because a chain's outcome depends only on its points,
// its Rng(seed, chain) stream and the answers to its own probes, and
// answers never change once given. Each chain is bit-deterministic in
// (points, seed) -- positions never depend on labels within a round --
// so a replay re-issues exactly the probes of the runs before it, and
// the completed session is bit-for-bit the solve an uninterrupted
// SolveActiveMultiD over the same (points, seed) would have produced.
// That equivalence is what tests/net_session_test.cc pins down.
//
// A step thus costs one chain's replay up to its first unknown round,
// plus the chains it completes; between round-trips a session holds its
// points, the decomposition, the finished chains' outcomes and the
// answers, and no solver stack, which keeps it evictable and resumable.

#ifndef MONOCLASS_NET_SESSION_H_
#define MONOCLASS_NET_SESSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "active/multi_d.h"
#include "core/chain_decomposition.h"
#include "core/dataset.h"
#include "util/concurrency.h"
#include "util/timer.h"

namespace monoclass {
namespace net {

struct SessionOptions {
  uint64_t seed = 1;
  double epsilon = 0.5;
  double delta = 0.01;
  // Open enum matching WireSolverAlgorithm; 0 = the paper's Section 3/4
  // solver. Reserved so a successor algorithm (e.g. relative-error
  // active classification) can be addressed per-session.
  uint8_t algorithm = 0;
};

// One resumable active solve. Not thread-safe; SessionManager
// serializes access per session.
class Session {
 public:
  // Computes the chain decomposition (one mc.srv.session_decompositions).
  Session(PointSet points, SessionOptions options);

  struct StepOutcome {
    bool done = false;
    // !done: the indices the client must label next (deduplicated,
    // solver order).
    std::vector<uint64_t> probe_indices;
    // done: the completed solve, identical to an uninterrupted
    // SolveActiveMultiD over the same (points, seed).
    ActiveSolveResult result{.classifier = MonotoneClassifier::AlwaysZero(1)};
  };

  // Records answers (parallel arrays; a partial or empty answer set is
  // legal) and replays the unfinished chains in chain order (one
  // mc.srv.session_chain_solves each) until one stops at a round it has
  // no answers for; once all have finished, solves Sigma. Answers for
  // out-of-range indices are rejected; answering the same index twice
  // keeps the first answer (probes are immutable once revealed).
  StepOutcome Step(const std::vector<uint64_t>& indices,
                   const std::vector<uint8_t>& labels);

  const PointSet& points() const { return points_; }
  size_t NumKnownLabels() const { return num_known_; }
  size_t NumReplays() const { return replays_; }

 private:
  PointSet points_;
  ActiveSolveOptions solve_options_;
  ChainDecomposition decomposition_;
  // Outcomes of chains 0 .. finished_.size() - 1.
  std::vector<ActiveChainOutcome> finished_;
  // Per point: the client's label, or 2 while it is unanswered.
  std::vector<uint8_t> answers_;
  size_t num_known_ = 0;
  size_t replays_ = 0;
};

// Owns live sessions keyed by server-assigned u64 ids: creation,
// per-session serialization, LRU capacity eviction and TTL expiry of
// abandoned sessions. Time comes from an injectable millisecond clock
// so expiry is testable without sleeping (default: a WallTimer started
// at construction).
class SessionManager {
 public:
  struct Config {
    size_t capacity = 1024;   // LRU-evict beyond this many live sessions
    int64_t ttl_ms = 300000;  // <= 0 disables TTL expiry (CI determinism)
  };

  enum class StepStatus {
    kOk,
    kUnknownSession,  // never opened, completed, closed, or evicted
    kBusy,            // another thread is mid-Step on this session
  };

  explicit SessionManager(Config config,
                          std::function<int64_t()> now_ms = nullptr);

  // Opens a session and runs its first step (no answers yet). Returns
  // the new id. The outcome is the first probe batch (or, degenerately,
  // a completed result, in which case the session is already retired).
  uint64_t Open(PointSet points, SessionOptions options,
                Session::StepOutcome* outcome);

  // Steps a session. On kOk with outcome->done the session is retired.
  StepStatus Step(uint64_t id, const std::vector<uint64_t>& indices,
                  const std::vector<uint8_t>& labels,
                  Session::StepOutcome* outcome);

  // Returns true iff the session existed.
  bool Close(uint64_t id);

  size_t NumActive() const;
  // Sum of resident session point counts -- the dominant share of
  // per-session memory; tests assert eviction drives it to zero.
  size_t ResidentPoints() const;
  // Expires sessions idle past the TTL; returns how many were evicted.
  // Called internally on every Open/Step, public for tests and for a
  // server idle sweep.
  size_t EvictExpired();

 private:
  struct Entry {
    std::unique_ptr<Session> session;
    int64_t last_touch_ms = 0;
    bool busy = false;
  };

  size_t EvictExpiredLocked() MC_REQUIRES(mu_);
  void EvictOldestLocked() MC_REQUIRES(mu_);
  int64_t NowMs() const;

  const Config config_;
  const std::function<int64_t()> now_ms_;
  WallTimer timer_;  // backs the default clock
  mutable Mutex mu_;
  std::map<uint64_t, Entry> sessions_ MC_GUARDED_BY(mu_);
  uint64_t next_id_ MC_GUARDED_BY(mu_) = 1;
};

}  // namespace net
}  // namespace monoclass

#endif  // MONOCLASS_NET_SESSION_H_
