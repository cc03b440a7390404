// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "net/session.h"

#include <utility>

#include "active/oracle.h"
#include "net/wire.h"
#include "obs/obs.h"

namespace monoclass {
namespace net {
namespace {

// Session::answers_ entry of a point the client has not labelled.
constexpr uint8_t kUnanswered = 2;

// Ends a replay at its first probing round that needs an answer the
// client has not given. Only ReplayOracle throws it, and Session::Step
// catches it around each chain, so it never leaves Step.
struct ReplayStop {
  // The round's unanswered points, deduplicated, in batch order.
  std::vector<uint64_t> pending;
};

// Oracle that replays a chain against the answers collected so far.
// Known answers are served verbatim. The first Prefetch batch holding an
// unanswered point throws ReplayStop with that batch's unanswered
// points; a Probe of an unanswered point that no batch announced
// (defensive: no solver path does this) throws it with that point alone.
class ReplayOracle final : public LabelOracle {
 public:
  explicit ReplayOracle(const std::vector<uint8_t>& answers)
      : answers_(answers), revealed_(answers.size(), false) {}

  void Prefetch(const std::vector<size_t>& indices) override {
    ReplayStop stop;
    std::vector<bool> in_pending;
    for (const size_t index : indices) {
      if (answers_[index] != kUnanswered) continue;
      if (in_pending.empty()) in_pending.assign(answers_.size(), false);
      if (!in_pending[index]) {
        in_pending[index] = true;
        stop.pending.push_back(static_cast<uint64_t>(index));
      }
    }
    if (!stop.pending.empty()) throw stop;
  }

  Label Probe(size_t index) override {
    ++probe_calls_;
    if (answers_[index] == kUnanswered) {
      throw ReplayStop{{static_cast<uint64_t>(index)}};
    }
    if (!revealed_[index]) {
      revealed_[index] = true;
      ++distinct_probes_;
    }
    return answers_[index];
  }

  size_t NumPoints() const override { return answers_.size(); }
  size_t NumProbes() const override { return distinct_probes_; }
  size_t NumProbeCalls() const override { return probe_calls_; }

 private:
  const std::vector<uint8_t>& answers_;
  std::vector<bool> revealed_;
  size_t distinct_probes_ = 0;
  size_t probe_calls_ = 0;
};

}  // namespace

Session::Session(PointSet points, SessionOptions options)
    : points_(std::move(points)) {
  if (points_.empty() || points_.dimension() == 0) {
    throw WireError("session requires a non-empty point set");
  }
  if (options.algorithm != 0) {
    throw WireError("unknown session algorithm " +
                    std::to_string(options.algorithm));
  }
  solve_options_.sampling =
      ActiveSamplingParams::Practical(options.epsilon, options.delta);
  solve_options_.seed = options.seed;
  // Every stage runs serially on the calling thread, the per-chain
  // solves and the Sigma solve alike: a server handles each frame on its
  // reader thread, and concurrency comes from many sessions in flight,
  // never from a fan-out to the shared pool within one session.
  solve_options_.parallel.threads = 1;
  solve_options_.passive.parallel.threads = 1;
  // Hopcroft-Karp (Lemma 6), as SolveActiveMultiD picks by default: the
  // 2D patience decomposition is also minimum but returns other chains,
  // hence other probe sequences.
  decomposition_ = DecomposeForActiveSolve(points_, solve_options_);
  MC_COUNTER("mc.srv.session_decompositions", 1);
  answers_.assign(points_.size(), kUnanswered);
}

Session::StepOutcome Session::Step(const std::vector<uint64_t>& indices,
                                   const std::vector<uint8_t>& labels) {
  if (indices.size() != labels.size()) {
    throw WireError("answer indices/labels size mismatch");
  }
  // Check every answer before recording any, so a rejected step leaves
  // the session as it was.
  for (size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= points_.size()) {
      throw WireError("answer index out of range");
    }
    if (labels[i] > 1) throw WireError("label outside {0,1}");
  }
  for (size_t i = 0; i < indices.size(); ++i) {
    uint8_t& answer = answers_[static_cast<size_t>(indices[i])];
    if (answer == kUnanswered) {
      answer = labels[i];
      ++num_known_;
    }
  }
  ++replays_;
  MC_COUNTER("mc.srv.session_replays", 1);

  // Replay the unfinished chains in chain order, each from its start,
  // until one reaches a round it has no answers for.
  ReplayOracle oracle(answers_);
  StepOutcome outcome;
  while (finished_.size() < decomposition_.NumChains()) {
    const size_t chain = finished_.size();
    MC_COUNTER("mc.srv.session_chain_solves", 1);
    try {
      finished_.push_back(
          SolveActiveChain(decomposition_, chain, oracle, solve_options_));
    } catch (ReplayStop& stop) {
      outcome.probe_indices = std::move(stop.pending);
      return outcome;
    }
  }
  // Chains partition the points, so their distinct probes add up to the
  // run's, as SolveActiveMultiD counts them on its one oracle.
  size_t probes = 0;
  for (const ActiveChainOutcome& chain : finished_) {
    probes += chain.distinct_probes;
  }
  outcome.done = true;
  outcome.result =
      SolveActiveSigma(points_, finished_, probes, solve_options_);
  return outcome;
}

SessionManager::SessionManager(Config config, std::function<int64_t()> now_ms)
    : config_(config), now_ms_(std::move(now_ms)) {}

int64_t SessionManager::NowMs() const {
  if (now_ms_) return now_ms_();
  return static_cast<int64_t>(timer_.ElapsedMillis());
}

uint64_t SessionManager::Open(PointSet points, SessionOptions options,
                              Session::StepOutcome* outcome) {
  auto session = std::make_unique<Session>(std::move(points), options);
  // The first step (no answers) runs outside the lock: it only touches
  // the not-yet-published session.
  *outcome = session->Step({}, {});
  MC_COUNTER("mc.srv.sessions_opened", 1);

  MutexLock lock(mu_);
  const uint64_t id = next_id_++;
  if (outcome->done) {
    // Degenerate single-round solve; nothing to retain.
    MC_COUNTER("mc.srv.sessions_completed", 1);
    return id;
  }
  EvictExpiredLocked();
  while (sessions_.size() >= config_.capacity && !sessions_.empty()) {
    const size_t before = sessions_.size();
    EvictOldestLocked();
    if (sessions_.size() == before) break;  // everything is mid-step
  }
  Entry entry;
  entry.session = std::move(session);
  entry.last_touch_ms = NowMs();
  sessions_.emplace(id, std::move(entry));
  MC_GAUGE("mc.srv.sessions_active", sessions_.size());
  return id;
}

SessionManager::StepStatus SessionManager::Step(
    uint64_t id, const std::vector<uint64_t>& indices,
    const std::vector<uint8_t>& labels, Session::StepOutcome* outcome) {
  Session* session = nullptr;
  {
    MutexLock lock(mu_);
    EvictExpiredLocked();
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return StepStatus::kUnknownSession;
    if (it->second.busy) return StepStatus::kBusy;
    it->second.busy = true;
    session = it->second.session.get();
  }

  // The replay runs without the manager lock so independent sessions
  // step concurrently; `busy` keeps this session single-threaded.
  bool done = false;
  try {
    *outcome = session->Step(indices, labels);
    done = outcome->done;
  } catch (...) {
    MutexLock lock(mu_);
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) it->second.busy = false;
    throw;
  }

  MutexLock lock(mu_);
  const auto it = sessions_.find(id);
  if (it != sessions_.end()) {
    it->second.busy = false;
    it->second.last_touch_ms = NowMs();
    if (done) {
      sessions_.erase(it);
      MC_COUNTER("mc.srv.sessions_completed", 1);
    }
  }
  MC_GAUGE("mc.srv.sessions_active", sessions_.size());
  return StepStatus::kOk;
}

bool SessionManager::Close(uint64_t id) {
  MutexLock lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second.busy) return false;
  sessions_.erase(it);
  MC_COUNTER("mc.srv.sessions_closed", 1);
  MC_GAUGE("mc.srv.sessions_active", sessions_.size());
  return true;
}

size_t SessionManager::NumActive() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

size_t SessionManager::ResidentPoints() const {
  MutexLock lock(mu_);
  size_t total = 0;
  for (const auto& [id, entry] : sessions_) {
    total += entry.session->points().size();
  }
  return total;
}

size_t SessionManager::EvictExpired() {
  MutexLock lock(mu_);
  return EvictExpiredLocked();
}

size_t SessionManager::EvictExpiredLocked() {
  if (config_.ttl_ms <= 0) return 0;
  const int64_t now = NowMs();
  size_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (!it->second.busy && now - it->second.last_touch_ms >= config_.ttl_ms) {
      it = sessions_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  if (evicted > 0) {
    MC_COUNTER("mc.srv.sessions_evicted", evicted);
    MC_GAUGE("mc.srv.sessions_active", sessions_.size());
  }
  return evicted;
}

void SessionManager::EvictOldestLocked() {
  auto oldest = sessions_.end();
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->second.busy) continue;
    if (oldest == sessions_.end() ||
        it->second.last_touch_ms < oldest->second.last_touch_ms) {
      oldest = it;
    }
  }
  if (oldest != sessions_.end()) {
    sessions_.erase(oldest);
    MC_COUNTER("mc.srv.sessions_evicted", 1);
  }
}

}  // namespace net
}  // namespace monoclass
