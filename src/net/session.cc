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

// Oracle that replays a partially-answered solve. Known answers are
// served verbatim; the first Prefetch batch containing unknown points
// flips the oracle into speculative mode and records those points (in
// batch order, deduplicated) as the next round-trip. From then on every
// unknown probe answers a dummy 0 -- the solver still terminates, the
// run's outputs are discarded, and only `pending` survives. A direct
// unknown Probe outside any announced batch (defensive: no current
// solver path does this) captures a singleton batch the same way.
class ReplayOracle final : public LabelOracle {
 public:
  ReplayOracle(const std::map<size_t, uint8_t>& known, size_t num_points)
      : known_(known), revealed_(num_points, false) {}

  void Prefetch(const std::vector<size_t>& indices) override {
    if (speculative_) return;
    for (const size_t index : indices) {
      if (index < revealed_.size() && known_.count(index) == 0) {
        if (!speculative_) {
          speculative_ = true;
          pending_.clear();
          in_pending_.assign(revealed_.size(), false);
        }
        if (!in_pending_[index]) {
          in_pending_[index] = true;
          pending_.push_back(static_cast<uint64_t>(index));
        }
      }
    }
  }

  Label Probe(size_t index) override {
    ++probe_calls_;
    const auto it = known_.find(index);
    if (it != known_.end()) {
      if (!revealed_[index]) {
        revealed_[index] = true;
        ++distinct_probes_;
      }
      return it->second;
    }
    if (!speculative_) {
      speculative_ = true;
      pending_.assign(1, static_cast<uint64_t>(index));
      in_pending_.assign(revealed_.size(), false);
      if (index < in_pending_.size()) in_pending_[index] = true;
    }
    return 0;  // speculative dummy; this replay's outputs are discarded
  }

  size_t NumPoints() const override { return revealed_.size(); }
  size_t NumProbes() const override { return distinct_probes_; }
  size_t NumProbeCalls() const override { return probe_calls_; }

  bool speculative() const { return speculative_; }
  std::vector<uint64_t> TakePending() { return std::move(pending_); }

 private:
  const std::map<size_t, uint8_t>& known_;
  std::vector<bool> revealed_;
  std::vector<bool> in_pending_;
  std::vector<uint64_t> pending_;
  bool speculative_ = false;
  size_t distinct_probes_ = 0;
  size_t probe_calls_ = 0;
};

}  // namespace

Session::Session(PointSet points, SessionOptions options)
    : points_(std::move(points)), options_(options) {
  if (points_.empty() || points_.dimension() == 0) {
    throw WireError("session requires a non-empty point set");
  }
  if (options_.algorithm != 0) {
    throw WireError("unknown session algorithm " +
                    std::to_string(options_.algorithm));
  }
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
    known_.emplace(static_cast<size_t>(indices[i]), labels[i]);
  }

  ReplayOracle oracle(known_, points_.size());
  ActiveSolveOptions solve_options;
  solve_options.sampling =
      ActiveSamplingParams::Practical(options_.epsilon, options_.delta);
  solve_options.seed = options_.seed;
  // The replay runs serially on the calling thread, the per-chain solves
  // and the Sigma solve alike: a server handles each frame on its reader
  // thread, and concurrency comes from many sessions in flight, never
  // from a fan-out to the shared pool within one session.
  solve_options.parallel.threads = 1;
  solve_options.passive.parallel.threads = 1;
  ++replays_;
  MC_COUNTER("mc.srv.session_replays", 1);

  StepOutcome outcome;
  ActiveSolveResult result = SolveActiveMultiD(points_, oracle, solve_options);
  if (oracle.speculative()) {
    outcome.done = false;
    outcome.probe_indices = oracle.TakePending();
  } else {
    outcome.done = true;
    outcome.result = std::move(result);
  }
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
