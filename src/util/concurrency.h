// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// The repo's only sanctioned concurrency layer: annotated locking
// primitives (Mutex / MutexLock / CondVar) plus a fixed-size ThreadPool
// with deterministic ParallelFor / ParallelForEach helpers.
//
// Raw std::thread / std::mutex / std::condition_variable / std::async
// are banned everywhere else in the tree (mc_lint rule MC006): code
// that locks through this layer is checkable by clang's thread-safety
// analysis (util/thread_annotations.h), so a forgotten lock is a compile
// error under clang, not a TSan report three CI stages later.
//
// Determinism contract (docs/concurrency.md): every parallel helper
// partitions work *by the requested thread count only* -- never by which
// worker ran what, never by timing. Callers that merge per-shard results
// in shard order therefore produce bit-identical output for every
// `threads` value, and `threads = 1` executes inline on the calling
// thread with no pool, no locks and no allocation beyond the serial
// path.

#ifndef MONOCLASS_UTIL_CONCURRENCY_H_
#define MONOCLASS_UTIL_CONCURRENCY_H_

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "util/sync_model.h"
#include "util/thread_annotations.h"

namespace monoclass {

// Annotated exclusive mutex. A thin wrapper over the mc::Mutex seam
// (a bare std::mutex in normal builds, a scheduler-controlled virtual
// lock under MONOCLASS_MODEL) whose Lock/Unlock carry acquire/release
// capability annotations, making GUARDED_BY data checkable.
class MC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // Uncontended locks stay a single try_lock; a lock that has to block
  // takes the out-of-line slow path, which times the wait and reports it
  // through the pool-hooks contention channel (obs `mc.pool.*` metrics)
  // when one is installed.
  void Lock() MC_ACQUIRE() {
    if (mu_.try_lock()) return;
    LockSlow();
  }
  void Unlock() MC_RELEASE() { mu_.unlock(); }
  bool TryLock() MC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  void LockSlow();

  friend class CondVar;
  mc::Mutex mu_;
};

// RAII lock. The scoped-capability annotation lets the analysis treat
// the guarded region as the object's lifetime.
class MC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MC_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() MC_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable over Mutex. Wait() releases and re-acquires the
// mutex internally, which the static analysis cannot model; the
// REQUIRES annotation still enforces that callers hold the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, blocks until notified, re-acquires `mu`.
  // Spurious wakeups possible; always wait in a predicate loop (or use
  // the predicate overload).
  void Wait(Mutex& mu) MC_REQUIRES(mu);

  // Predicate loop: waits until `predicate()` holds. The predicate runs
  // with `mu` held.
  template <typename Predicate>
  void Wait(Mutex& mu, Predicate predicate) MC_REQUIRES(mu) {
    while (!predicate()) Wait(mu);
  }

  // Timed wait: blocks until notified or `timeout_ms` elapsed. Returns
  // false on timeout, true when (possibly spuriously) notified -- so
  // callers still need a predicate loop. Used by periodic background
  // work (obs telemetry snapshots) to sleep interruptibly.
  bool WaitFor(Mutex& mu, double timeout_ms) MC_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  mc::CondVar cv_;
};

// Thread-count knob for the parallel helpers. 0 (the default) resolves
// to the hardware concurrency; 1 requests the exact serial path; any
// other value is taken literally (oversubscription is allowed -- shard
// boundaries depend on this number, so a run with threads = 8 computes
// the same partition on a 2-core laptop and a 64-core server).
struct ParallelOptions {
  std::size_t threads = 0;

  // The effective thread count: threads, or hardware_concurrency (>= 1)
  // when threads == 0.
  std::size_t Resolve() const;
};

namespace internal {

// Hooks through which the obs layer (a higher-level library) observes
// pool and lock activity without util linking against it. Installed by
// src/obs/obs.cc at static-init time; every pointer is optional and
// skipped when null.
//
// Hook bodies MUST be lock-free (atomic counters / histogram updates
// only): mutex_contended in particular fires from inside Mutex::Lock,
// so a hook that locks would recurse.
struct PoolHooks {
  // After Submit() pushed a task; depth includes the new task (>= 1).
  void (*task_enqueued)(std::size_t queue_depth) = nullptr;
  // A worker picked a task up after it sat queued for queue_wait_us.
  void (*task_started)(double queue_wait_us) = nullptr;
  // The task body returned after running for run_us.
  void (*task_finished)(double run_us) = nullptr;
  // A Mutex::Lock() had to block for wait_us before acquiring.
  void (*mutex_contended)(double wait_us) = nullptr;
};
void SetPoolHooks(const PoolHooks& hooks);

// True while the calling thread is a pool worker. Parallel helpers
// invoked from inside a task degrade to the serial path instead of
// deadlocking on pool capacity (nested parallelism is not supported).
bool OnPoolThread();

}  // namespace internal

// Fixed-size FIFO worker pool. Threads start in the constructor and
// join in the destructor after draining the queue. Most code should not
// touch the pool directly -- ParallelFor / ParallelForEach below submit
// to a shared process-wide pool -- but tests and long-lived pipelines
// may own one.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  // Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t NumThreads() const { return workers_.size(); }

  // Enqueues `task` for execution on some worker. Tasks must not throw
  // out of Submit-level use; the ParallelFor helpers add exception
  // capture on top.
  void Submit(std::function<void()> task) MC_EXCLUDES(mu_);

  // The shared process-wide pool backing ParallelFor/ParallelForEach.
  // Created on first use, never destroyed (like the metrics registry,
  // so static-destruction order can't bite), sized generously enough
  // that a `threads = 8` request runs 8-wide even on small machines.
  static ThreadPool& Shared();

 private:
  struct QueuedTask {
    std::function<void()> fn;
    double enqueue_us = 0.0;  // for the queue-wait metrics (task_started)
  };

  void WorkerLoop();

  Mutex mu_;
  CondVar work_cv_;
  std::deque<QueuedTask> queue_ MC_GUARDED_BY(mu_);
  bool shutdown_ MC_GUARDED_BY(mu_) = false;
  std::vector<mc::thread> workers_;
};

// Runs fn(begin, end, shard) over a deterministic partition of [0, n)
// into contiguous shards: shard k covers [k*n/T, (k+1)*n/T) with
// T = min(options.Resolve(), n). Shard boundaries depend only on (n, T),
// so concatenating per-shard results in shard order reproduces the
// serial (T = 1) order exactly.
//
// T = 1 (or n <= 1, or a nested call from a pool worker) calls
// fn(0, n, 0) inline on the calling thread -- the exact serial path.
// Otherwise the calling thread executes shards alongside the shared
// pool, so progress never depends on pool capacity.
//
// If any shard throws, the first exception (in completion order) is
// rethrown on the calling thread after all shards finish.
void ParallelFor(std::size_t n, const ParallelOptions& options,
                 const std::function<void(std::size_t begin, std::size_t end,
                                          std::size_t shard)>& fn);

// One task per index: runs fn(i) for every i in [0, n), at most
// options.Resolve() concurrently. For heterogeneous task sizes (e.g.
// one task per chain) where fixed shards would load-balance poorly.
// Same serial-path and exception semantics as ParallelFor.
void ParallelForEach(std::size_t n, const ParallelOptions& options,
                     const std::function<void(std::size_t index)>& fn);

}  // namespace monoclass

#endif  // MONOCLASS_UTIL_CONCURRENCY_H_
