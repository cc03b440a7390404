// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "obs/obs.h"

#include <cstdlib>

#include "obs/flight.h"
#include "obs/latency_histogram.h"
#include "obs/metrics.h"
#include "util/concurrency.h"

#ifndef MONOCLASS_GIT_SHA
#define MONOCLASS_GIT_SHA "unknown"
#endif
#ifndef MONOCLASS_BUILD_TYPE
#define MONOCLASS_BUILD_TYPE "unknown"
#endif

namespace monoclass {
namespace obs {
namespace internal {

mc::atomic<int> g_enabled_state{-1};

namespace {

bool EnvTruthy(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return false;
  const std::string v(value);
  return v == "1" || v == "on" || v == "ON" || v == "true" || v == "TRUE";
}

}  // namespace

bool InitEnabledFromEnv() {
  const bool enabled = EnvTruthy("MONOCLASS_OBS");
  int expected = -1;
  g_enabled_state.compare_exchange_strong(expected, enabled ? 1 : 0,
                                          mc::memory_order_relaxed);
  return g_enabled_state.load(mc::memory_order_relaxed) != 0;
}

}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled_state.store(enabled ? 1 : 0,
                                  mc::memory_order_relaxed);
}

void InitFromEnv() {
  Enabled();  // resolves MONOCLASS_OBS if still unset
  if (internal::EnvTruthy("MONOCLASS_TRACE")) {
    // MC_LATENCY scopes and MC_COUNTER deltas reach the capture only
    // while obs is on, and a trace without metrics is rarely wanted.
    SetEnabled(true);
    StartFlightCapture();
  }
}

std::string BuildGitSha() { return MONOCLASS_GIT_SHA; }

std::string BuildType() { return MONOCLASS_BUILD_TYPE; }

#if MC_OBS_COMPILED

namespace {

// Pool/lock-activity hooks: util/concurrency cannot depend on the obs
// layer (obs sits above util), so the pool reports through the
// internal::PoolHooks function-pointer struct instead. Every metric the
// hook bodies touch is resolved eagerly at install time -- the
// mutex_contended hook in particular runs while the contended mutex is
// still held, which may be the registry's own mu_, so a lazy
// GetCounter() there would self-deadlock. Hook bodies are lock-free:
// relaxed atomic updates plus (for pool tasks) a flight-recorder write,
// which allocates only while the whole-run capture is on.
struct PoolMetricSinks {
  Counter* tasks;
  Counter* contentions;
  Gauge* queue_depth_now;
  Histogram* queue_depth;
  LatencyHistogram* task_wait;
  LatencyHistogram* task_run;
  LatencyHistogram* mutex_wait;
  uint32_t pool_task_flight_name;
};

PoolMetricSinks* g_pool_sinks = nullptr;

void PoolTaskEnqueued(std::size_t queue_depth) {
  if (!Enabled()) return;
  g_pool_sinks->queue_depth->Observe(static_cast<double>(queue_depth));
  g_pool_sinks->queue_depth_now->Set(static_cast<double>(queue_depth));
}

void PoolTaskStarted(double queue_wait_us) {
  if (Enabled()) {
    g_pool_sinks->tasks->Add(1);
    g_pool_sinks->task_wait->Observe(queue_wait_us);
  }
  if (FlightRecordingActive()) {
    RecordFlightEvent(FlightEventType::kPoolTask,
                      g_pool_sinks->pool_task_flight_name, queue_wait_us);
  }
}

void PoolTaskFinished(double run_us) {
  if (!Enabled()) return;
  g_pool_sinks->task_run->Observe(run_us);
}

void MutexContended(double wait_us) {
  if (!Enabled()) return;
  g_pool_sinks->contentions->Add(1);
  g_pool_sinks->mutex_wait->Observe(wait_us);
}

// Installed at static-init time. Any binary whose code expands an MC_*
// macro links this translation unit (obs::Enabled lives here), so every
// instrumented build observes its pool automatically. When the build
// compiles obs out this whole block disappears and the hooks stay null,
// keeping the pool's hot path hook-free.
[[maybe_unused]] const bool g_pool_hooks_installed = [] {
  auto& registry = MetricsRegistry::Global();
  g_pool_sinks = new PoolMetricSinks{
      registry.GetCounter("mc.pool.tasks"),
      registry.GetCounter("mc.pool.mutex_contentions"),
      registry.GetGauge("mc.pool.queue_depth_now"),
      registry.GetHistogram("mc.pool.queue_depth"),
      registry.GetLatency("mc.lat.pool_task_wait"),
      registry.GetLatency("mc.lat.pool_task_run"),
      registry.GetLatency("mc.lat.mutex_wait"),
      InternFlightName("pool/task"),
  };
  ::monoclass::internal::PoolHooks hooks;
  hooks.task_enqueued = &PoolTaskEnqueued;
  hooks.task_started = &PoolTaskStarted;
  hooks.task_finished = &PoolTaskFinished;
  hooks.mutex_contended = &MutexContended;
  ::monoclass::internal::SetPoolHooks(hooks);
  return true;
}();

}  // namespace

#endif  // MC_OBS_COMPILED

}  // namespace obs
}  // namespace monoclass
