// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "obs/metrics.h"

#include <algorithm>
#include <limits>
#include <ostream>

#include "util/check.h"
#include "util/json.h"

namespace monoclass {
namespace obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Lock-free min/max via compare-exchange (contention is rare: histograms
// record per-phase aggregates, not per-element events).
void AtomicMin(mc::atomic<double>& target, double value) {
  double current = target.load(mc::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       mc::memory_order_relaxed)) {
  }
}

void AtomicMax(mc::atomic<double>& target, double value) {
  double current = target.load(mc::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       mc::memory_order_relaxed)) {
  }
}

void AtomicAdd(mc::atomic<double>& target, double delta) {
  double current = target.load(mc::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       mc::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Observe(double value) {
  const uint64_t previous = count_.fetch_add(1, mc::memory_order_relaxed);
  AtomicAdd(sum_, value);
  if (previous == 0) {
    // First observation seeds min/max; racing observers converge through
    // the CAS loops below.
    double expected = 0.0;
    min_.compare_exchange_strong(expected, value, mc::memory_order_relaxed);
    expected = 0.0;
    max_.compare_exchange_strong(expected, value, mc::memory_order_relaxed);
  }
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

double Histogram::Min() const {
  return Count() == 0 ? kInf : min_.load(mc::memory_order_relaxed);
}

double Histogram::Max() const {
  return Count() == 0 ? -kInf : max_.load(mc::memory_order_relaxed);
}

double Histogram::Mean() const {
  const uint64_t n = Count();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

void Histogram::Reset() {
  count_.store(0, mc::memory_order_relaxed);
  sum_.store(0.0, mc::memory_order_relaxed);
  min_.store(0.0, mc::memory_order_relaxed);
  max_.store(0.0, mc::memory_order_relaxed);
}

const MetricSample* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricSample& sample : samples) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  const MetricSample* sample = Find(name);
  if (sample == nullptr || sample->kind != MetricSample::Kind::kCounter) {
    return 0;
  }
  return static_cast<uint64_t>(sample->value);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  MC_CHECK(gauges_.find(name) == gauges_.end() &&
           histograms_.find(name) == histograms_.end() &&
           latencies_.find(name) == latencies_.end())
      << "metric '" << std::string(name) << "' already registered with a "
      << "different kind";
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  MC_CHECK(counters_.find(name) == counters_.end() &&
           histograms_.find(name) == histograms_.end() &&
           latencies_.find(name) == latencies_.end())
      << "metric '" << std::string(name) << "' already registered with a "
      << "different kind";
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(mu_);
  MC_CHECK(counters_.find(name) == counters_.end() &&
           gauges_.find(name) == gauges_.end() &&
           latencies_.find(name) == latencies_.end())
      << "metric '" << std::string(name) << "' already registered with a "
      << "different kind";
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

LatencyHistogram* MetricsRegistry::GetLatency(std::string_view name) {
  MutexLock lock(mu_);
  MC_CHECK(counters_.find(name) == counters_.end() &&
           gauges_.find(name) == gauges_.end() &&
           histograms_.find(name) == histograms_.end())
      << "metric '" << std::string(name) << "' already registered with a "
      << "different kind";
  auto it = latencies_.find(name);
  if (it == latencies_.end()) {
    it = latencies_
             .emplace(std::string(name), std::make_unique<LatencyHistogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.samples.reserve(counters_.size() + gauges_.size() +
                           histograms_.size() + latencies_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kCounter;
    sample.value = static_cast<double>(counter->Value());
    snapshot.samples.push_back(std::move(sample));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kGauge;
    sample.value = gauge->Value();
    snapshot.samples.push_back(std::move(sample));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kHistogram;
    sample.count = histogram->Count();
    sample.sum = histogram->Sum();
    sample.value = histogram->Mean();
    sample.min = sample.count == 0 ? 0.0 : histogram->Min();
    sample.max = sample.count == 0 ? 0.0 : histogram->Max();
    snapshot.samples.push_back(std::move(sample));
  }
  for (const auto& [name, latency] : latencies_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kLatency;
    sample.count = latency->Count();
    sample.sum = latency->Sum();
    sample.value = latency->Mean();
    sample.min = sample.count == 0 ? 0.0 : latency->Min();
    sample.max = sample.count == 0 ? 0.0 : latency->Max();
    sample.p50 = latency->Quantile(0.5);
    sample.p90 = latency->Quantile(0.9);
    sample.p99 = latency->Quantile(0.99);
    sample.p999 = latency->Quantile(0.999);
    snapshot.samples.push_back(std::move(sample));
  }
  // The per-kind maps are each sorted; a final sort merges them by name.
  std::sort(snapshot.samples.begin(), snapshot.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
  for (auto& [name, latency] : latencies_) latency->Reset();
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  WriteSnapshotJson(Snapshot(), out);
}

void MetricsRegistry::ExposeText(std::ostream& out) const {
  const MetricsSnapshot snapshot = Snapshot();
  for (const MetricSample& sample : snapshot.samples) {
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
        out << "# TYPE " << sample.name << " counter\n";
        out << sample.name << " " << static_cast<uint64_t>(sample.value)
            << "\n";
        break;
      case MetricSample::Kind::kGauge:
        out << "# TYPE " << sample.name << " gauge\n";
        out << sample.name << " " << JsonNumber(sample.value) << "\n";
        break;
      case MetricSample::Kind::kHistogram:
        out << "# TYPE " << sample.name << " histogram\n";
        out << sample.name << "_count " << sample.count << "\n";
        out << sample.name << "_sum " << JsonNumber(sample.sum) << "\n";
        out << sample.name << "_min " << JsonNumber(sample.min) << "\n";
        out << sample.name << "_max " << JsonNumber(sample.max) << "\n";
        break;
      case MetricSample::Kind::kLatency:
        out << "# TYPE " << sample.name << " summary\n";
        out << sample.name << "{quantile=\"0.5\"} " << JsonNumber(sample.p50)
            << "\n";
        out << sample.name << "{quantile=\"0.9\"} " << JsonNumber(sample.p90)
            << "\n";
        out << sample.name << "{quantile=\"0.99\"} " << JsonNumber(sample.p99)
            << "\n";
        out << sample.name << "{quantile=\"0.999\"} "
            << JsonNumber(sample.p999) << "\n";
        out << sample.name << "_count " << sample.count << "\n";
        out << sample.name << "_sum " << JsonNumber(sample.sum) << "\n";
        out << sample.name << "_min " << JsonNumber(sample.min) << "\n";
        out << sample.name << "_max " << JsonNumber(sample.max) << "\n";
        break;
    }
  }
}

void WriteSnapshotJson(const MetricsSnapshot& snapshot, std::ostream& out) {
  auto write_section = [&](MetricSample::Kind kind, const char* label,
                           bool trailing_comma) {
    out << "\"" << label << "\": {";
    bool first = true;
    for (const MetricSample& sample : snapshot.samples) {
      if (sample.kind != kind) continue;
      if (!first) out << ", ";
      first = false;
      out << "\"" << JsonEscape(sample.name) << "\": ";
      if (kind == MetricSample::Kind::kHistogram) {
        out << "{\"count\": " << sample.count
            << ", \"sum\": " << JsonNumber(sample.sum)
            << ", \"min\": " << JsonNumber(sample.min)
            << ", \"max\": " << JsonNumber(sample.max)
            << ", \"mean\": " << JsonNumber(sample.value) << "}";
      } else if (kind == MetricSample::Kind::kLatency) {
        out << "{\"count\": " << sample.count
            << ", \"sum\": " << JsonNumber(sample.sum)
            << ", \"min\": " << JsonNumber(sample.min)
            << ", \"max\": " << JsonNumber(sample.max)
            << ", \"mean\": " << JsonNumber(sample.value)
            << ", \"p50\": " << JsonNumber(sample.p50)
            << ", \"p90\": " << JsonNumber(sample.p90)
            << ", \"p99\": " << JsonNumber(sample.p99)
            << ", \"p999\": " << JsonNumber(sample.p999) << "}";
      } else if (kind == MetricSample::Kind::kCounter) {
        out << static_cast<uint64_t>(sample.value);
      } else {
        out << JsonNumber(sample.value);
      }
    }
    out << "}";
    if (trailing_comma) out << ", ";
  };
  out << "{";
  write_section(MetricSample::Kind::kCounter, "counters", true);
  write_section(MetricSample::Kind::kGauge, "gauges", true);
  write_section(MetricSample::Kind::kHistogram, "histograms", true);
  write_section(MetricSample::Kind::kLatency, "latencies", false);
  out << "}";
}

}  // namespace obs
}  // namespace monoclass
