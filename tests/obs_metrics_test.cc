// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for the metrics registry (obs/metrics.h): counter / gauge /
// histogram semantics, snapshots, JSON validity of the dump, the runtime
// enable switch, and thread safety of the hot path.

#include "obs/metrics.h"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.h"
#include "util/concurrency.h"
#include "util/json.h"

namespace monoclass {
namespace obs {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add(3);
  counter.Add(4);
  EXPECT_EQ(counter.Value(), 7u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, KeepsLastValue) {
  Gauge gauge;
  gauge.Set(1.5);
  gauge.Set(-2.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), -2.0);
}

TEST(HistogramTest, TracksMoments) {
  Histogram histogram;
  EXPECT_EQ(histogram.Count(), 0u);
  EXPECT_TRUE(std::isinf(histogram.Min()));
  for (const double v : {1.0, 2.0, 3.0, 10.0}) histogram.Observe(v);
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 16.0);
  EXPECT_DOUBLE_EQ(histogram.Min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), 10.0);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 4.0);
}

TEST(MetricsRegistryTest, CreateOnDemandWithStablePointers) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* a = registry.GetCounter("test.registry.stable");
  Counter* b = registry.GetCounter("test.registry.stable");
  EXPECT_EQ(a, b);
  a->Add(5);
  EXPECT_EQ(registry.Snapshot().CounterValue("test.registry.stable"), 5u);
}

TEST(MetricsRegistryTest, SnapshotSortedAndTyped) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.snapshot.c")->Add(1);
  registry.GetGauge("test.snapshot.g")->Set(2.5);
  registry.GetHistogram("test.snapshot.h")->Observe(7.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  for (size_t i = 1; i < snapshot.samples.size(); ++i) {
    EXPECT_LE(snapshot.samples[i - 1].name, snapshot.samples[i].name);
  }
  const MetricSample* gauge = snapshot.Find("test.snapshot.g");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->kind, MetricSample::Kind::kGauge);
  EXPECT_DOUBLE_EQ(gauge->value, 2.5);
  const MetricSample* histogram = snapshot.Find("test.snapshot.h");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->count, 1u);
  EXPECT_DOUBLE_EQ(histogram->sum, 7.0);
  EXPECT_EQ(snapshot.Find("test.snapshot.missing"), nullptr);
}

TEST(MetricsRegistryTest, ResetAllZeroesWithoutInvalidating) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.reset.c");
  counter->Add(9);
  registry.ResetAll();
  EXPECT_EQ(counter->Value(), 0u);
  counter->Add(2);  // pointer still valid
  EXPECT_EQ(registry.Snapshot().CounterValue("test.reset.c"), 2u);
}

TEST(MetricsRegistryTest, KindCollisionDies) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.collision.name");
  EXPECT_DEATH(registry.GetGauge("test.collision.name"), "kind");
}

TEST(MetricsRegistryTest, LatencyKindCollisionDies) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetLatency("test.collision.latency");
  EXPECT_DEATH(registry.GetHistogram("test.collision.latency"), "kind");
}

TEST(MetricsRegistryTest, LatencySnapshotCarriesQuantiles) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  LatencyHistogram* latency = registry.GetLatency("test.lat.snapshot");
  EXPECT_EQ(latency, registry.GetLatency("test.lat.snapshot"));
  for (int i = 1; i <= 100; ++i) latency->Observe(static_cast<double>(i));
  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricSample* sample = snapshot.Find("test.lat.snapshot");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->kind, MetricSample::Kind::kLatency);
  EXPECT_EQ(sample->count, 100u);
  EXPECT_GT(sample->p50, 0.0);
  EXPECT_GE(sample->p99, sample->p50);
  EXPECT_GE(sample->p999, sample->p99);
  EXPECT_DOUBLE_EQ(sample->max, 100.0);
}

TEST(MetricsRegistryTest, ExposeTextIsParsableAndTyped) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.expose.c")->Add(4);
  registry.GetGauge("test.expose.g")->Set(2.5);
  registry.GetLatency("test.lat.expose")->Observe(10.0);
  std::ostringstream out;
  registry.ExposeText(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE test.expose.c counter\ntest.expose.c 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test.expose.g gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test.lat.expose summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("test.lat.expose{quantile=\"0.5\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("test.lat.expose_count 1\n"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonDumpIsValidJson) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.json.c\"quoted\"")->Add(3);
  registry.GetHistogram("test.json.h")->Observe(1.5);
  std::ostringstream out;
  registry.WriteJson(out);
  std::string error;
  const auto doc = JsonValue::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* quoted = counters->Find("test.json.c\"quoted\"");
  ASSERT_NE(quoted, nullptr);
  EXPECT_DOUBLE_EQ(quoted->AsNumber(), 3.0);
  const JsonValue* histograms = doc->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* h = histograms->Find("test.json.h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->Find("count")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(h->Find("mean")->AsNumber(), 1.5);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesDoNotRace) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.threads.c");
  counter->Reset();
  Histogram* histogram = registry.GetHistogram("test.threads.h");
  histogram->Reset();
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  // Concurrent updaters via the library's own pool (raw standard-library
  // threads are banned outside util/concurrency; mc_lint rule MC006).
  ParallelForEach(kThreads, ParallelOptions{.threads = kThreads},
                  [&](size_t) {
                    for (int i = 0; i < kIters; ++i) {
                      counter->Add(1);
                      histogram->Observe(static_cast<double>(i % 7 + 1));
                    }
                  });
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * static_cast<uint64_t>(kIters));
  EXPECT_EQ(histogram->Count(),
            static_cast<uint64_t>(kThreads) * static_cast<uint64_t>(kIters));
  EXPECT_DOUBLE_EQ(histogram->Min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram->Max(), 7.0);
}

TEST(ObsEnabledTest, MacrosRespectRuntimeSwitch) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  SetEnabled(false);
  MC_COUNTER("test.enabled.c", 1);
  EXPECT_EQ(registry.Snapshot().CounterValue("test.enabled.c"), 0u);
  SetEnabled(true);
  MC_COUNTER("test.enabled.c", 1);
  MC_COUNTER("test.enabled.c", 2);
  EXPECT_EQ(registry.Snapshot().CounterValue("test.enabled.c"), 3u);
  SetEnabled(false);
  MC_COUNTER("test.enabled.c", 10);
  EXPECT_EQ(registry.Snapshot().CounterValue("test.enabled.c"), 3u);
}

TEST(BuildMetadataTest, NonEmpty) {
  EXPECT_FALSE(BuildGitSha().empty());
  EXPECT_FALSE(BuildType().empty());
}

}  // namespace
}  // namespace obs
}  // namespace monoclass
