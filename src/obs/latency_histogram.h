// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// HDR-style latency histogram: log2 octaves subdivided into linear
// sub-buckets, so every recorded value lands in a bucket whose width is
// at most 1/kSubBuckets of its magnitude. Quantiles (p50/p90/p99/p999)
// are computed exactly from the bucket counts by nearest rank, with a
// worst-case relative error of one sub-bucket width (~3% at 32
// sub-buckets per octave) -- unlike util/stats.h RunningStat::Quantile,
// which keeps every sample and interpolates between order statistics.
//
// Updates are single relaxed atomic increments (plus CAS loops for
// sum/min/max), so a LatencyHistogram can be hammered from every pool
// worker concurrently. Merge() folds one histogram into another bucket
// by bucket, and is associative: merging per-shard histograms in any
// grouping yields identical counts and therefore identical quantiles.
//
// The value domain is microseconds: buckets span 2^kMinExponent us
// (~62 ns) to 2^(kMaxExponent+1) us (~19 h), with dedicated underflow
// and overflow buckets outside that range.

#ifndef MONOCLASS_OBS_LATENCY_HISTOGRAM_H_
#define MONOCLASS_OBS_LATENCY_HISTOGRAM_H_

#include <cstdint>

#include "util/sync_model.h"

namespace monoclass {
namespace obs {

class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // per octave
  static constexpr int kMinExponent = -4;  // first octave covers [2^-4, 2^-3)
  static constexpr int kMaxExponent = 35;  // last octave covers [2^35, 2^36)
  static constexpr int kNumOctaves = kMaxExponent - kMinExponent + 1;
  // Bucket 0 absorbs v < 2^kMinExponent (and v <= 0 / NaN); the last
  // bucket absorbs v >= 2^(kMaxExponent+1).
  static constexpr int kNumBuckets = kNumOctaves * kSubBuckets + 2;

  void Observe(double value_us);

  uint64_t Count() const { return count_.load(mc::memory_order_relaxed); }
  double Sum() const { return sum_.load(mc::memory_order_relaxed); }
  double Min() const;  // +inf when empty
  double Max() const;  // -inf when empty
  double Mean() const;
  uint64_t BucketCount(int bucket) const;

  // Nearest-rank quantile from the bucket counts, q in [0, 1]. Returns
  // the arithmetic midpoint of the selected bucket clamped to the exact
  // recorded [Min(), Max()], so a histogram holding one distinct value
  // reports that value exactly at every q. 0 when empty.
  double Quantile(double q) const;

  // Folds `other` into this histogram (bucket-wise adds plus
  // count/sum/min/max). Not atomic as a whole: concurrent Observe()
  // calls on either side land in one or the other consistently, but
  // callers that need an exact union should quiesce writers first.
  void Merge(const LatencyHistogram& other);

  void Reset();

  // Bucket geometry, exposed for tests and the exposition writer.
  static int BucketIndex(double value_us);
  static double BucketLowerBound(int bucket);  // inclusive; 0 for bucket 0
  static double BucketUpperBound(int bucket);  // exclusive; +inf for the last

 private:
  mc::atomic<uint64_t> count_{0};
  mc::atomic<double> sum_{0.0};
  mc::atomic<double> min_;  // +inf until first Observe
  mc::atomic<double> max_;  // -inf until first Observe
  mc::atomic<uint64_t> buckets_[kNumBuckets] = {};

 public:
  LatencyHistogram();
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;
};

}  // namespace obs
}  // namespace monoclass

#endif  // MONOCLASS_OBS_LATENCY_HISTOGRAM_H_
