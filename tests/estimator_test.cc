// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for the Lemma 5 sample-size calculator, including a statistical
// validation: at the computed sample size, the empirical deviation must
// exceed phi in at most ~delta of repeated trials (with slack for the
// test's own randomness).

#include "active/estimator.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/random.h"

namespace monoclass {
namespace {

TEST(Lemma5SampleSizeTest, MatchesClosedForm) {
  // t = ceil(max(mu/phi^2, 1/phi) * 3 ln(2/delta)).
  const double phi = 0.1;
  const double delta = 0.05;
  const double expected =
      std::ceil(std::max(1.0 / (phi * phi), 1.0 / phi) * 3.0 *
                std::log(2.0 / delta));
  EXPECT_EQ(Lemma5SampleSize(phi, delta),
            static_cast<size_t>(expected));
}

TEST(Lemma5SampleSizeTest, SmallMuUsesLinearTerm) {
  // With mu <= phi the 1/phi term dominates the mu/phi^2 term.
  const size_t with_small_mu = Lemma5SampleSize(0.1, 0.1, 0.01);
  const size_t with_large_mu = Lemma5SampleSize(0.1, 0.1, 1.0);
  EXPECT_LT(with_small_mu, with_large_mu);
}

TEST(Lemma5SampleSizeTest, MonotoneInPhiAndDelta) {
  EXPECT_GT(Lemma5SampleSize(0.01, 0.1), Lemma5SampleSize(0.1, 0.1));
  EXPECT_GT(Lemma5SampleSize(0.1, 0.001), Lemma5SampleSize(0.1, 0.1));
}

TEST(Lemma5SampleSizeTest, ChernoffConstantScalesLinearly) {
  const size_t base = Lemma5SampleSize(0.1, 0.1, 1.0, 3.0);
  const size_t reduced = Lemma5SampleSize(0.1, 0.1, 1.0, 1.5);
  EXPECT_NEAR(static_cast<double>(base),
              2.0 * static_cast<double>(reduced), 2.0);
}

TEST(Lemma5SampleSizeTest, AtLeastOne) {
  EXPECT_GE(Lemma5SampleSize(1.0, 0.999), 1u);
}

TEST(Lemma5SampleSizeTest, SaturatesWhenTheSizeOverflows) {
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  // eps = 1e-9 under the Practical preset (phi = eps / 8, C = 0.25):
  // t is about 2.3e20, past 2^64.
  EXPECT_EQ(Lemma5SampleSize(1e-9 / 8.0, 1e-6, 1.0, 0.25), kMax);
  // phi^2 underflows to 0, so t is +inf.
  EXPECT_EQ(Lemma5SampleSize(1e-170, 0.1), kMax);
  // eps = 1e-6 still fits: about 1.95e14 (one chain, delta = 0.01).
  EXPECT_LT(Lemma5SampleSize(1e-6 / 8.0, 0.01, 1.0, 0.25), kMax);
}

TEST(Lemma5SampleSizeTest, RejectsBadArguments) {
  EXPECT_DEATH(Lemma5SampleSize(0.0, 0.1), "");
  EXPECT_DEATH(Lemma5SampleSize(0.1, 0.0), "");
  EXPECT_DEATH(Lemma5SampleSize(1.5, 0.1), "");
}

// The statistical content of Lemma 5 (experiment E9 in miniature): for a
// grid of (mu, phi, delta), the fraction of trials with |estimate - mu|
// >= phi stays below delta (paper bound) -- here we allow 2x slack since
// the test itself is a random experiment.
TEST(Lemma5StatisticalTest, DeviationBoundHolds) {
  Rng rng(12345);
  const double kDelta = 0.1;
  for (const double mu : {0.05, 0.3, 0.7}) {
    for (const double phi : {0.05, 0.15}) {
      const size_t t = Lemma5SampleSize(phi, kDelta, mu);
      int violations = 0;
      const int kTrials = 400;
      for (int trial = 0; trial < kTrials; ++trial) {
        const double estimate = EstimateBernoulliMean(rng, mu, t);
        if (std::abs(estimate - mu) >= phi) ++violations;
      }
      const double violation_rate =
          static_cast<double>(violations) / kTrials;
      EXPECT_LE(violation_rate, 2.0 * kDelta)
          << "mu=" << mu << " phi=" << phi << " t=" << t;
    }
  }
}

TEST(EstimateBernoulliMeanTest, DegenerateMeans) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(EstimateBernoulliMean(rng, 0.0, 100), 0.0);
  EXPECT_DOUBLE_EQ(EstimateBernoulliMean(rng, 1.0, 100), 1.0);
}

}  // namespace
}  // namespace monoclass
