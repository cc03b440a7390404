// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "active/estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace monoclass {

size_t Lemma5SampleSize(double phi, double delta, double mu_upper_bound,
                        double chernoff_constant) {
  MC_CHECK_GT(phi, 0.0);
  MC_CHECK_LE(phi, 1.0);
  MC_CHECK_GT(delta, 0.0);
  MC_CHECK_LE(delta, 1.0);
  MC_CHECK_GE(mu_upper_bound, 0.0);
  MC_CHECK_GT(chernoff_constant, 0.0);
  const double factor =
      std::max(mu_upper_bound / (phi * phi), 1.0 / phi);
  const double t = std::ceil(factor * chernoff_constant * std::log(2.0 / delta));
  MC_CHECK_GE(t, 0.0);
  // A size that size_t cannot hold (+inf once phi^2 underflows) would be
  // undefined to cast; it saturates, and callers probe the whole level.
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  if (t >= static_cast<double>(kMax)) return kMax;
  return static_cast<size_t>(std::max(t, 1.0));
}

double EstimateBernoulliMean(Rng& rng, double mu, size_t t) {
  MC_CHECK_GE(t, 1u);
  size_t successes = 0;
  for (size_t i = 0; i < t; ++i) {
    if (rng.Bernoulli(mu)) ++successes;
  }
  return static_cast<double>(successes) / static_cast<double>(t);
}

}  // namespace monoclass
