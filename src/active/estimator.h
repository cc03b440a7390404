// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Sample-size calculators and estimation helpers built on the paper's
// Lemma 5 (Chernoff-bound estimation of a Bernoulli mean up to absolute
// error phi with failure probability delta).

#ifndef MONOCLASS_ACTIVE_ESTIMATOR_H_
#define MONOCLASS_ACTIVE_ESTIMATOR_H_

#include <cstddef>

#include "util/random.h"

namespace monoclass {

// Lemma 5: t >= ceil(max(mu/phi^2, 1/phi) * C * ln(2/delta)) independent
// Bernoulli(mu) draws estimate mu within +-phi except with probability
// delta. `mu_upper_bound` is any known upper bound on mu (1 when unknown);
// `chernoff_constant` is the paper's 3 (exposed so experiment presets can
// trade proof constants for sample size; see ActiveSamplingParams).
// Saturates at SIZE_MAX when t does not fit in a size_t.
size_t Lemma5SampleSize(double phi, double delta, double mu_upper_bound = 1.0,
                        double chernoff_constant = 3.0);

// Draws `t` Bernoulli(mu) samples and returns the empirical mean (used by
// the Lemma 5 validation experiment E9).
double EstimateBernoulliMean(Rng& rng, double mu, size_t t);

}  // namespace monoclass

#endif  // MONOCLASS_ACTIVE_ESTIMATOR_H_
