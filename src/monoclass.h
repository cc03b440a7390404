// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Umbrella header: the whole public API in one include.
//
//   #include "monoclass.h"
//
// Fine-grained headers remain available for compile-time-sensitive users;
// see README.md for the module map.

#ifndef MONOCLASS_MONOCLASS_H_
#define MONOCLASS_MONOCLASS_H_

// Core types: points, dominance, datasets, classifiers, metrics.
#include "core/antichain.h"
#include "core/chain_decomposition.h"
#include "core/chain_decomposition_2d.h"
#include "core/classifier.h"
#include "core/dataset.h"
#include "core/dominance.h"
#include "core/invariant_audit.h"
#include "core/metrics.h"
#include "core/paper_example.h"
#include "core/point.h"

// Passive (fully labeled) solvers -- paper Problem 2.
#include "passive/brute_force.h"
#include "passive/contending.h"
#include "passive/flow_solver.h"
#include "passive/incremental_solver.h"
#include "passive/isotonic_1d.h"
#include "passive/sparse_network.h"
#include "passive/staircase_2d.h"
#include "passive/threshold_index.h"

// Active (probe-budgeted) solvers -- paper Problem 1.
#include "active/baselines.h"
#include "active/error_curve.h"
#include "active/estimator.h"
#include "active/lower_bound.h"
#include "active/multi_d.h"
#include "active/one_d.h"
#include "active/oracle.h"
#include "active/params.h"
#include "active/sample_audit.h"

// Workload generation and I/O.
#include "data/entity_matching.h"
#include "data/similarity.h"
#include "data/synthetic.h"
#include "io/serialization.h"

// Serving: framed wire protocol, resumable sessions, monoclassd server
// core and blocking client (see docs/serving.md).
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/session.h"
#include "net/socket.h"
#include "net/wire.h"

// Observability: metrics registry, trace spans, probe-budget accounting
// (see docs/observability.md).
#include "obs/flight.h"
#include "obs/latency_histogram.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/probe_budget.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

// Graph substrate (exposed for users who need max flow / matching
// directly), including the individual solver classes.
#include "graph/dinic.h"
#include "graph/edmonds_karp.h"
#include "graph/flow_audit.h"
#include "graph/matching.h"
#include "graph/max_flow.h"
#include "graph/path_cover.h"

// Utilities: invariant auditing, deterministic randomness, experiment
// bookkeeping.
#include "util/audit.h"
#include "util/check.h"
#include "util/concurrency.h"
#include "util/json.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

#endif  // MONOCLASS_MONOCLASS_H_
