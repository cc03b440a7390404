#!/usr/bin/env bash
# Copyright 2026 The monoclass Authors
# Licensed under the Apache License, Version 2.0.
#
# Runs each workload N times, each with its own seed, and prints for
# every end-to-end metric the median, the quartiles and the spread
# (q3 - q1) / median against the metric's bound in BENCHMARK.json. A
# spread under a third of the bound is "ok"; over the bound (setup_s
# excepted) fails the script. With --baseline it also prints how far
# each median moved, in the worse direction, from an earlier run's
# results file, and fails when a move exceeds the bound.
#
#   benchmark/stability.sh [-n RUNS] [--seconds S] [--first-seed K]
#                          [--workload NAME]... [--baseline FILE]
#
# Raw results land in $CARGO_TARGET_DIR (default .bench_build) under
# stability/results.jsonl, one line per run.
set -euo pipefail

runs=5
seconds=""
first_seed=1
baseline=""
workloads=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    -n) runs="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    --first-seed) first_seed="${2:?}"; shift 2 ;;
    --workload) workloads+=("${2:?}"); shift 2 ;;
    --baseline) baseline="$(realpath "${2:?}")"; shift 2 ;;
    -h|--help) sed -n '4,18p' "$0"; exit 0 ;;
    *) echo "stability.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ -z "$seconds" ]]; then
  seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
fi
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi
out_dir="${CARGO_TARGET_DIR:-.bench_build}/stability"
mkdir -p "$out_dir"
results="$out_dir/results.jsonl"
: > "$results"

for workload in "${workloads[@]}"; do
  for ((i = 0; i < runs; i++)); do
    seed=$((first_seed + i))
    start=$SECONDS
    output="$(bash benchmark/run.sh --workload "$workload" --seed "$seed" \
      --seconds "$seconds")" || true
    line="$(tail -n 1 <<<"$output")"
    echo "stability: $workload seed $seed took $((SECONDS - start)) s;" \
      "$(grep '^env:' <<<"$output")" >&2
    printf '{"workload": "%s", "seed": %d, "result": %s}\n' \
      "$workload" "$seed" "${line:-null}" >> "$results"
  done
done

python3 - "$results" "$baseline" <<'EOF'
import json
import statistics
import sys

spec = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: m for m in spec["end_to_end"]}
ok = True


def load(path):
    runs = {}
    for line in open(path):
        row = json.loads(line)
        runs.setdefault(row["workload"], []).append(row["result"])
    return runs


def medians(results):
    values = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


runs = load(sys.argv[1])
base = load(sys.argv[2]) if sys.argv[2] else {}
for workload, results in runs.items():
    bad = [r for r in results if not r or not r.get("correct")]
    if bad:
        print(f"{workload}: {len(bad)} of {len(results)} runs incorrect "
              "or without a result")
        ok = False
        continue
    values = medians(results)
    if set(values) != set(metrics):
        print(f"{workload}: metrics {sorted(values)} differ from "
              f"BENCHMARK.json {sorted(metrics)}")
        ok = False
    base_values = medians(base[workload]) if workload in base else {}
    print(f"{workload} ({len(results)} runs)")
    print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, spec_metric in metrics.items():
        series = values.get(name, [])
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = spec_metric["bound"]
        if spread <= bound / 3:
            verdict = "ok"
        elif spread <= bound or name == "setup_s":
            verdict = "wide"
        else:
            verdict = "OVER BOUND"
            ok = False
        if name in base_values:
            old = statistics.median(base_values[name])
            new = statistics.median(series)
            worse = (new - old) / old
            if spec_metric["better"] == "higher":
                worse = -worse
            verdict += f"; vs baseline {100 * worse:+.1f}%"
            if worse > bound:
                verdict += " WORSE THAN BOUND"
                ok = False
        print(f"  {name:<20} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{100 * spread:>7.2f}% {100 * bound:>5.0f}%  {verdict}")
sys.exit(0 if ok else 1)
EOF
