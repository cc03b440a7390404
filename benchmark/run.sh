#!/usr/bin/env bash
# Copyright 2026 The monoclass Authors
# Licensed under the Apache License, Version 2.0.
#
# The benchmark's one command (benchmark/README.md). Builds mcbench
# and monoclassd from this checkout if needed, then runs one workload,
# or all four, each in its own process. Each run prints its metrics by
# name with their units; its last line is its JSON result. Exits
# non-zero if the build fails or any correctness gate fails.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced]
#
# Build outputs go to $CARGO_TARGET_DIR (default .bench_build): the
# CMake tree under cmake/, traces and daemon files under out/.
set -euo pipefail

usage() {
  cat <<'EOF'
usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
                        [--trace 0|1 | --traced]
  --workload NAME  passive_cold, active_solve, incremental_stream or serve
                   (repeatable; default: all four)
  --seed N         input seed (default 1)
  --seconds S      measured window per run (default 30)
  --trace 0|1      1 = traced run: per-layer metrics and TRACE_<name>.json
  --traced         same as --trace 1
EOF
}

workloads=()
seed=1
seconds=30
trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads+=("${2:?--workload needs a value}"); shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --trace) trace="${2:?--trace needs a value}"; shift 2 ;;
    --traced) trace=1; shift ;;
    -h|--help) usage; exit 0 ;;
    *) usage >&2; exit 2 ;;
  esac
done
if [[ "$trace" != 0 && "$trace" != 1 ]]; then
  usage >&2
  exit 2
fi
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(passive_cold active_solve incremental_stream serve)
fi

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
cmake_dir="$build/cmake"
out_dir="$build/out"

# Build logs go to stderr so stdout carries only results.
{
  if [[ ! -f "$cmake_dir/build.ninja" && ! -f "$cmake_dir/Makefile" ]]; then
    generator=()
    if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
    cmake -S benchmark -B "$cmake_dir" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$cmake_dir" --target mcbench -j "$(nproc)"
} >&2
mkdir -p "$out_dir"

status=0
for workload in "${workloads[@]}"; do
  "$cmake_dir/mcbench" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" --out-dir "$out_dir" || status=1
done
exit "$status"
