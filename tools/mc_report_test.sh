#!/usr/bin/env bash
# Self-test for tools/mc_report.cc (and mc_top's --once mode): pins the
# schema contracts CI leans on --
#
#   * --validate accepts a well-formed v3 bench report and rejects one
#     whose manifest lost "threads" or whose metrics lost "latencies",
#     and a bare metrics snapshot, which is no known file kind;
#   * --compare hard-fails on schema-invalid inputs (historically it
#     kind-sniffed only, so a truncated baseline passed vacuously) and
#     still catches counter drift between two valid reports;
#   * --validate accepts the X/C/i Chrome-trace shapes the flight
#     recorder emits, and rejects a negative-dur X and B/E events;
#   * --flight rejects garbage dumps; with a bench binary available
#     (MC_BENCH_MAXFLOW) a real --telemetry-dump run round-trips:
#     exposition parses, the flight dump decodes to a trace that
#     validates, and mc_top --once renders it.
set -u

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
script_dir="$(cd "$(dirname "$0")" && pwd)"

find_tool() {
  # $1 = env var value (may be empty), $2 = binary name
  if [ -n "$1" ] && [ -x "$1" ]; then
    printf '%s' "$1"
    return
  fi
  ls -t "$script_dir"/../build*/tools/"$2" 2>/dev/null | head -1
}

mc_report="$(find_tool "${MC_REPORT:-}" mc_report)"
mc_top="$(find_tool "${MC_TOP:-}" mc_top)"
if [ -z "$mc_report" ] || [ ! -x "$mc_report" ]; then
  echo "mc_report_test: no mc_report binary (set MC_REPORT)" >&2
  exit 2
fi

failures=0
fail() {
  echo "mc_report_test: $1" >&2
  failures=$((failures + 1))
}

expect_ok() {
  # $1 = description; rest = command
  local desc="$1"; shift
  if ! out="$("$@" 2>&1)"; then
    fail "expected OK for $desc, got:"$'\n'"$out"
  fi
}

expect_fail() {
  # $1 = description, $2 = required output fragment; rest = command
  local desc="$1" frag="$2"; shift 2
  if out="$("$@" 2>&1)"; then
    fail "expected FAILURE for $desc, command succeeded"
  elif [ -n "$frag" ] && ! printf '%s' "$out" | grep -qF "$frag"; then
    fail "expected \"$frag\" in output for $desc, got:"$'\n'"$out"
  fi
}

# --- fixtures -----------------------------------------------------------

# The sed surgeries below are line-based, so each JSON fixture keeps the
# manifest "threads" field and the whole metrics object on single lines.
write_bench() {
  # $1 = output path, $2 = mc.flow.augments counter value
  cat > "$1" <<EOF
{"schema_version":3,"manifest":{"experiment":"SELFTEST",
"artifact":"mc_report self-test","claim":"schema contracts hold",
"git_sha":"0000000","build_type":"Release","obs_enabled":true,
"threads":8,"params":{"n":"16"}},
"phases":[{"name":"solve","wall_ms":1.25,
"counters":{"mc.flow.augments":$2}}],
"metrics":{"counters":{"mc.flow.augments":$2},"gauges":{},"histograms":{},"latencies":{"mc.lat.maxflow_solve":{"count":4,"sum":100.0,"min":20.0,"max":30.0,"mean":25.0,"p50":24.0,"p90":29.0,"p99":30.0,"p999":30.0}}},
"dropped_spans":0}
EOF
}

write_bench "$tmp/good.json" 42
write_bench "$tmp/drift.json" 43

# --- --validate: v3 schema ----------------------------------------------

expect_ok "a well-formed v3 bench report" \
  "$mc_report" --validate "$tmp/good.json"

sed 's/"threads":8,//' "$tmp/good.json" > "$tmp/no_threads.json"
expect_fail "a manifest missing threads" 'missing key "threads"' \
  "$mc_report" --validate "$tmp/no_threads.json"

sed 's/"latencies":{[^}]*}}}/"latencies_gone":{}}/' "$tmp/good.json" \
  > "$tmp/no_latencies.json"
expect_fail "a v3 report without metrics.latencies" \
  'missing key "latencies"' \
  "$mc_report" --validate "$tmp/no_latencies.json"

# A bare metrics snapshot is not a file kind mc_report knows: nothing
# writes one outside a bench report.
printf '{"counters":{"mc.flow.augments":42},"gauges":{},"histograms":{}}\n' \
  > "$tmp/metrics_only.json"
expect_fail "a bare metrics snapshot" "unrecognized file kind" \
  "$mc_report" --validate "$tmp/metrics_only.json"

# --- --compare: hard validation + drift ---------------------------------

expect_ok "comparing a report against itself" \
  "$mc_report" --compare "$tmp/good.json" "$tmp/good.json"

expect_fail "comparing against a drifted counter" "DRIFT" \
  "$mc_report" --compare "$tmp/good.json" "$tmp/drift.json"

# The regression this test exists for: a baseline that sniffs as a bench
# report but is schema-invalid must fail the gate, not pass it silently.
expect_fail "a compare baseline missing threads" 'missing key "threads"' \
  "$mc_report" --compare "$tmp/no_threads.json" "$tmp/good.json"
expect_fail "a compare current missing threads" 'missing key "threads"' \
  "$mc_report" --compare "$tmp/good.json" "$tmp/no_threads.json"

# --- --validate: flight-style Chrome traces -----------------------------

cat > "$tmp/trace_x.json" <<'EOF'
{"traceEvents":[
{"ph":"X","ts":10.0,"dur":5.0,"tid":1,"pid":1,"name":"mc.lat.solve"},
{"ph":"C","ts":12.0,"tid":1,"pid":1,"name":"mc.flow.augments",
 "args":{"value":3}},
{"ph":"i","ts":13.0,"tid":2,"pid":1,"name":"pool.task","s":"t"},
{"ph":"X","ts":14.0,"dur":1.0,"tid":2,"pid":1,"name":"outer"}
]}
EOF
expect_ok "a trace mixing X/C/i" \
  "$mc_report" --validate "$tmp/trace_x.json"

cat > "$tmp/trace_be.json" <<'EOF'
{"traceEvents":[
{"ph":"B","ts":14.0,"tid":2,"pid":1,"name":"outer"},
{"ph":"E","ts":15.0,"tid":2,"pid":1,"name":"outer"}
]}
EOF
expect_fail "a trace of B/E events" 'unexpected ph "B"' \
  "$mc_report" --validate "$tmp/trace_be.json"

cat > "$tmp/trace_bad.json" <<'EOF'
{"traceEvents":[
{"ph":"X","ts":10.0,"dur":-1.0,"tid":1,"pid":1,"name":"backwards"}
]}
EOF
expect_fail "an X event with negative dur" "negative dur" \
  "$mc_report" --validate "$tmp/trace_bad.json"

# --- --flight: malformed dumps ------------------------------------------

printf 'NOTFLIGH' > "$tmp/garbage.flight"
expect_fail "a dump with a wrong magic" "" \
  "$mc_report" --flight "$tmp/garbage.flight"

# Regression fixtures for the reserve-before-read hazard: ReadFlightDump
# must fail fast on claims the stream cannot back, without allocating on
# the say-so of a corrupt header.
: > "$tmp/empty.flight"
expect_fail "an empty dump" "bad magic" \
  "$mc_report" --flight "$tmp/empty.flight"

printf 'MCFLIGHT' > "$tmp/headerless.flight"
expect_fail "a dump cut off after the magic" "version" \
  "$mc_report" --flight "$tmp/headerless.flight"

# magic + v1 + name_count=1 + name_len=16, then only 4 of the 16 bytes.
printf 'MCFLIGHT\x01\x00\x00\x00\x01\x00\x00\x00\x10\x00\x00\x00abcd' \
  > "$tmp/truncated_names.flight"
expect_fail "a dump with a truncated name table" "truncated name table" \
  "$mc_report" --flight "$tmp/truncated_names.flight"

# Valid empty name table and counters, then an event-count header of
# 2^40: over the decoder's cap, must be rejected before any reserve.
{
  printf 'MCFLIGHT\x01\x00\x00\x00\x00\x00\x00\x00'
  printf '\x00\x00\x00\x00\x00\x00\x00\x00'  # overwritten
  printf '\x00\x00\x00\x00\x00\x00\x00\x00'  # torn
  printf '\x00\x00\x00\x00\x00\x01\x00\x00'  # 2^40 events
} > "$tmp/absurd_count.flight"
expect_fail "a dump claiming 2^40 events" "corrupt event count" \
  "$mc_report" --flight "$tmp/absurd_count.flight"

# A million claimed events (within the cap) backed by zero bytes: the
# historical hazard was a multi-GiB reserve here before the first read
# could fail.
{
  printf 'MCFLIGHT\x01\x00\x00\x00\x00\x00\x00\x00'
  printf '\x00\x00\x00\x00\x00\x00\x00\x00'  # overwritten
  printf '\x00\x00\x00\x00\x00\x00\x00\x00'  # torn
  printf '\x40\x42\x0f\x00\x00\x00\x00\x00'  # 1e6 events, no event bytes
} > "$tmp/truncated_events.flight"
expect_fail "a dump with a bare million-event header" \
  "truncated event stream" \
  "$mc_report" --flight "$tmp/truncated_events.flight"

# --- end to end against a real bench run --------------------------------

bench="${MC_BENCH_MAXFLOW:-}"
if [ -n "$bench" ] && [ -x "$bench" ]; then
  ( cd "$tmp" && MONOCLASS_BENCH_OUT="$tmp" \
      "$bench" --telemetry-dump "$tmp/telemetry.txt" \
               --telemetry-interval-ms 50 > /dev/null 2>&1 ) \
    || fail "bench_maxflow --telemetry-dump exited non-zero"

  if [ ! -s "$tmp/telemetry.txt" ]; then
    fail "no exposition file written by --telemetry-dump"
  elif ! head -1 "$tmp/telemetry.txt" \
      | grep -q '^# monoclass exposition v1'; then
    fail "exposition file missing the v1 header"
  elif ! grep -q '^mc\.lat\.maxflow_solve{quantile="0.5"} ' \
      "$tmp/telemetry.txt"; then
    fail "exposition has no mc.lat.maxflow_solve p50 sample"
  fi

  if [ ! -s "$tmp/telemetry.txt.flight" ]; then
    fail "no flight dump written by --telemetry-dump"
  else
    if ! "$mc_report" --flight "$tmp/telemetry.txt.flight" \
        > "$tmp/flight_trace.json" 2> "$tmp/flight_summary.txt"; then
      fail "mc_report --flight cannot decode the dump:"$'\n'"$(cat "$tmp/flight_summary.txt")"
    else
      expect_ok "the decoded flight trace validating" \
        "$mc_report" --validate "$tmp/flight_trace.json"
      grep -qF ' event(s), ' "$tmp/flight_summary.txt" \
        || fail "--flight printed no decode summary"
    fi
  fi

  # The BENCH json the run wrote must validate as v3.
  expect_ok "the real BENCH_E3.json validating" \
    "$mc_report" --validate "$tmp/BENCH_E3.json"

  if [ -n "$mc_top" ] && [ -x "$mc_top" ]; then
    top_out="$("$mc_top" --once "$tmp/telemetry.txt" 2>&1)" \
      || fail "mc_top --once exited non-zero:"$'\n'"$top_out"
    printf '%s' "$top_out" | grep -q 'mc\.lat\.maxflow_solve' \
      || fail "mc_top frame does not show mc.lat.maxflow_solve:"$'\n'"$top_out"
    expect_fail "mc_top --once on a missing file" "" \
      "$mc_top" --once "$tmp/definitely_missing.txt"
  fi
fi

if [ "$failures" -ne 0 ]; then
  echo "mc_report_test: $failures failure(s)" >&2
  exit 1
fi
echo "mc_report_test: OK"
