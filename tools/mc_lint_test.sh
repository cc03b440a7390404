#!/usr/bin/env bash
# Golden self-test for tools/mc_lint.cc: builds throwaway source trees
# containing one deliberate violation per rule and asserts that mc_lint
# reports exactly that rule id (machine-readable "[MCxxx]" tag) at a
# plausible location -- plus negative cases proving the tokenizer does
# not fire on comments, strings, or sanctioned files. Where a rule's
# message text matters to a reader, the case also pins a fragment of it.
set -u

script_dir="$(cd "$(dirname "$0")" && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Compile mc_lint once (reuse $MC_LINT or a built binary when present).
mc_lint="${MC_LINT:-}"
if [ -z "$mc_lint" ] || [ ! -x "$mc_lint" ]; then
  mc_lint="$(ls -t "$script_dir"/../build*/tools/mc_lint 2>/dev/null | head -1)"
fi
if [ -z "$mc_lint" ] || [ ! -x "$mc_lint" ]; then
  mc_lint="$tmp/mc_lint"
  "${CXX:-c++}" -std=c++20 -O2 -o "$mc_lint" "$script_dir/mc_lint.cc" \
    || { echo "mc_lint_test: cannot compile mc_lint.cc" >&2; exit 2; }
fi

failures=0
fail() {
  echo "mc_lint_test: $1" >&2
  failures=$((failures + 1))
}

header_boilerplate() {
  # $1 = guard name
  printf '// Copyright 2026 The monoclass Authors\n'
  printf '// Licensed under the Apache License, Version 2.0.\n\n'
  printf '#ifndef %s\n#define %s\n\nint kNothing = 0;\n\n#endif  // %s\n' \
    "$1" "$1" "$1"
}

make_clean_tree() {
  rm -rf "$tmp/tree"
  mkdir -p "$tmp/tree/src/util"
  header_boilerplate MONOCLASS_UTIL_GOOD_H_ > "$tmp/tree/src/util/good.h"
  {
    printf '// Copyright 2026 The monoclass Authors\n'
    printf '// Licensed under the Apache License, Version 2.0.\n\n'
    printf '#ifndef MONOCLASS_MONOCLASS_H_\n#define MONOCLASS_MONOCLASS_H_\n\n'
    printf '#include "util/good.h"\n\n'
    printf '#endif  // MONOCLASS_MONOCLASS_H_\n'
  } > "$tmp/tree/src/monoclass.h"
}

expect_rule() {
  # $1 = description, $2 = rule id that must appear,
  # $3 = optional diagnostic fragment that must appear as well
  out="$("$mc_lint" "$tmp/tree" 2>&1)"
  rc=$?
  if [ "$rc" -eq 0 ]; then
    fail "expected [$2] for $1, mc_lint said OK"
  elif ! printf '%s' "$out" | grep -qF "[$2]"; then
    fail "expected [$2] for $1, got:"$'\n'"$out"
  elif [ -n "${3:-}" ] && ! printf '%s' "$out" | grep -qF "$3"; then
    fail "[$2] for $1 missing diagnostic '$3', got:"$'\n'"$out"
  fi
}

expect_clean() {
  # $1 = description
  out="$("$mc_lint" "$tmp/tree" 2>&1)"
  if [ $? -ne 0 ]; then
    fail "expected PASS for $1, got:"$'\n'"$out"
  fi
}

# --- clean tree ---------------------------------------------------------
make_clean_tree
expect_clean "a clean tree"

# --- MC001: license header ----------------------------------------------
make_clean_tree
sed -i '1,2d' "$tmp/tree/src/util/good.h"
expect_rule "a header without the license banner" MC001 "missing Copyright"

# --- MC002: include guard -----------------------------------------------
make_clean_tree
header_boilerplate MONOCLASS_WRONG_GUARD_H_ > "$tmp/tree/src/util/good.h"
expect_rule "a header with a wrong include guard" MC002 \
  "missing '#ifndef MONOCLASS_UTIL_GOOD_H_'"

# --- MC003: banned tokens -----------------------------------------------
make_clean_tree
printf '\nvoid Check(int x) { assert(x > 0); }\n' >> "$tmp/tree/src/util/good.h"
expect_rule "library code calling naked assert()" MC003 "naked assert()"

make_clean_tree
sed -i 's/int kNothing = 0;/inline int Draw() { return rand(); }/' \
  "$tmp/tree/src/util/good.h"
expect_rule "library code calling rand()" MC003 "rand()/srand()"

# Negative: the tokenizer must NOT fire on banned tokens inside comments
# or string literals (the regex rules could not tell the difference).
make_clean_tree
sed -i 's|int kNothing = 0;|// calling assert() or rand() here is fine\nconst char* kMsg = "do not abort() please";|' \
  "$tmp/tree/src/util/good.h"
expect_clean "assert()/abort() mentioned only in a comment and a string"

# Negative: static_assert stays allowed.
make_clean_tree
sed -i 's/int kNothing = 0;/static_assert(1 + 1 == 2, "math");/' \
  "$tmp/tree/src/util/good.h"
expect_clean "library code using static_assert"

# --- MC004: umbrella closure --------------------------------------------
make_clean_tree
header_boilerplate MONOCLASS_UTIL_ORPHAN_H_ > "$tmp/tree/src/util/orphan.h"
expect_rule "a public header missing from the umbrella" MC004 \
  "not reachable from the src/monoclass.h umbrella"

# --- MC005: clock discipline --------------------------------------------
make_clean_tree
sed -i 's/int kNothing = 0;/inline double Now() { return std::chrono::steady_clock::now().time_since_epoch().count(); }/' \
  "$tmp/tree/src/util/good.h"
expect_rule "library code reading steady_clock directly" MC005 \
  "raw steady_clock::now()"

make_clean_tree
mkdir -p "$tmp/tree/src/obs"
header_boilerplate MONOCLASS_UTIL_TIMER_H_ > "$tmp/tree/src/util/timer.h"
sed -i 's/int kNothing = 0;/inline double Now() { return std::chrono::steady_clock::now().time_since_epoch().count(); }/' \
  "$tmp/tree/src/util/timer.h"
header_boilerplate MONOCLASS_OBS_TRACE_H_ > "$tmp/tree/src/obs/trace.h"
sed -i 's/int kNothing = 0;/inline double Now2() { return std::chrono::steady_clock::now().time_since_epoch().count(); }/' \
  "$tmp/tree/src/obs/trace.h"
sed -i 's|#include "util/good.h"|#include "util/good.h"\n#include "util/timer.h"\n#include "obs/trace.h"|' \
  "$tmp/tree/src/monoclass.h"
expect_clean "steady_clock::now() inside util/timer.h and src/obs/"

# --- MC006: concurrency discipline --------------------------------------
make_clean_tree
sed -i 's/int kNothing = 0;/inline std::mutex g_mu;/' \
  "$tmp/tree/src/util/good.h"
expect_rule "library code declaring a raw std::mutex" MC006 \
  "raw standard-library concurrency primitive"

# Covers tests/ too, and std::this_thread stays allowed.
make_clean_tree
mkdir -p "$tmp/tree/tests"
header_boilerplate MONOCLASS_TESTS_SPAWNY_H_ > "$tmp/tree/tests/spawny.h"
sed -i 's/int kNothing = 0;/inline void Spawn() { std::thread t([]{}); t.join(); }/' \
  "$tmp/tree/tests/spawny.h"
expect_rule "test code spawning a raw std::thread" MC006

make_clean_tree
header_boilerplate MONOCLASS_UTIL_CONCURRENCY_H_ \
  > "$tmp/tree/src/util/concurrency.h"
sed -i 's/int kNothing = 0;/inline std::mutex g_mu; inline void Park() { std::this_thread::yield(); }/' \
  "$tmp/tree/src/util/concurrency.h"
sed -i 's/int kNothing = 0;/inline void Park() { std::this_thread::yield(); }/' \
  "$tmp/tree/src/util/good.h"
sed -i 's|#include "util/good.h"|#include "util/good.h"\n#include "util/concurrency.h"|' \
  "$tmp/tree/src/monoclass.h"
expect_clean "std::mutex inside util/concurrency.h + std::this_thread elsewhere"

# --- MC011: atomics discipline ------------------------------------------
make_clean_tree
sed -i 's/int kNothing = 0;/inline std::atomic<int> g_count{0};/' \
  "$tmp/tree/src/util/good.h"
expect_rule "library code declaring a raw std::atomic" MC011

make_clean_tree
sed -i 's/int kNothing = 0;/inline void Fence() { std::atomic_thread_fence(std::memory_order_release); }/' \
  "$tmp/tree/src/util/good.h"
expect_rule "library code issuing a raw std::atomic_thread_fence" MC011

# Covers tests/ too: a raw atomic in a test escapes the model checker
# just as thoroughly as one in src/.
make_clean_tree
mkdir -p "$tmp/tree/tests"
header_boilerplate MONOCLASS_TESTS_COUNTY_H_ > "$tmp/tree/tests/county.h"
sed -i 's/int kNothing = 0;/inline std::atomic<int> g_seen{0};/' \
  "$tmp/tree/tests/county.h"
expect_rule "test code declaring a raw std::atomic" MC011

# Near-miss negatives: the seam file itself is sanctioned, mc:: spellings
# are the whole point, and tokens inside comments/strings never fire.
make_clean_tree
header_boilerplate MONOCLASS_UTIL_SYNC_MODEL_H_ \
  > "$tmp/tree/src/util/sync_model.h"
sed -i 's/int kNothing = 0;/inline std::atomic<int> g_real{0};/' \
  "$tmp/tree/src/util/sync_model.h"
sed -i 's|#include "util/good.h"|#include "util/good.h"\n#include "util/sync_model.h"|' \
  "$tmp/tree/src/monoclass.h"
expect_clean "std::atomic inside util/sync_model.h (the seam itself)"

make_clean_tree
mkdir -p "$tmp/tree/src/model"
header_boilerplate MONOCLASS_MODEL_SCHED_H_ > "$tmp/tree/src/model/sched.h"
sed -i 's/int kNothing = 0;/inline std::atomic<bool> g_stop{false};/' \
  "$tmp/tree/src/model/sched.h"
sed -i 's|#include "util/good.h"|#include "util/good.h"\n#include "model/sched.h"|' \
  "$tmp/tree/src/monoclass.h"
expect_clean "std::atomic inside src/model/ (the checker runtime)"

make_clean_tree
sed -i 's|int kNothing = 0;|// std::atomic is banned here\nconst char* kNote = "use std::memory_order_acquire";\ninline mc::atomic<int> g_ok{0};\ninline void F() { mc::atomic_thread_fence(mc::memory_order_release); }|' \
  "$tmp/tree/src/util/good.h"
expect_clean "mc:: spellings plus std::atomic mentioned in comment/string"

# --- MC012: network discipline ------------------------------------------
make_clean_tree
sed -i 's|int kNothing = 0;|#include <sys/socket.h>\nint kNothing = 0;|' \
  "$tmp/tree/src/util/good.h"
expect_rule "library code including <sys/socket.h>" MC012

make_clean_tree
sed -i 's|int kNothing = 0;|inline uint32_t Flip(uint32_t x) { return htonl(x); }|' \
  "$tmp/tree/src/util/good.h"
expect_rule "library code calling bare htonl()" MC012

make_clean_tree
sed -i 's|int kNothing = 0;|inline void Push(int fd, const void* p, size_t n) { ::write(fd, p, n); }|' \
  "$tmp/tree/src/util/good.h"
expect_rule "library code calling the libc ::write()" MC012

make_clean_tree
sed -i 's|int kNothing = 0;|inline int Open() { return socket(2, 1, 0); }|' \
  "$tmp/tree/src/util/good.h"
expect_rule "library code calling bare socket(2)" MC012

# Negative: src/net/socket.{h,cc} is the sanctioned home of the raw
# syscall surface -- includes and ::write are its whole job.
make_clean_tree
mkdir -p "$tmp/tree/src/net"
header_boilerplate MONOCLASS_NET_SOCKET_H_ > "$tmp/tree/src/net/socket.h"
sed -i 's|int kNothing = 0;|#include <sys/socket.h>\ninline void Push(int fd, const void* p, size_t n) { ::write(fd, p, n); }|' \
  "$tmp/tree/src/net/socket.h"
sed -i 's|#include "util/good.h"|#include "util/good.h"\n#include "net/socket.h"|' \
  "$tmp/tree/src/monoclass.h"
expect_clean "raw syscalls inside src/net/socket.h (the sanctioned home)"

# Negative: everyday read() members, namespace-qualified look-alikes,
# and net names inside comments/strings never fire.
make_clean_tree
sed -i 's|int kNothing = 0;|// calling ::write() or htonl() here would be MC012\nconst char* kDoc = "bind(2) and accept(2)";\ninline void Copy(std::istream\& in, char* buf) { in.read(buf, 8); }\ninline uint64_t Tag() { return Hash::send(3); }|' \
  "$tmp/tree/src/util/good.h"
expect_clean "member read(), ns-qualified send(), net names in comment/string"

# --- MC007: determinism inside ParallelFor ------------------------------
make_clean_tree
cat >> "$tmp/tree/src/util/good.h.body" <<'EOF'

inline void Walk(const std::unordered_map<int, int>& index) {
  ParallelFor(0, 4, [&](size_t) {
    for (const auto& [k, v] : index) {
      Consume(k, v);
    }
  });
}
EOF
sed -i "7r $tmp/tree/src/util/good.h.body" "$tmp/tree/src/util/good.h"
expect_rule "range-for over an unordered_map inside a ParallelFor body" MC007

# Negative: the same loop OUTSIDE ParallelFor is not this rule's business,
# and a sorted container inside ParallelFor is fine.
make_clean_tree
cat >> "$tmp/tree/src/util/good.h.body" <<'EOF'

inline void WalkSerial(const std::unordered_map<int, int>& index) {
  for (const auto& [k, v] : index) Consume(k, v);
}
inline void WalkSorted(const std::map<int, int>& sorted_index) {
  ParallelFor(0, 4, [&](size_t) {
    for (const auto& [k, v] : sorted_index) Consume(k, v);
  });
}
EOF
sed -i "7r $tmp/tree/src/util/good.h.body" "$tmp/tree/src/util/good.h"
expect_clean "unordered iteration outside ParallelFor, ordered inside"

# --- MC008: obs naming --------------------------------------------------
make_clean_tree
sed -i 's/int kNothing = 0;/inline void Op() { MC_SPAN("Passive Solve!"); }/' \
  "$tmp/tree/src/util/good.h"
expect_rule "an MC_SPAN name with spaces and capitals" MC008

make_clean_tree
sed -i 's/int kNothing = 0;/inline void Op() { MC_COUNTER("maxflow..pushes", 1); }/' \
  "$tmp/tree/src/util/good.h"
expect_rule "an MC_COUNTER name with an empty segment" MC008

make_clean_tree
sed -i 's/int kNothing = 0;/inline void Op() { MC_SPAN("passive\/solve"); MC_COUNTER("maxflow.dinic.phases", 1); }/' \
  "$tmp/tree/src/util/good.h"
expect_clean "conventional span and counter names"

# --- MC010: latency discipline ------------------------------------------
# Hand-rolling a latency series with MC_HISTOGRAM bypasses MC_LATENCY's
# scoped timing + flight events; the mc.lat. namespace is reserved.
make_clean_tree
sed -i 's/int kNothing = 0;/inline void Op(double us) { MC_HISTOGRAM("mc.lat.solve", us); }/' \
  "$tmp/tree/src/util/good.h"
expect_rule "an MC_HISTOGRAM squatting on the mc.lat. namespace" MC010

make_clean_tree
sed -i 's/int kNothing = 0;/inline void Op() { MC_COUNTER("mc.lat.solve", 1); }/' \
  "$tmp/tree/src/util/good.h"
expect_rule "an MC_COUNTER squatting on the mc.lat. namespace" MC010

make_clean_tree
sed -i 's/int kNothing = 0;/inline void Op() { MC_LATENCY("mc.solve.wall"); }/' \
  "$tmp/tree/src/util/good.h"
expect_rule "an MC_LATENCY named outside the mc.lat. namespace" MC010

# Negative: MC_LATENCY under mc.lat.* is the sanctioned combination, and
# src/obs/ (the macro plumbing itself) is exempt from the reservation.
make_clean_tree
sed -i 's/int kNothing = 0;/inline void Op() { MC_LATENCY("mc.lat.solve"); MC_HISTOGRAM("mc.flow.augment_len", 3.0); }/' \
  "$tmp/tree/src/util/good.h"
expect_clean "MC_LATENCY under mc.lat. plus an ordinary histogram"

make_clean_tree
mkdir -p "$tmp/tree/src/obs"
header_boilerplate MONOCLASS_OBS_PLUMBING_H_ > "$tmp/tree/src/obs/plumbing.h"
sed -i 's/int kNothing = 0;/inline void Op(double us) { MC_HISTOGRAM("mc.lat.raw", us); }/' \
  "$tmp/tree/src/obs/plumbing.h"
sed -i 's|#include "util/good.h"|#include "util/good.h"\n#include "obs/plumbing.h"|' \
  "$tmp/tree/src/monoclass.h"
expect_clean "mc.lat. plumbing inside src/obs/ (exempt)"

# --- MC009: audit coverage ----------------------------------------------
# An entry point whose whole call closure never touches an audit hook.
make_clean_tree
cat > "$tmp/tree/src/util/solver.h.body" <<'EOF'

inline int Helper(int x) { return x + 1; }
inline int SolvePassiveWeighted(int x) { return Helper(x); }
EOF
sed -i "7r $tmp/tree/src/util/solver.h.body" "$tmp/tree/src/util/good.h"
expect_rule "an entry point with no audit hook in its closure" MC009

# A std:: call is never a definition. Here `std::move(options)` in a
# constructor initializer would otherwise be read as a function named
# `move` whose body is the later lambda's, and the entry point's own
# std::move call would reach the audit through it.
make_clean_tree
cat > "$tmp/tree/src/util/solver.h.body" <<'EOF'

inline void Audited() { MC_AUDIT(AuditMonotone(0)); }
inline Server::Server(int options) : options_(std::move(options)) {}
inline void Server::Start() { Spawn([this] { Audited(); }); }
inline int SolvePassiveWeighted(int x) { return std::move(x); }
EOF
sed -i "7r $tmp/tree/src/util/solver.h.body" "$tmp/tree/src/util/good.h"
expect_rule "an entry point reaching an audit only through std::move" MC009

# The hook can live arbitrarily deep in the closure, in another file.
make_clean_tree
header_boilerplate MONOCLASS_UTIL_DEEP_H_ > "$tmp/tree/src/util/deep.h"
cat > "$tmp/tree/src/util/deep.h.body" <<'EOF'

inline int Inner(int x) { MC_AUDIT(AuditMonotone(x)); return x; }
EOF
sed -i "7r $tmp/tree/src/util/deep.h.body" "$tmp/tree/src/util/deep.h"
cat > "$tmp/tree/src/util/good.h.body" <<'EOF'

inline int Helper(int x) { return Inner(x); }
inline int SolvePassiveWeighted(int x) { return Helper(x); }
EOF
sed -i "7r $tmp/tree/src/util/good.h.body" "$tmp/tree/src/util/good.h"
sed -i 's|#include "util/good.h"|#include "util/good.h"\n#include "util/deep.h"|' \
  "$tmp/tree/src/monoclass.h"
expect_clean "an entry point reaching MC_AUDIT two calls deep, cross-file"

# An Audit* verifier called directly (without the MC_AUDIT macro) also
# satisfies the rule -- verifiers are always compiled in.
make_clean_tree
cat > "$tmp/tree/src/util/good.h.body" <<'EOF'

inline int SolvePassiveWeighted(int x) { AuditMinCut(x); return x; }
EOF
sed -i "7r $tmp/tree/src/util/good.h.body" "$tmp/tree/src/util/good.h"
expect_clean "an entry point calling an Audit* verifier directly"

# --- machine-readable format -------------------------------------------
make_clean_tree
printf '\nvoid Check(int x) { assert(x > 0); }\n' >> "$tmp/tree/src/util/good.h"
out="$("$mc_lint" "$tmp/tree" 2>&1)"
if ! printf '%s' "$out" | grep -qE '^src/util/good\.h:[0-9]+: \[MC003\] '; then
  fail "diagnostic is not in file:line: [rule] format:"$'\n'"$out"
fi

# --- the real repository passes -----------------------------------------
repo_root="$(cd "$script_dir/.." && pwd)"
if ! out="$("$mc_lint" "$repo_root" 2>&1)"; then
  fail "mc_lint fails on the actual repository:"$'\n'"$out"
fi

if [ "$failures" -ne 0 ]; then
  echo "mc_lint_test: $failures failure(s)" >&2
  exit 1
fi
echo "mc_lint_test: OK"
