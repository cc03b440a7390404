// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// mc_lint: the repo-convention contract checker and the repo's one lint
// entry point.
//
// A tokenizing analyzer: comments, string literals and raw strings are
// lexed away before any rule runs, so a banned token in a diagnostic
// message or a code sample in a comment can no longer trip (or hide) a
// rule, and the two contract rules that need structure -- deterministic
// iteration inside ParallelFor bodies, audit-hook reachability from the
// public solver entry points -- run on a real token stream and a
// name-level call graph instead of line regexes.
//
// Rule catalog (docs/static_analysis.md keeps the prose version):
//
//   MC001  license header: every C++ file starts with the Copyright +
//          Apache banner.
//   MC002  include guards: headers carry the canonical
//          MONOCLASS_<PATH>_<FILE>_H_ ifndef/define/trailing-endif.
//   MC003  banned tokens in src/ outside util/check.h and src/model/:
//          naked assert(), rand()/srand(), direct abort().
//   MC004  umbrella closure: every header under src/ is reachable from
//          src/monoclass.h via quoted includes.
//   MC005  clock discipline: no raw steady_clock::now() outside
//          src/util/timer.h and src/obs/.
//   MC006  concurrency discipline: no raw std:: concurrency primitives
//          outside src/util/concurrency.{h,cc}, src/util/sync_model.h
//          and src/model/.
//   MC007  determinism contract: no range-for over an unordered
//          container inside a ParallelFor call body (iteration order
//          would leak hash-table layout into parallel results).
//   MC008  obs naming: MC_SPAN names are lowercase path-ish
//          ([a-z0-9_]+ segments split on '/' or '.'); MC_COUNTER /
//          MC_GAUGE / MC_HISTOGRAM / MC_LATENCY names are dotted
//          lowercase.
//   MC009  audit coverage: every public solver entry point must reach
//          a MONOCLASS_AUDIT hook (an MC_AUDIT call or an Audit*
//          verifier) through the name-level call graph of src/.
//   MC010  latency discipline: the "mc.lat." namespace belongs to
//          MC_LATENCY exclusively -- outside src/obs/, no hand-rolled
//          MC_HISTOGRAM / MC_COUNTER / MC_GAUGE under an mc.lat. name,
//          and every MC_LATENCY literal must start with "mc.lat."
//          (one macro, one timing protocol, one quantile pipeline).
//   MC011  atomics discipline: no raw std::atomic / std::atomic_* /
//          std::memory_order* outside src/util/sync_model.h (the
//          model-checker seam) and src/model/ (the checker runtime).
//          Everything else says mc::atomic / mc::memory_order_*, so a
//          MONOCLASS_MODEL build can interpose on every access.
//   MC012  network discipline: the raw socket surface -- the socket(2)
//          call family, ::read/::write on file descriptors, the
//          ntohl/htonl byte-order family, and <sys/socket.h>-family
//          includes -- is confined to src/net/socket.{h,cc}. Everyone
//          else speaks net::Socket, SendFrame/RecvFrame and WireStream,
//          so endianness, EINTR retry, and the server's mc.srv.* frame
//          accounting have exactly one implementation.
//
// Output is machine-readable, one violation per line:
//
//   <file>:<line>: [MC00x] <message>
//
// Exit status: 0 clean, 1 violations, 2 usage/IO error.
//
// Usage: mc_lint [REPO_ROOT]
//   REPO_ROOT defaults to the current directory. Only standard C++ is
//   used -- tools/mc_lint_test.sh compiles this file on demand when no
//   built binary is around, so it must stay a single self-contained TU.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Token stream.

enum class TokKind { kId, kNum, kStr, kChr, kPunct };

struct Token {
  TokKind kind;
  std::string text;  // literal content for kStr (quotes stripped)
  int line;
};

// Lexes C++ source into identifiers / numbers / literals / punctuation,
// discarding comments. Good enough for contract linting: no
// preprocessing, no keywords vs identifiers distinction.
std::vector<Token> Tokenize(const std::string& source) {
  std::vector<Token> tokens;
  int line = 1;
  size_t i = 0;
  const size_t n = source.size();
  const auto peek = [&](size_t k) -> char {
    return i + k < n ? source[i + k] : '\0';
  };
  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == '/' && peek(1) == '/') {
      while (i < n && source[i] != '\n') ++i;
    } else if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i < n && !(source[i] == '*' && peek(1) == '/')) {
        if (source[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
    } else if ((c == 'R' && peek(1) == '"') ||
               ((c == 'u' || c == 'U' || c == 'L') && peek(1) == 'R' &&
                peek(2) == '"')) {
      // Raw string: R"delim( ... )delim"
      size_t j = i + (c == 'R' ? 2 : 3);
      std::string delim;
      while (j < n && source[j] != '(') delim += source[j++];
      const std::string closer = ")" + delim + "\"";
      const size_t start = j + 1;
      const size_t end = source.find(closer, start);
      const size_t stop = end == std::string::npos ? n : end;
      std::string content = source.substr(start, stop - start);
      tokens.push_back({TokKind::kStr, content, line});
      for (size_t k = i; k < stop && k < n; ++k) {
        if (source[k] == '\n') ++line;
      }
      i = stop == n ? n : stop + closer.size();
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      std::string content;
      ++i;
      while (i < n && source[i] != quote) {
        if (source[i] == '\\' && i + 1 < n) {
          content += source[i];
          content += source[i + 1];
          i += 2;
        } else {
          if (source[i] == '\n') ++line;  // unterminated; keep going
          content += source[i++];
        }
      }
      ++i;  // closing quote
      tokens.push_back(
          {quote == '"' ? TokKind::kStr : TokKind::kChr, content, line});
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(source[j])) ||
                       source[j] == '_')) {
        ++j;
      }
      tokens.push_back({TokKind::kId, source.substr(i, j - i), line});
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(source[j])) ||
                       source[j] == '.' || source[j] == '\'')) {
        ++j;
      }
      tokens.push_back({TokKind::kNum, source.substr(i, j - i), line});
      i = j;
    } else {
      // Fuse the two multi-char puncts the rules care about.
      if (c == ':' && peek(1) == ':') {
        tokens.push_back({TokKind::kPunct, "::", line});
        i += 2;
      } else if (c == '-' && peek(1) == '>') {
        tokens.push_back({TokKind::kPunct, "->", line});
        i += 2;
      } else {
        tokens.push_back({TokKind::kPunct, std::string(1, c), line});
        ++i;
      }
    }
  }
  return tokens;
}

// ---------------------------------------------------------------------
// Per-file state and diagnostics.

struct SourceFile {
  std::string rel;  // path relative to the repo root, '/'-separated
  std::vector<std::string> lines;
  std::vector<Token> tokens;
};

struct Diagnostic {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

std::vector<Diagnostic> g_diags;

void Emit(const std::string& file, int line, const std::string& rule,
          const std::string& message) {
  g_diags.push_back({file, line, rule, message});
}

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool IsHeader(const std::string& rel) {
  return rel.size() > 2 && rel.compare(rel.size() - 2, 2, ".h") == 0;
}

// ---------------------------------------------------------------------
// MC001: license header.

void CheckLicense(const SourceFile& f) {
  bool copyright = false;
  for (size_t i = 0; i < f.lines.size() && i < 2; ++i) {
    if (f.lines[i].find("Copyright") != std::string::npos) copyright = true;
  }
  if (!copyright) {
    Emit(f.rel, 1, "MC001", "missing Copyright line in the first two lines");
  }
  bool apache = false;
  for (size_t i = 0; i < f.lines.size() && i < 3; ++i) {
    if (f.lines[i].find("Licensed under the Apache License") !=
        std::string::npos) {
      apache = true;
    }
  }
  if (!apache) {
    Emit(f.rel, 1, "MC001",
         "missing Apache license line in the first three lines");
  }
}

// ---------------------------------------------------------------------
// MC002: include guards.

std::string GuardFor(const std::string& rel) {
  // src/util/check.h -> MONOCLASS_UTIL_CHECK_H_ ; tests/test_util.h ->
  // MONOCLASS_TESTS_TEST_UTIL_H_ (non-src/ trees keep their top dir).
  std::string stem = StartsWith(rel, "src/") ? rel.substr(4) : rel;
  stem = stem.substr(0, stem.size() - 2);  // drop ".h"
  std::string guard = "MONOCLASS_";
  for (const char c : stem) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  return guard + "_H_";
}

void CheckIncludeGuard(const SourceFile& f) {
  if (!IsHeader(f.rel)) return;
  const std::string guard = GuardFor(f.rel);
  const auto has_line = [&f](const std::string& wanted) -> int {
    for (size_t i = 0; i < f.lines.size(); ++i) {
      if (f.lines[i] == wanted) return static_cast<int>(i) + 1;
    }
    return 0;
  };
  if (!has_line("#ifndef " + guard)) {
    Emit(f.rel, 1, "MC002",
         "missing '#ifndef " + guard + "' (include-guard convention)");
    return;
  }
  if (!has_line("#define " + guard)) {
    Emit(f.rel, 1, "MC002", "missing '#define " + guard + "'");
  }
  if (!has_line("#endif  // " + guard)) {
    Emit(f.rel, static_cast<int>(f.lines.size()), "MC002",
         "missing trailing '#endif  // " + guard + "'");
  }
}

// ---------------------------------------------------------------------
// MC003: banned tokens in library code.

void CheckBannedTokens(const SourceFile& f) {
  if (!StartsWith(f.rel, "src/")) return;
  if (f.rel == "src/util/check.h") return;  // the one sanctioned abort site
  // The model-checker runtime sits below util/check.h in the layering
  // (check.h's failure path would have to be modelled) and reports its
  // own violations before aborting.
  if (StartsWith(f.rel, "src/model/")) return;
  const auto& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kId) continue;
    const bool called =
        i + 1 < t.size() && t[i + 1].kind == TokKind::kPunct &&
        t[i + 1].text == "(";
    if (!called) continue;
    // A preceding "::" only counts when qualified by std (std::abort);
    // monoclass::fuzz::Abort-style names are distinct identifiers anyway.
    if (t[i].text == "assert") {
      Emit(f.rel, t[i].line, "MC003",
           "naked assert() -- use MC_CHECK / MC_DCHECK from util/check.h");
    } else if (t[i].text == "rand" || t[i].text == "srand") {
      Emit(f.rel, t[i].line, "MC003",
           "rand()/srand() -- all randomness must flow through "
           "monoclass::Rng");
    } else if (t[i].text == "abort") {
      Emit(f.rel, t[i].line, "MC003",
           "direct abort() -- abort through MC_CHECK so context is printed");
    }
  }
}

// ---------------------------------------------------------------------
// MC004: umbrella reachability.

void CheckUmbrella(const std::vector<SourceFile>& files) {
  const SourceFile* umbrella = nullptr;
  for (const SourceFile& f : files) {
    if (f.rel == "src/monoclass.h") umbrella = &f;
  }
  if (umbrella == nullptr) return;

  std::map<std::string, const SourceFile*> headers;  // path relative to src/
  for (const SourceFile& f : files) {
    if (StartsWith(f.rel, "src/") && IsHeader(f.rel)) {
      headers[f.rel.substr(4)] = &f;
    }
  }

  const auto includes_of = [](const SourceFile& f) {
    std::vector<std::string> out;
    for (const std::string& raw : f.lines) {
      if (!StartsWith(raw, "#include \"")) continue;
      const size_t close = raw.find('"', 10);
      if (close != std::string::npos) out.push_back(raw.substr(10, close - 10));
    }
    return out;
  };

  std::set<std::string> reached = {"monoclass.h"};
  std::vector<std::string> frontier = {"monoclass.h"};
  while (!frontier.empty()) {
    std::vector<std::string> next;
    for (const std::string& h : frontier) {
      const auto it = headers.find(h);
      if (it == headers.end()) continue;
      for (const std::string& inc : includes_of(*it.operator->()->second)) {
        if (headers.count(inc) && reached.insert(inc).second) {
          next.push_back(inc);
        }
      }
    }
    frontier = std::move(next);
  }
  for (const auto& [rel, file] : headers) {
    if (!reached.count(rel)) {
      Emit(file->rel, 1, "MC004",
           "not reachable from the src/monoclass.h umbrella header");
    }
  }
}

// ---------------------------------------------------------------------
// MC005: clock discipline.

void CheckClockDiscipline(const SourceFile& f) {
  if (f.rel == "src/util/timer.h" || StartsWith(f.rel, "src/obs/")) return;
  const auto& t = f.tokens;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].kind == TokKind::kId && t[i].text == "steady_clock" &&
        t[i + 1].text == "::" && t[i + 2].text == "now" &&
        t[i + 3].text == "(") {
      Emit(f.rel, t[i].line, "MC005",
           "raw steady_clock::now() -- use WallTimer (util/timer.h) or an "
           "obs span");
    }
  }
}

// ---------------------------------------------------------------------
// MC006: concurrency discipline.

const std::set<std::string>& BannedConcurrencyNames() {
  static const std::set<std::string> kBanned = {
      "thread", "jthread", "mutex", "timed_mutex", "recursive_mutex",
      "shared_mutex", "condition_variable", "condition_variable_any",
      "async", "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
      "promise", "packaged_task"};
  return kBanned;
}

void CheckConcurrencyDiscipline(const SourceFile& f) {
  if (f.rel == "src/util/concurrency.h" ||
      f.rel == "src/util/concurrency.cc" ||
      f.rel == "src/util/sync_model.h" ||  // the seam wraps the primitives
      StartsWith(f.rel, "src/model/") ||   // the checker schedules with them
      // Proves mc:: aliases ARE the std types, so it must name both.
      f.rel == "tests/model_compile_out_test.cc") {
    return;
  }
  const auto& t = f.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind == TokKind::kId && t[i].text == "std" &&
        t[i + 1].text == "::" && t[i + 2].kind == TokKind::kId &&
        BannedConcurrencyNames().count(t[i + 2].text)) {
      Emit(f.rel, t[i].line, "MC006",
           "raw standard-library concurrency primitive -- use "
           "Mutex/MutexLock/CondVar/ThreadPool/ParallelFor from "
           "util/concurrency.h");
    }
  }
}

// ---------------------------------------------------------------------
// MC011: atomics discipline.
//
// Every atomic access in the tree must go through the mc:: seam
// (util/sync_model.h) so that a MONOCLASS_MODEL build can route loads,
// stores and RMWs through the model-checker scheduler. A raw
// std::atomic is invisible to the checker: the scenario still passes,
// but the interleavings touching that location were never explored.
// Only the seam itself and the checker runtime may name the real thing.

void CheckAtomicsDiscipline(const SourceFile& f) {
  if (f.rel == "src/util/sync_model.h" || StartsWith(f.rel, "src/model/") ||
      // Proves mc:: aliases ARE the std types, so it must name both.
      f.rel == "tests/model_compile_out_test.cc") {
    return;
  }
  const auto& t = f.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kId || t[i].text != "std" ||
        t[i + 1].text != "::" || t[i + 2].kind != TokKind::kId) {
      continue;
    }
    const std::string& name = t[i + 2].text;
    const bool atomic_name = name == "atomic" ||
                             StartsWith(name, "atomic_");  // _flag, _ref,
                                                           // _thread_fence...
    const bool order_name = StartsWith(name, "memory_order");
    if (atomic_name || order_name) {
      Emit(f.rel, t[i].line, "MC011",
           "raw std::" + name +
               " bypasses the model-checker seam -- use mc::atomic / "
               "mc::memory_order_* / mc::atomic_thread_fence from "
               "util/sync_model.h");
    }
  }
}

// ---------------------------------------------------------------------
// MC012: network discipline.
//
// The entire byte-level syscall surface of the wire protocol lives in
// src/net/socket.{h,cc}: one place owns endianness, EINTR retries,
// partial reads, and FD lifetimes. A raw socket(2)/send(2) call or an
// ntohl() conversion anywhere else would fork that logic and bypass
// both the server's mc.srv.* frame accounting and the fuzz_frame
// attack surface, so everyone else speaks net::Socket / SendFrame /
// RecvFrame / WireStream.

const std::set<std::string>& BannedNetworkCalls() {
  static const std::set<std::string> kBanned = {
      // the socket(2) call family
      "socket", "connect", "bind", "listen", "accept", "accept4", "send",
      "recv", "sendto", "recvfrom", "shutdown", "setsockopt", "getsockopt",
      "getsockname", "getpeername", "getaddrinfo", "freeaddrinfo",
      // byte-order and address-text conversions
      "ntohl", "ntohs", "htonl", "htons", "ntohll", "htonll", "inet_pton",
      "inet_ntop", "inet_addr"};
  return kBanned;
}

void CheckNetworkDiscipline(const SourceFile& f) {
  if (f.rel == "src/net/socket.h" || f.rel == "src/net/socket.cc") {
    return;  // the one sanctioned home of the raw syscall surface
  }
  for (size_t i = 0; i < f.lines.size(); ++i) {
    const std::string& line = f.lines[i];
    if (line.find("#include") == std::string::npos) continue;
    if (line.find("<sys/socket.h>") != std::string::npos ||
        line.find("<netinet/") != std::string::npos ||
        line.find("<arpa/inet.h>") != std::string::npos ||
        line.find("<netdb.h>") != std::string::npos) {
      Emit(f.rel, i + 1, "MC012",
           "raw socket header include outside src/net/socket.{h,cc} -- "
           "use the net::Socket transport (src/net/socket.h)");
    }
  }
  const auto& t = f.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kId) continue;
    if (t[i + 1].kind != TokKind::kPunct || t[i + 1].text != "(") continue;

    const std::string& name = t[i].text;
    // read()/write() are everyday member names (std::istream::read,
    // WireStream helpers...), so only the globally qualified libc
    // spelling is banned; the socket(2)/ntohl families are unambiguous
    // enough to ban bare too.
    const bool qualified_only = name == "read" || name == "write";
    if (!qualified_only && BannedNetworkCalls().count(name) == 0) continue;

    // Classify the call's qualifier from the preceding token:
    //   obj.name( / ptr->name( / ns::name(  -> someone else's method, skip
    //   ::name(                             -> the libc symbol, flag
    //   name(                               -> unqualified libc call, flag
    bool global_scope = false;
    bool otherwise_qualified = false;
    if (i > 0 && t[i - 1].kind == TokKind::kPunct) {
      if (t[i - 1].text == "::") {
        if (i >= 2 && t[i - 2].kind == TokKind::kId) {
          otherwise_qualified = true;  // std::bind, Socket::accept, ...
        } else {
          global_scope = true;
        }
      } else if (t[i - 1].text == "." || t[i - 1].text == "->") {
        otherwise_qualified = true;
      }
    }
    if (otherwise_qualified) continue;
    if (qualified_only && !global_scope) continue;
    Emit(f.rel, t[i].line, "MC012",
         "raw " + std::string(global_scope ? "::" : "") + name +
             "() call outside src/net/socket.{h,cc} -- route bytes "
             "through net::Socket / SendFrame / RecvFrame");
  }
}

// ---------------------------------------------------------------------
// MC007: deterministic iteration inside ParallelFor bodies.
//
// The determinism contract promises bit-identical results at any thread
// count; a range-for over an unordered container inside a ParallelFor
// body makes per-task work depend on hash-table layout, which varies
// across libstdc++/libc++ and across runs with hardened hashing.

size_t MatchingParen(const std::vector<Token>& t, size_t open) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text == "(") ++depth;
    if (t[i].text == ")" && --depth == 0) return i;
  }
  return t.size();
}

// Names declared in this file with an unordered container type:
// "std::unordered_map<K, V>[&*] name" in any position (local, parameter,
// member). Token-level type tracking; template arguments are skipped by
// angle-bracket balancing.
std::set<std::string> UnorderedNamesIn(const std::vector<Token>& t) {
  std::set<std::string> names;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kId ||
        t[i].text.find("unordered_") == std::string::npos) {
      continue;
    }
    if (t[i + 1].kind != TokKind::kPunct || t[i + 1].text != "<") continue;
    int depth = 0;
    size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t[j].kind != TokKind::kPunct) continue;
      if (t[j].text == "<") ++depth;
      if (t[j].text == ">" && --depth == 0) break;
    }
    // Skip ref/pointer/const decorations between the type and the name.
    size_t k = j + 1;
    while (k < t.size() &&
           ((t[k].kind == TokKind::kPunct &&
             (t[k].text == "&" || t[k].text == "*")) ||
            (t[k].kind == TokKind::kId && t[k].text == "const"))) {
      ++k;
    }
    if (k < t.size() && t[k].kind == TokKind::kId) {
      names.insert(t[k].text);
    }
  }
  return names;
}

void CheckParallelForDeterminism(const SourceFile& f) {
  const auto& t = f.tokens;
  const std::set<std::string> unordered_names = UnorderedNamesIn(t);
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kId || t[i].text != "ParallelFor") continue;
    if (t[i + 1].text != "(") continue;
    const size_t close = MatchingParen(t, i + 1);
    // Scan the whole argument region (the loop body is a lambda inside
    // it) for range-fors whose range expression names an unordered
    // container -- by spelled-out type or by a variable this file
    // declared with one.
    for (size_t j = i + 2; j < close; ++j) {
      if (t[j].kind != TokKind::kId || t[j].text != "for") continue;
      if (j + 1 >= close || t[j + 1].text != "(") continue;
      const size_t for_close = MatchingParen(t, j + 1);
      size_t colon = 0;
      for (size_t k = j + 2; k < for_close; ++k) {
        if (t[k].kind == TokKind::kPunct && t[k].text == ":" &&
            (k + 1 >= for_close || t[k + 1].text != ":")) {
          colon = k;
          break;
        }
      }
      if (colon == 0) continue;  // classic for, not range-for
      for (size_t k = colon + 1; k < for_close; ++k) {
        if (t[k].kind == TokKind::kId &&
            (t[k].text.find("unordered") != std::string::npos ||
             unordered_names.count(t[k].text))) {
          Emit(f.rel, t[j].line, "MC007",
               "range-for over an unordered container inside a ParallelFor "
               "body -- iteration order is hash-layout-dependent and breaks "
               "the determinism contract; iterate a sorted view instead");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// MC008: obs naming conventions.

bool ValidObsName(const std::string& name, bool allow_slash) {
  if (name.empty()) return false;
  bool segment_start = true;
  for (const char c : name) {
    if (c == '.' || (allow_slash && c == '/')) {
      if (segment_start) return false;  // empty segment
      segment_start = true;
      continue;
    }
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
    segment_start = false;
  }
  return !segment_start;
}

void CheckObsNaming(const SourceFile& f) {
  const auto& t = f.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kId) continue;
    const std::string& name = t[i].text;
    const bool is_span = name == "MC_SPAN";
    const bool is_metric = name == "MC_COUNTER" || name == "MC_GAUGE" ||
                           name == "MC_HISTOGRAM" || name == "MC_EVENT" ||
                           name == "MC_LATENCY";
    if (!is_span && !is_metric) continue;
    if (t[i + 1].text != "(") continue;
    // Only string-literal first arguments are checked: the macro
    // definitions themselves pass a parameter name.
    if (t[i + 2].kind != TokKind::kStr) continue;
    const std::string& arg = t[i + 2].text;
    if (is_span && !ValidObsName(arg, /*allow_slash=*/true)) {
      Emit(f.rel, t[i].line, "MC008",
           "MC_SPAN name \"" + arg +
               "\" violates the naming convention (lowercase [a-z0-9_] "
               "segments separated by '/' or '.')");
    } else if (is_metric && !ValidObsName(arg, /*allow_slash=*/false)) {
      Emit(f.rel, t[i].line, "MC008",
           name + " name \"" + arg +
               "\" violates the naming convention (dotted lowercase "
               "[a-z0-9_] segments)");
    }
  }
}

// ---------------------------------------------------------------------
// MC010: latency discipline.
//
// The mc.lat.* metric namespace is the contract between hot-path
// instrumentation and every latency consumer (exposition quantiles,
// flight spans, mc_top). MC_LATENCY is the only macro that feeds all of
// them at once; a hand-rolled MC_HISTOGRAM("mc.lat.x", elapsed) would
// produce a latency series with no flight events and registry-kind
// collisions waiting to happen. src/obs/ itself is exempt -- the macro
// definitions and registry plumbing live there.

void CheckLatencyDiscipline(const SourceFile& f) {
  if (StartsWith(f.rel, "src/obs/")) return;
  const auto& t = f.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kId) continue;
    const std::string& name = t[i].text;
    const bool is_latency = name == "MC_LATENCY";
    const bool is_other_metric = name == "MC_COUNTER" || name == "MC_GAUGE" ||
                                 name == "MC_HISTOGRAM";
    if (!is_latency && !is_other_metric) continue;
    if (t[i + 1].text != "(") continue;
    if (t[i + 2].kind != TokKind::kStr) continue;  // macro-definition sites
    const std::string& arg = t[i + 2].text;
    const bool in_lat_namespace = arg.rfind("mc.lat.", 0) == 0;
    if (is_other_metric && in_lat_namespace) {
      Emit(f.rel, t[i].line, "MC010",
           name + " name \"" + arg +
               "\" hand-rolls a latency metric -- the mc.lat. namespace is "
               "reserved for MC_LATENCY (scoped timing + quantiles + flight "
               "events in one macro)");
    } else if (is_latency && !in_lat_namespace) {
      Emit(f.rel, t[i].line, "MC010",
           "MC_LATENCY name \"" + arg +
               "\" is outside the mc.lat. namespace -- latency histograms "
               "must be named mc.lat.<site>");
    }
  }
}

// ---------------------------------------------------------------------
// MC009: audit coverage of public solver entry points.
//
// Builds a name-level call graph over every function defined in src/
// and checks that each entry point's closure contains an MC_AUDIT call
// or a call to an Audit* verifier. Names are matched unqualified (an
// over-approximation of real linkage), which can only make the rule
// MORE permissive -- it never produces a false positive, and a solver
// path with no audit anywhere in its closure cannot slip through.

struct FunctionDef {
  std::string simple_name;
  std::string qualified_name;  // "Class::Name" when written that way
  std::string file;
  int line;
  size_t body_begin;  // token index of '{'
  size_t body_end;    // token index past matching '}'
  const std::vector<Token>* tokens;
};

const std::set<std::string>& NonFunctionKeywords() {
  static const std::set<std::string> kKeywords = {
      "if", "for", "while", "switch", "return", "catch", "sizeof",
      "alignof", "decltype", "new", "delete", "static_assert", "noexcept",
      "alignas", "throw", "case", "co_await", "co_return", "co_yield"};
  return kKeywords;
}

// Heuristic definition scan: identifier '(' ... ')' [const/noexcept/
// ctor-init/trailing-return] '{'. Good enough for a call-graph closure;
// a missed definition only removes edges, and MC009 treats a missing
// entry-point definition as out of scope.
void CollectFunctionDefs(const SourceFile& f,
                         std::vector<FunctionDef>& defs) {
  const auto& t = f.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kId || NonFunctionKeywords().count(t[i].text)) {
      continue;
    }
    if (t[i + 1].kind != TokKind::kPunct || t[i + 1].text != "(") continue;
    // src/ defines nothing in namespace std, so `std::name(` is always a
    // call. A call in a constructor initializer list could otherwise pass
    // for a definition: the scan below runs on to the next depth-0 '{'
    // (a later lambda body, say), and every caller of that name, such as
    // std::move, would then reach whatever that body calls.
    if (i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std") continue;
    const size_t close = MatchingParen(t, i + 1);
    if (close >= t.size()) continue;
    size_t k = close + 1;
    bool in_ctor_init = false;
    int depth = 0;
    while (k < t.size()) {
      const Token& tok = t[k];
      if (tok.kind == TokKind::kPunct) {
        if (tok.text == "(") {
          ++depth;
        } else if (tok.text == ")") {
          --depth;
        } else if (tok.text == "{" && depth == 0) {
          if (in_ctor_init) {
            // Brace-init of a member ( : m_{x} ); skip the braces.
            int bdepth = 0;
            while (k < t.size()) {
              if (t[k].kind == TokKind::kPunct) {
                if (t[k].text == "{") ++bdepth;
                if (t[k].text == "}" && --bdepth == 0) break;
              }
              ++k;
            }
            in_ctor_init = false;  // next depth-0 '{' is the body
          } else {
            break;  // function body
          }
        } else if (tok.text == ";" && depth == 0) {
          k = t.size();  // declaration, not a definition
        } else if (tok.text == ":" && depth == 0) {
          in_ctor_init = true;
        }
      } else if (tok.kind == TokKind::kStr || tok.kind == TokKind::kChr) {
        k = t.size();  // not a definition shape we understand
      }
      ++k;
    }
    if (k >= t.size()) continue;
    // k points at the body '{'.
    int bdepth = 0;
    size_t end = k;
    while (end < t.size()) {
      if (t[end].kind == TokKind::kPunct) {
        if (t[end].text == "{") ++bdepth;
        if (t[end].text == "}" && --bdepth == 0) {
          ++end;
          break;
        }
      }
      ++end;
    }
    FunctionDef def;
    def.simple_name = t[i].text;
    def.qualified_name = t[i].text;
    if (i >= 2 && t[i - 1].text == "::" && t[i - 2].kind == TokKind::kId) {
      def.qualified_name = t[i - 2].text + "::" + t[i].text;
    }
    def.file = f.rel;
    def.line = t[i].line;
    def.body_begin = k;
    def.body_end = end;
    def.tokens = &t;
    defs.push_back(std::move(def));
  }
}

// The public solver surface the paper reproduction exposes; each must
// reach an audit hook. Qualified names pin member functions.
const std::vector<std::string>& AuditedEntryPoints() {
  static const std::vector<std::string> kEntryPoints = {
      "SolvePassiveWeighted",
      "SolvePassiveUnweighted",
      "OptimalError",
      "SolveActiveMultiD",
      "DecomposeForActiveSolve",
      "SolveActiveChain",
      "SolveActiveSigma",
      "MinimumChainDecomposition",
      "GreedyChainDecomposition",
      "ScalableChainDecomposition",
      "MinimumChainDecomposition2D",
      "IncrementalPassiveSolver::Solve",
  };
  return kEntryPoints;
}

void CheckAuditCoverage(const std::vector<SourceFile>& files) {
  std::vector<FunctionDef> defs;
  for (const SourceFile& f : files) {
    if (StartsWith(f.rel, "src/")) CollectFunctionDefs(f, defs);
  }
  std::map<std::string, std::vector<const FunctionDef*>> by_name;
  for (const FunctionDef& def : defs) {
    by_name[def.simple_name].push_back(&def);
    if (def.qualified_name != def.simple_name) {
      by_name[def.qualified_name].push_back(&def);
    }
  }

  const auto body_calls = [](const FunctionDef& def,
                             std::vector<std::string>& out) -> bool {
    const auto& t = *def.tokens;
    for (size_t i = def.body_begin; i + 1 < def.body_end; ++i) {
      if (t[i].kind != TokKind::kId) continue;
      if (t[i + 1].kind != TokKind::kPunct || t[i + 1].text != "(") continue;
      if (t[i].text == "MC_AUDIT" || StartsWith(t[i].text, "Audit")) {
        return true;  // hook found
      }
      if (!NonFunctionKeywords().count(t[i].text)) out.push_back(t[i].text);
    }
    return false;
  };

  for (const std::string& entry : AuditedEntryPoints()) {
    const auto root = by_name.find(entry);
    if (root == by_name.end()) continue;  // not defined in this tree
    std::set<const FunctionDef*> visited;
    std::vector<const FunctionDef*> stack(root->second.begin(),
                                          root->second.end());
    bool audited = false;
    while (!stack.empty() && !audited) {
      const FunctionDef* def = stack.back();
      stack.pop_back();
      if (!visited.insert(def).second) continue;
      std::vector<std::string> calls;
      if (body_calls(*def, calls)) {
        audited = true;
        break;
      }
      for (const std::string& callee : calls) {
        const auto it = by_name.find(callee);
        if (it == by_name.end()) continue;
        for (const FunctionDef* next : it->second) stack.push_back(next);
      }
    }
    if (!audited) {
      const FunctionDef* def = root->second.front();
      Emit(def->file, def->line, "MC009",
           "public solver entry point '" + entry +
               "' never reaches a MONOCLASS_AUDIT hook (no MC_AUDIT or "
               "Audit* verifier in its call closure)");
    }
  }
}

// ---------------------------------------------------------------------
// Driver.

std::vector<std::string> CollectFiles(const fs::path& root) {
  std::vector<std::string> rels;
  for (const char* dir :
       {"src", "tests", "bench", "examples", "tools", "fuzz"}) {
    const fs::path base = root / dir;
    if (!fs::is_directory(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      rels.push_back(
          fs::relative(entry.path(), root).generic_string());
    }
  }
  std::sort(rels.begin(), rels.end());
  return rels;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "-h" || arg == "--help") {
      std::cout << "usage: mc_lint [REPO_ROOT]\n"
                   "Checks the monoclass repo conventions (rules "
                   "MC001-MC012); see docs/static_analysis.md.\n";
      return 0;
    }
    root = fs::path(std::string(arg));
  }
  if (!fs::is_directory(root)) {
    std::cerr << "mc_lint: not a directory: " << root << "\n";
    return 2;
  }

  std::vector<SourceFile> files;
  for (const std::string& rel : CollectFiles(root)) {
    SourceFile f;
    f.rel = rel;
    std::ifstream stream(root / rel, std::ios::binary);
    if (!stream) {
      std::cerr << "mc_lint: cannot read " << rel << "\n";
      return 2;
    }
    std::string source((std::istreambuf_iterator<char>(stream)),
                       std::istreambuf_iterator<char>());
    std::string line;
    for (const char c : source) {
      if (c == '\n') {
        f.lines.push_back(line);
        line.clear();
      } else if (c != '\r') {
        line += c;
      }
    }
    if (!line.empty()) f.lines.push_back(line);
    f.tokens = Tokenize(source);
    files.push_back(std::move(f));
  }

  for (const SourceFile& f : files) {
    CheckLicense(f);
    CheckIncludeGuard(f);
    CheckBannedTokens(f);
    CheckClockDiscipline(f);
    CheckConcurrencyDiscipline(f);
    CheckAtomicsDiscipline(f);
    CheckParallelForDeterminism(f);
    CheckObsNaming(f);
    CheckLatencyDiscipline(f);
    CheckNetworkDiscipline(f);
  }
  CheckUmbrella(files);
  CheckAuditCoverage(files);

  std::sort(g_diags.begin(), g_diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  for (const Diagnostic& d : g_diags) {
    std::cout << d.file << ":" << d.line << ": [" << d.rule << "] "
              << d.message << "\n";
  }
  if (!g_diags.empty()) {
    std::cerr << "mc_lint: " << g_diags.size() << " violation(s)\n";
    return 1;
  }
  std::cout << "mc_lint: OK\n";
  return 0;
}
