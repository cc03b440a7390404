// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Strict numeric command-line values, shared by monoclassd, mc_loadgen,
// the bench harnesses (through bench/bench_util.h) and the standalone
// fuzz driver. The whole string must parse as a T inside [lo, hi]:
// trailing characters, leading blanks, a sign on an unsigned flag, a
// non-finite float or a value outside the type or the range all print
//
//   <program>: invalid value '<text>' for <flag>
//
// and exit 2, so a typo fails loudly instead of turning into a silently
// wrapped or defaulted value (port 70000 is not port 4464).

#ifndef MONOCLASS_TOOLS_FLAG_PARSE_H_
#define MONOCLASS_TOOLS_FLAG_PARSE_H_

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>
#include <type_traits>

namespace monoclass {
namespace tools {

template <typename T>
T ParseFlagValue(const char* program, const char* flag, const char* text,
                 T lo = std::numeric_limits<T>::lowest(),
                 T hi = std::numeric_limits<T>::max()) {
  T value{};
  bool ok = false;
  if constexpr (std::is_floating_point_v<T>) {
    // strtod rather than from_chars: not every standard library in the
    // CI matrix ships floating-point from_chars.
    char* end = nullptr;
    const double parsed = std::strtod(text, &end);
    value = static_cast<T>(parsed);
    ok = end != text && *end == '\0' &&
         !std::isspace(static_cast<unsigned char>(text[0])) &&
         std::isfinite(value);
  } else {
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    ok = ec == std::errc() && ptr == end;
  }
  if (!ok || value < lo || value > hi) {
    std::fprintf(stderr, "%s: invalid value '%s' for %s\n", program, text,
                 flag);
    std::exit(2);
  }
  return value;
}

}  // namespace tools
}  // namespace monoclass

#endif  // MONOCLASS_TOOLS_FLAG_PARSE_H_
