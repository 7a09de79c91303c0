// Strict command-line number parsing shared by the tools and the bench
// runner. std::strtoull alone skips leading blanks, accepts a sign (so "-1"
// wraps to 2^64-1), stops quietly at junk ("abc" reads as 0) and clamps an
// overflow; std::strtod also reads "nan" and "inf". Every one of those is a
// usage error here.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/types.h"

namespace ptstore {

/// Parses all of `text` as an unsigned number: it must start with a digit,
/// be consumed entirely and not overflow. `base` is strtoull's: 10 takes
/// digits only; 0 also takes C literals (0x hex, leading-0 octal), for
/// flags that always accepted them. Leaves `out` untouched on failure.
inline bool parse_u64(const char* text, u64& out, int base = 10) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, base);
  if (*end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

/// parse_u64 plus a [min, max] range check. On failure prints
/// "<tool>: <flag> needs a whole number in <min>..<max>, got '<text>'" to
/// stderr and returns false, leaving `out` untouched.
inline bool parse_count(const char* tool, const char* flag, const char* text,
                        u64 min, u64 max, u64& out, int base = 10) {
  u64 v = 0;
  if (!parse_u64(text, v, base) || v < min || v > max) {
    std::fprintf(stderr,
                 "%s: %s needs a whole number in %llu..%llu, got '%s'\n",
                 tool, flag, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), text);
    return false;
  }
  out = v;
  return true;
}

/// Parses all of `text` as a finite decimal real in [min, max]: digits with
/// an optional fraction and exponent ("90", "92.5", "9e1"). A sign, blank,
/// hex float, "inf", "nan", junk or an out-of-range value prints
/// "<tool>: <flag> needs a number in <min>..<max>, got '<text>'" to stderr
/// and returns false, leaving `out` untouched.
inline bool parse_real(const char* tool, const char* flag, const char* text,
                       double min, double max, double& out) {
  bool ok = (*text >= '0' && *text <= '9') || *text == '.';
  for (const char* c = text; ok && *c != '\0'; ++c) {
    ok = std::strchr("0123456789.eE+-", *c) != nullptr;
  }
  char* end = nullptr;
  errno = 0;
  const double v = ok ? std::strtod(text, &end) : 0.0;
  if (!ok || *end != '\0' || errno == ERANGE || !std::isfinite(v) || v < min ||
      v > max) {
    std::fprintf(stderr, "%s: %s needs a number in %g..%g, got '%s'\n", tool,
                 flag, min, max, text);
    return false;
  }
  out = v;
  return true;
}

}  // namespace ptstore
