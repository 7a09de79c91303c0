// Strict command-line number parsing shared by the tools and the bench
// runner. std::strtoull alone skips leading blanks, accepts a sign (so "-1"
// wraps to 2^64-1), stops quietly at junk ("abc" reads as 0) and clamps an
// overflow; every one of those is a usage error here.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>

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

}  // namespace ptstore
