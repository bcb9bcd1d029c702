// Checked parsing of numeric command-line values, shared by the pwx-* tools.
//
// A value is accepted only when the whole token is consumed, it fits the
// destination type, a count carries no sign, and a real number is finite.
// Each tool turns a rejected value into its usage message and exit code 2.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace pwx::cli {

/// Parse `text` into the unsigned integer `out`: decimal, or with `base` 0
/// also 0x-prefixed hex and 0-prefixed octal. Rejects an empty token, a
/// sign or leading space, trailing characters, and values `T` cannot hold;
/// `out` is left unchanged on rejection.
template <typename T>
bool parse_count(const char* text, T& out, int base = 10) {
  static_assert(std::is_unsigned_v<T>);
  if (text[0] < '0' || text[0] > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, base);
  if (errno != 0 || *end != '\0' || value > std::numeric_limits<T>::max()) {
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

/// Parse `text` into the finite double `out`. Rejects an empty token, leading
/// space, trailing characters, NaN, infinities and out-of-range values;
/// `out` is left unchanged on rejection.
inline bool parse_real(const char* text, double& out) {
  if (text[0] == '\0' || std::isspace(static_cast<unsigned char>(text[0])) != 0) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace pwx::cli
