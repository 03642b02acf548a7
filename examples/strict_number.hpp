// Strict number parsing for command-line values, shared by gfor14_cli and
// gfor14-audit: a value is accepted only when the WHOLE string is the
// number. std::stoul / std::strtod alone would read a prefix ("12abc"),
// skip leading whitespace, or accept "nan", "inf" and hex floats.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace gfor14 {

/// Unsigned decimal integer: digits only, at most 19 of them (so it cannot
/// overflow). "", "-1", "+1", "1e3" and "12abc" are rejected.
inline bool parse_u64_strict(const std::string& value, std::uint64_t& out) {
  if (value.empty() || value.size() > 19) return false;
  std::uint64_t v = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

/// Finite decimal number ("250", "0.95", "-3", "1e-2"): only digits, sign,
/// point and exponent characters, read whole, with a finite result. "",
/// "5x", "nan", "inf", "0x10", " 5" and "1e999" are rejected.
inline bool parse_double_strict(const std::string& value, double& out) {
  if (value.empty() ||
      value.find_first_not_of("0123456789+-.eE") != std::string::npos)
    return false;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || !std::isfinite(v)) return false;
  out = v;
  return true;
}

}  // namespace gfor14
