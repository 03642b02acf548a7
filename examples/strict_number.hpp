// Strict command-line parsing, shared by gfor14_cli and gfor14-audit.
//
// Numbers: a value is accepted only when the WHOLE string is the number.
// std::stoul / std::strtod alone would read a prefix ("12abc"), skip
// leading whitespace, or accept "nan", "inf" and hex floats.
//
// Flags: each tool declares its options as one FlagTable (flag name ->
// handler bound to the field it sets) and reads argv through parse_flags,
// so every option's checks are written once, whichever tool, subcommand or
// recorded config field feeds it.
#pragma once

#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>

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

inline bool parse_size_strict(const std::string& value, std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64_strict(value, v)) return false;
  out = static_cast<std::size_t>(v);
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

/// Prints a one-line "error: ..." diagnostic and returns false: the parsing
/// convention, after which the tool prints its usage text and exits 2.
inline bool complain(const char* fmt_str, ...) {
  std::va_list args;
  va_start(args, fmt_str);
  std::fprintf(stderr, "error: ");
  std::vfprintf(stderr, fmt_str, args);
  std::fprintf(stderr, "\n");
  va_end(args);
  return false;
}

inline bool complain_number(const std::string& key, const std::string& value) {
  return complain("invalid value '%s' for %s (expected an unsigned integer)",
                  value.c_str(), key.c_str());
}

/// Reads one occurrence of a flag: `key` names where the value came from
/// (the flag, or a recorded config field) for the diagnostic; `value` is
/// empty for a switch. False, with a diagnostic, when the value is rejected.
using FlagHandler =
    std::function<bool(const std::string& key, const std::string& value)>;

struct Flag {
  // Implicit, so a table entry may name a bare handler.
  template <typename F>
    requires std::is_constructible_v<FlagHandler, F>
  Flag(F&& h, bool value = true)
      : handle(std::forward<F>(h)), takes_value(value) {}
  FlagHandler handle;
  bool takes_value;  ///< false: a switch, given without a value
};

using FlagTable = std::map<std::string, Flag>;

/// An unsigned integer in [min, max].
inline FlagHandler count_flag(std::size_t& field, std::size_t min,
                              std::size_t max = SIZE_MAX) {
  return [&field, min, max](const std::string& key, const std::string& v) {
    if (!parse_size_strict(v, field)) return complain_number(key, v);
    if (field < min)
      return complain("%s must be at least %zu (got '%s')", key.c_str(), min,
                      v.c_str());
    if (field > max)
      return complain("%s must be at most %zu (got '%s')", key.c_str(), max,
                      v.c_str());
    return true;
  };
}

/// A finite decimal in (0, max] when `positive`, else [0, max].
inline FlagHandler real_flag(double& field, bool positive,
                             double max = HUGE_VAL) {
  return [&field, positive, max](const std::string& key,
                                 const std::string& v) {
    if (!parse_double_strict(v, field) || field < 0.0 ||
        (positive && field == 0.0) || field > max)
      return complain("invalid value '%s' for %s", v.c_str(), key.c_str());
    return true;
  };
}

/// Any unsigned 64-bit decimal.
inline FlagHandler seed_flag(std::uint64_t& field) {
  return [&field](const std::string& key, const std::string& v) {
    return parse_u64_strict(v, field) || complain_number(key, v);
  };
}

/// Any text, taken as given.
inline FlagHandler text_flag(std::string& field) {
  return [&field](const std::string&, const std::string& v) {
    field = v;
    return true;
  };
}

/// A switch: present sets `field`.
inline Flag switch_flag(bool& field) {
  return Flag(
      [&field](const std::string&, const std::string&) {
        field = true;
        return true;
      },
      false);
}

/// Reads argv[first, argc) through `flags`: a switch stands alone, any
/// other flag takes the next argument as its value. False, with a
/// diagnostic, on an unknown flag, a missing value or a rejected value.
inline bool parse_flags(const FlagTable& flags, int argc, char** argv,
                        int first) {
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    const auto it = flags.find(key);
    if (it == flags.end()) return complain("unknown option '%s'", key.c_str());
    if (!it->second.takes_value) {
      if (!it->second.handle(key, "")) return false;
      continue;
    }
    if (i + 1 >= argc) return complain("%s requires a value", key.c_str());
    if (!it->second.handle(key, argv[++i])) return false;
  }
  return true;
}

}  // namespace gfor14
