// Strict command-line value parsers for the gpufi tools.
//
// The bare strtoull idiom silently accepts garbage ("--injections=10k" runs
// 10 injections, "--seed=abc" becomes 0), which is poison for campaigns that
// are supposed to be replayable from their flag line. These helpers accept a
// value only if the ENTIRE string parses; anything else is a parse failure
// the caller turns into a one-line error and a non-zero exit. Integers use
// the shared grammar of common/parse.h (gfi::parse_u64).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/types.h"

namespace gfi::cli {

/// Decimal gfi::parse_u64 restricted to the u32 range.
inline std::optional<u32> parse_u32(const std::string& text) {
  auto value = parse_u64(text);
  if (!value || *value > 0xffffffffULL) return std::nullopt;
  return static_cast<u32>(*value);
}

/// Parses a comma-separated list of unsigned integers ("3,17,133"). The
/// empty string is an empty list; any unparsable element fails the whole
/// list. Used for --quarantine.
inline std::optional<std::vector<u64>> parse_u64_list(const std::string& text) {
  std::vector<u64> values;
  if (text.empty()) return values;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    const std::string piece = comma == std::string::npos
                                  ? text.substr(start)
                                  : text.substr(start, comma - start);
    auto value = parse_u64(piece);
    if (!value) return std::nullopt;
    values.push_back(*value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

/// Parses a finite floating-point value, requiring the whole string to be
/// consumed. Rejects empty strings, whitespace, inf/nan spellings (a
/// half-width of "inf" is never a sane campaign parameter), and trailing
/// garbage ("0.05x").
inline std::optional<f64> parse_f64(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// A validated "--shard=i/N" value: 0 <= index < count.
struct Shard {
  u32 index = 0;
  u32 count = 1;
};

/// Parses "i/N". Rejects a missing slash, non-numeric pieces, N == 0, and
/// i >= N.
inline std::optional<Shard> parse_shard(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return std::nullopt;
  auto index = parse_u32(text.substr(0, slash));
  auto count = parse_u32(text.substr(slash + 1));
  if (!index || !count || *count == 0 || *index >= *count) {
    return std::nullopt;
  }
  return Shard{*index, *count};
}

}  // namespace gfi::cli
