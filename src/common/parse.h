// The one unsigned-integer grammar for every reader of user- or file-
// supplied numbers: CLI flags, failpoint specs, and JSONL journals, plan
// files, leases and heartbeats.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>

#include "common/types.h"

namespace gfi {

/// Parses the whole of `text` as an unsigned 64-bit integer: decimal
/// digits, or `0x`/`0X` and hex digits when `allow_hex`. Rejects the empty
/// string, a sign, whitespace, trailing garbage, values above 2^64-1, and a
/// decimal number with a leading zero ("010"), which other parsers read as
/// octal.
[[nodiscard]] inline std::optional<u64> parse_u64(std::string_view text,
                                                  bool allow_hex = false) {
  int base = 10;
  if (allow_hex && text.size() > 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  } else if (text.size() > 1 && text[0] == '0') {
    return std::nullopt;
  }
  // from_chars takes no sign, whitespace or prefix for an unsigned type and
  // reports overflow, so only the whole-string check is left to do here.
  u64 value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value, base);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

}  // namespace gfi
