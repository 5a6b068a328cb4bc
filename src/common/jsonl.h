// Flat one-line JSON (JSONL) writer/scanner shared by the campaign journal
// (fi/journal.cc), the golden cache, and the observability heartbeat stream
// (obs/heartbeat.cc). Supports exactly the shape those files emit: a single
// non-nested object per line whose values are strings, numbers, nulls, and
// arrays of unsigned integers.
//
// Two invariants every producer relies on:
//   * append_f64 never emits the `inf`/`nan` tokens (invalid JSON that would
//     poison a resume parse): NaN serializes as `null` (parsed back by
//     get_f64 as quiet NaN) and ±inf as the overflowing-but-valid JSON
//     number `±1e999` (parsed back as ±inf), so every f64 round-trips.
//   * the writers are append-only on a buffer that starts as "{", and
//     append_key tolerates (ignores) an empty buffer instead of indexing
//     out.back() into undefined behaviour.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace gfi::jsonl {

// ------------------------------------------------------------- writing ---

/// Appends `,"key":` (or `"key":` right after the opening brace). A defensive
/// no-key prefix is used if `out` is empty rather than touching out.back().
void append_key(std::string& out, const char* key);

void append_u64(std::string& out, const char* key, u64 value);

/// Finite values via %.17g (round-trip exact); NaN as `null`, ±inf as
/// `±1e999` (strtod overflows it back to ±inf).
void append_f64(std::string& out, const char* key, f64 value);

/// Quoted string with '"' and '\\' escaped.
void append_str(std::string& out, const char* key, const std::string& value);

void append_u64_array(std::string& out, const char* key,
                      const std::vector<u64>& values);

template <std::size_t N>
void append_array(std::string& out, const char* key,
                  const std::array<u64, N>& values) {
  append_u64_array(out, key, std::vector<u64>(values.begin(), values.end()));
}

// ------------------------------------------------------------- parsing ---

/// Minimal scanner for the flat one-line JSON the writers above produce:
/// string, number/null, and unsigned-array values only, no nesting.
struct Fields {
  std::map<std::string, std::string> scalars;  ///< raw text, strings unquoted
  std::map<std::string, std::vector<u64>> arrays;
};

/// Parses one object line into `out`. Returns false on malformed input
/// (including a truncated line — the caller's torn-tail case).
bool parse_fields(const std::string& line, Fields* out);

/// The whole value as a decimal gfi::parse_u64 (common/parse.h); array
/// elements are held to the same grammar by parse_fields.
std::optional<u64> get_u64(const Fields& fields, const char* key);

/// The whole value must be a number (±1e999 overflows to ±inf, matching
/// append_f64's infinity encoding); a `null` value comes back as quiet NaN.
std::optional<f64> get_f64(const Fields& fields, const char* key);

std::optional<std::string> get_str(const Fields& fields, const char* key);

template <std::size_t N>
bool copy_array(const Fields& fields, const char* key,
                std::array<u64, N>* out) {
  auto it = fields.arrays.find(key);
  if (it == fields.arrays.end() || it->second.size() != N) return false;
  std::copy(it->second.begin(), it->second.end(), out->begin());
  return true;
}

}  // namespace gfi::jsonl
