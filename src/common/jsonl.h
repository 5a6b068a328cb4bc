// Flat one-line JSON (JSONL): the line writer/scanner, and the one rule for
// reading and appending the four append logs built from it — the campaign
// journal (fi/journal.cc), the plan file (fi/planner.cc), the supervisor
// state log (fi/supervisor.cc) and the heartbeat sidecar (obs/heartbeat.cc).
// Leases use the line format too, but they are one-line files replaced by
// rename, not append logs.
//
// The log rule (read_log + open_append): a writer appends whole lines, so a
// crash leaves at worst one unterminated last line, which readers drop. A
// complete line the parser rejects is dropped only as the file's last line;
// anywhere else it is corruption and fails the load with its line number.
// Appending reopens the file cut back to the end of the last kept line, so
// a torn tail is never glued onto the next line. The heartbeat's readers
// race its writer, so it alone skips rejected lines anywhere.
//
// The line format supports exactly the shape those files emit: a single
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
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
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

// ----------------------------------------------------------- log files ---

/// Parses one complete, non-empty log line; a non-ok status rejects it.
using LineParser = std::function<Status(const std::string& line)>;

/// What read_log does with a complete line `record` rejects.
enum class Rejected : u8 {
  kTailOnly,  ///< dropped as the last line; elsewhere the load fails
  kSkip,      ///< skipped anywhere (heartbeat readers racing the writer)
};

/// Reads the log at `path` under the rule above, handing each complete
/// line in file order to `header` (the first line, when set) or `record`.
/// A rejected header fails the load with the parser's status, even as the
/// last line: a file that does not start with the caller's header is not
/// the caller's. A corrupt record is kInternal "<path> is corrupt at line
/// N: <why>". Returns the end of the last kept line, where open_append
/// resumes. kNotFound when `path` cannot be opened; kFailedPrecondition
/// when `header` is set and no complete first line exists (its writer died
/// before the line hit the disk, so the caller may recreate the file).
Result<u64> read_log(const std::string& path, const LineParser& header,
                     const LineParser& record,
                     Rejected rejected = Rejected::kTailOnly);

/// Cuts `path` back to `valid_bytes` (read_log's result) and opens it for
/// appending. The caller owns the returned stream.
Result<std::FILE*> open_append(const std::string& path, u64 valid_bytes);

}  // namespace gfi::jsonl
