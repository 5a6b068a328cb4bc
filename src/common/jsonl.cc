#include "common/jsonl.h"

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/parse.h"

namespace gfi::jsonl {

void append_key(std::string& out, const char* key) {
  // The buffer normally starts as "{"; guard the empty case so a misuse can
  // never index out.back() of an empty string (UB).
  if (!out.empty() && out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
}

void append_u64(std::string& out, const char* key, u64 value) {
  append_key(out, key);
  out += std::to_string(value);
}

void append_f64(std::string& out, const char* key, f64 value) {
  append_key(out, key);
  if (std::isnan(value)) {
    // %.17g would print `nan`, which is not JSON and breaks every consumer
    // (including our own resume parse). Null round-trips as NaN.
    out += "null";
    return;
  }
  if (std::isinf(value)) {
    // Infinities are legitimate record values (e.g. relative error against
    // a zero golden element), so they must survive a journal round-trip.
    // `1e999` is a grammatically valid JSON number that strtod overflows
    // back to ±HUGE_VAL, unlike the non-JSON `inf` token %.17g prints.
    out += value > 0 ? "1e999" : "-1e999";
    return;
  }
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

void append_str(std::string& out, const char* key, const std::string& value) {
  append_key(out, key);
  out += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_u64_array(std::string& out, const char* key,
                      const std::vector<u64>& values) {
  append_key(out, key);
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
}

namespace {

bool skip_ws(const std::string& s, std::size_t& pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
    ++pos;
  }
  return pos < s.size();
}

bool parse_quoted(const std::string& s, std::size_t& pos, std::string* out) {
  if (pos >= s.size() || s[pos] != '"') return false;
  ++pos;
  out->clear();
  while (pos < s.size() && s[pos] != '"') {
    if (s[pos] == '\\') {
      if (++pos >= s.size()) return false;
    }
    *out += s[pos++];
  }
  if (pos >= s.size()) return false;
  ++pos;  // closing quote
  return true;
}

}  // namespace

bool parse_fields(const std::string& line, Fields* out) {
  std::size_t pos = 0;
  if (!skip_ws(line, pos) || line[pos] != '{') return false;
  ++pos;
  if (!skip_ws(line, pos)) return false;
  if (line[pos] == '}') return true;  // empty object
  while (true) {
    std::string key;
    if (!skip_ws(line, pos) || !parse_quoted(line, pos, &key)) return false;
    if (!skip_ws(line, pos) || line[pos] != ':') return false;
    ++pos;
    if (!skip_ws(line, pos)) return false;
    if (line[pos] == '"') {
      std::string value;
      if (!parse_quoted(line, pos, &value)) return false;
      out->scalars[key] = value;
    } else if (line[pos] == '[') {
      ++pos;
      std::vector<u64> values;
      if (!skip_ws(line, pos)) return false;
      while (line[pos] != ']') {
        const std::size_t start = pos;
        while (pos < line.size() && line[pos] != ',' && line[pos] != ']' &&
               !std::isspace(static_cast<unsigned char>(line[pos]))) {
          ++pos;
        }
        const std::optional<u64> value =
            parse_u64(std::string_view(line).substr(start, pos - start));
        if (!value) return false;
        values.push_back(*value);
        if (!skip_ws(line, pos)) return false;
        if (line[pos] == ',') {
          ++pos;
          // A comma needs a value after it: "[1,]" is malformed.
          if (!skip_ws(line, pos) || line[pos] == ']') return false;
        } else if (line[pos] != ']') {
          return false;
        }
      }
      ++pos;  // ']'
      out->arrays[key] = std::move(values);
    } else {
      const std::size_t start = pos;
      while (pos < line.size() && line[pos] != ',' && line[pos] != '}') ++pos;
      if (pos >= line.size()) return false;
      std::size_t end = pos;
      while (end > start &&
             std::isspace(static_cast<unsigned char>(line[end - 1]))) {
        --end;
      }
      out->scalars[key] = line.substr(start, end - start);
    }
    if (!skip_ws(line, pos)) return false;
    if (line[pos] == ',') {
      ++pos;
      continue;
    }
    if (line[pos] == '}') return true;
    return false;
  }
}

std::optional<u64> get_u64(const Fields& fields, const char* key) {
  auto it = fields.scalars.find(key);
  if (it == fields.scalars.end()) return std::nullopt;
  return parse_u64(it->second);
}

std::optional<f64> get_f64(const Fields& fields, const char* key) {
  auto it = fields.scalars.find(key);
  if (it == fields.scalars.end()) return std::nullopt;
  if (it->second == "null") return std::numeric_limits<f64>::quiet_NaN();
  const std::string& text = it->second;
  char* end = nullptr;
  const f64 value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) return std::nullopt;
  return value;
}

std::optional<std::string> get_str(const Fields& fields, const char* key) {
  auto it = fields.scalars.find(key);
  if (it == fields.scalars.end()) return std::nullopt;
  return it->second;
}

Result<u64> read_log(const std::string& path, const LineParser& header,
                     const LineParser& record, Rejected rejected) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::not_found("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string data = buffer.str();

  bool need_header = static_cast<bool>(header);
  u64 valid_bytes = 0;
  u64 line_no = 0;
  for (std::size_t pos = 0, newline;
       (newline = data.find('\n', pos)) != std::string::npos;
       pos = newline + 1) {
    ++line_no;
    const std::string line = data.substr(pos, newline - pos);
    if (!line.empty()) {
      if (need_header) {
        if (Status parsed = header(line); !parsed.is_ok()) return parsed;
        need_header = false;
      } else if (Status parsed = record(line); !parsed.is_ok()) {
        if (rejected == Rejected::kSkip) continue;
        if (newline + 1 == data.size()) break;  // rejected last line: drop
        return Status::internal(path + " is corrupt at line " +
                                std::to_string(line_no) + ": " +
                                parsed.message());
      }
    }
    valid_bytes = newline + 1;
  }
  if (need_header) {
    return Status::failed_precondition(path +
                                       " has no complete header line");
  }
  return valid_bytes;
}

Result<std::FILE*> open_append(const std::string& path, u64 valid_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) {
    return Status::internal("cannot truncate " + path + ": " + ec.message());
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (!file) {
    return Status::internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  return file;
}

Status write_atomically(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp-" + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::internal("cannot create " + tmp + ": " +
                              std::strerror(errno));
    }
    out << content;
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return Status::internal("write to " + tmp + " failed: " +
                              std::strerror(errno));
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status::internal("cannot rename " + tmp + " to " + path + ": " +
                            ec.message());
  }
  return Status::ok();
}

}  // namespace gfi::jsonl
