#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/jsonl.h"

namespace gfi::cbench {

i32 Tracer::begin(std::string name, std::string cell) {
  Span span;
  span.name = std::move(name);
  span.cell = std::move(cell);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(std::move(span));
  const i32 id = static_cast<i32>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(i32 id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  // Spans are strictly nested (ScopedSpan), so the closing one is on top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<f64> Tracer::durations(const std::string& name) const {
  std::vector<f64> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= span.start_ns) {
      out.push_back(static_cast<f64>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

Status Tracer::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return Status::internal("cannot write trace file " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::string line = "{";
    jsonl::append_u64(line, "id", i);
    jsonl::append_str(line, "name", span.name);
    jsonl::append_str(line, "cell", span.cell);
    jsonl::append_u64(line, "start_ns", static_cast<u64>(span.start_ns));
    jsonl::append_u64(line, "end_ns", static_cast<u64>(span.end_ns));
    jsonl::append_key(line, "parent");
    line += std::to_string(span.parent);
    line += "}\n";
    std::fputs(line.c_str(), file);
  }
  return std::fclose(file) == 0
             ? Status::ok()
             : Status::internal("cannot finish trace file " + path);
}

f64 quantile(std::vector<f64> values, f64 q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const f64 pos = q * static_cast<f64>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<f64>(lo));
}

}  // namespace gfi::cbench
