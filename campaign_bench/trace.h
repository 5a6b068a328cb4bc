// In-memory span recorder for the campaign benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into each gpufi
// layer (nothing inside the library is instrumented): name, start, end, the
// cell (workload x arch) the call worked on, and the enclosing span. They
// stay in memory while the run measures and are written as JSONL once it
// ends, so recording costs two clock reads and a vector append per call.
#pragma once

#include <chrono>
#include <ctime>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace gfi::cbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline f64 seconds_since(Clock::time_point start) {
  return std::chrono::duration<f64>(Clock::now() - start).count();
}

/// Seconds on the steady clock, for differences.
inline f64 wall_seconds() {
  return std::chrono::duration<f64>(Clock::now().time_since_epoch()).count();
}

/// CPU seconds used by every thread of this process so far. Unlike wall
/// time it leaves out time a virtual machine's host spends running other
/// guests (steal time), which can stretch wall-clock campaign times 2x.
inline f64 cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<f64>(now.tv_sec) + static_cast<f64>(now.tv_nsec) * 1e-9;
}

struct Span {
  std::string name;
  std::string cell;
  i64 start_ns = 0;  ///< relative to the tracer's creation
  i64 end_ns = 0;
  i32 parent = -1;   ///< index of the enclosing span, -1 at top level
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  i32 begin(std::string name, std::string cell);
  void end(i32 id);

  /// Durations in seconds of every closed span called `name`.
  [[nodiscard]] std::vector<f64> durations(const std::string& name) const;

  /// Writes one JSON object per span:
  ///   {"id":3,"name":"fi.run_single","cell":"gemm/A100","start_ns":..,
  ///    "end_ns":..,"parent":2}
  Status write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<i32> open_;
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer makes it a no-op, which is how untraced passes run.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string cell)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(std::move(name), std::move(cell)) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  i32 id_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
f64 quantile(std::vector<f64> values, f64 q);

}  // namespace gfi::cbench
