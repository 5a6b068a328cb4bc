// Instruction tracer: an InstrumentHook that records (or streams) the
// dynamic instruction stream with filtering — the NVBit "instr_count /
// opcode_hist / trace" tools rolled into one. Used for debugging kernels,
// for replaying the neighbourhood of an injection site, and by tests.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sassim/instrument.h"

namespace gfi::sim {

/// One traced dynamic instruction.
struct TraceEntry {
  u64 dyn_index = 0;
  u32 cta = 0;
  u32 warp = 0;
  u32 pc = 0;
  Opcode op = Opcode::kNop;
  InstrGroup group = InstrGroup::kControl;
  u32 exec_mask = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Filter + bounded recording. By default records everything up to
/// `max_entries`; set `filter` to record a subset (e.g. one warp, one
/// opcode group, a dynamic-index window around an injection site).
class TracerHook final : public InstrumentHook {
 public:
  using Filter = std::function<bool(const TraceEntry&)>;

  explicit TracerHook(std::size_t max_entries = 4096)
      : max_entries_(max_entries) {}

  void set_filter(Filter filter) { filter_ = std::move(filter); }

  /// Convenience filters.
  static Filter only_warp(u32 cta, u32 warp);
  static Filter only_group(InstrGroup group);
  static Filter window(u64 first_dyn, u64 last_dyn);

  /// Declares that nothing after dynamic index `last_dyn` is of interest
  /// (pair with `window`): once the stream passes it the tracer reports
  /// done_observing() and the engine may finish the launch on the hook-free
  /// tier. Without this the tracer observes the whole launch.
  void stop_after(u64 last_dyn) { stop_after_ = last_dyn; }
  [[nodiscard]] bool done_observing() const override {
    return seen_ > stop_after_;
  }

  void on_before_instr(InstrContext& ctx) override;

  [[nodiscard]] const std::vector<TraceEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] u64 seen() const { return seen_; }
  [[nodiscard]] bool truncated() const { return truncated_; }
  void clear();

  /// Multi-line listing of the captured trace.
  [[nodiscard]] std::string to_string() const;

 private:
  std::size_t max_entries_;
  Filter filter_;
  std::vector<TraceEntry> entries_;
  u64 seen_ = 0;
  u64 stop_after_ = ~0ULL;  ///< dynamic index bound set via stop_after()
  bool truncated_ = false;
};

}  // namespace gfi::sim
