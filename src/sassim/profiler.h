// Dynamic-instruction profiler: the "profiling pass" of a two-phase
// NVBitFI-style campaign. Counts dynamic warp and thread instructions per
// opcode and per instruction group; the fault-site sampler draws from these
// counts.
#pragma once

#include <array>
#include <bit>

#include "common/types.h"
#include "sassim/instrument.h"

namespace gfi::sim {

/// Per-kernel dynamic instruction profile.
struct Profile {
  std::array<u64, kOpcodeCount> warp_instrs_by_opcode{};
  std::array<u64, kInstrGroupCount> warp_instrs_by_group{};
  std::array<u64, kInstrGroupCount> thread_instrs_by_group{};
  u64 total_warp_instrs = 0;
  u64 total_thread_instrs = 0;

  [[nodiscard]] u64 group_warp_count(InstrGroup group) const {
    return warp_instrs_by_group[static_cast<int>(group)];
  }
  [[nodiscard]] u64 group_thread_count(InstrGroup group) const {
    return thread_instrs_by_group[static_cast<int>(group)];
  }

  void merge(const Profile& other);
  bool operator==(const Profile&) const = default;
};

/// Hook that accumulates a Profile during a launch.
class ProfilerHook final : public InstrumentHook {
 public:
  void on_before_instr(InstrContext& ctx) override {
    ++profile_.warp_instrs_by_opcode[static_cast<int>(ctx.instr->op)];
    ++profile_.warp_instrs_by_group[static_cast<int>(ctx.group)];
    profile_.thread_instrs_by_group[static_cast<int>(ctx.group)] +=
        static_cast<u64>(std::popcount(ctx.exec_mask));
    ++profile_.total_warp_instrs;
    profile_.total_thread_instrs +=
        static_cast<u64>(std::popcount(ctx.exec_mask));
  }

  [[nodiscard]] const Profile& profile() const { return profile_; }
  void reset() { profile_ = {}; }

 private:
  Profile profile_;
};

}  // namespace gfi::sim
