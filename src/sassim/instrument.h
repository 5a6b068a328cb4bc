// NVBit-style dynamic instrumentation interface.
//
// Hooks observe and may mutate architectural state around every dynamic
// warp instruction — the same power NVBitFI's injector has on real GPUs.
// The fault injector, the opcode profiler, and tracing tools are all just
// InstrumentHook implementations.
#pragma once

#include <optional>
#include <span>

#include "common/types.h"
#include "sassim/isa.h"
#include "sassim/trap.h"
#include "sassim/warp.h"

namespace gfi::sim {

class Program;

/// Context handed to hooks for one dynamic warp instruction.
struct InstrContext {
  const Instr* instr = nullptr;
  InstrGroup group = InstrGroup::kControl;
  u64 dyn_index = 0;   ///< global dynamic warp-instruction counter
  u32 cta = 0;         ///< linear CTA id
  u32 warp = 0;        ///< warp index within the CTA
  u32 exec_mask = 0;   ///< lanes that will execute (active & guard)
  WarpState* warp_state = nullptr;  ///< mutable architectural state

  /// A hook may request a synchronous trap (e.g. modeling an RF ECC
  /// double-bit detection); the executor aborts the launch with it.
  TrapKind requested_trap = TrapKind::kNone;
};

/// A one-shot hook's single point of interest: occurrence `occurrence`
/// (counted from 0) among the dynamic warp instructions whose group has its
/// bit set in `groups` (bit i = InstrGroup i). A hook that declares one lets
/// the engine run the launch on the threaded tier, count eligible issues
/// natively, and run only that one slot instrumented.
struct StrikeRequest {
  u32 groups = 0;
  u64 occurrence = 0;
};

/// Callback interface invoked by the simulator around every instruction.
class InstrumentHook {
 public:
  virtual ~InstrumentHook() = default;

  /// Called once when a launch starts / finishes.
  virtual void on_launch_begin(const Program& /*program*/) {}
  virtual void on_launch_end() {}

  /// Called before the instruction executes. May mutate sources (RF /
  /// predicate injection) or request a trap.
  virtual void on_before_instr(InstrContext& /*ctx*/) {}

  /// Called after the instruction executed and wrote its destination.
  /// May mutate the destination (IOV injection).
  virtual void on_after_instr(InstrContext& /*ctx*/) {}

  /// Store-address transform (IOA injection). Returns the address actually
  /// used for lane `lane` of a store.
  virtual u64 transform_store_address(u64 addr, const InstrContext& /*ctx*/,
                                      u32 /*lane*/) {
    return addr;
  }

  /// True once this hook no longer needs to observe or mutate anything for
  /// the rest of the launch. When every attached hook reports done, the
  /// engine downgrades mid-launch from the instrumented tier to the
  /// hook-free tier the launch would otherwise run on (NVBitFI's
  /// detach-after-strike optimisation); on_launch_end is still delivered.
  /// Hooks that observe the whole launch (profiler, tracer) keep the
  /// default.
  [[nodiscard]] virtual bool done_observing() const { return false; }

  /// The hook's strike point, when it only ever acts on one dynamic
  /// instruction. When it is the launch's only hook and the engine is not
  /// pinned to the instrumented or clean tier, the engine runs the launch
  /// armed: threaded up to that instruction, which alone runs instrumented
  /// (on_strike_slot, then the usual before/after callbacks and store-
  /// address transforms), then hook-free to the end. No other callback but
  /// on_launch_begin/end is delivered. Hooks that observe every instruction
  /// keep the default.
  [[nodiscard]] virtual std::optional<StrikeRequest> strike_request() const {
    return std::nullopt;
  }

  /// Armed launches only: the engine has counted the eligible issues, and
  /// the callbacks that follow are for the requested occurrence.
  virtual void on_strike_slot() {}
};

/// RAII pairing of on_launch_begin / on_launch_end around a launch: every
/// exit path (completion, trap, watchdog, barrier deadlock) delivers the
/// end callback exactly once.
class LaunchScope {
 public:
  LaunchScope(std::span<InstrumentHook* const> hooks, const Program& program)
      : hooks_(hooks) {
    for (InstrumentHook* hook : hooks_) hook->on_launch_begin(program);
  }
  ~LaunchScope() {
    for (InstrumentHook* hook : hooks_) hook->on_launch_end();
  }
  LaunchScope(const LaunchScope&) = delete;
  LaunchScope& operator=(const LaunchScope&) = delete;

 private:
  std::span<InstrumentHook* const> hooks_;
};

}  // namespace gfi::sim
