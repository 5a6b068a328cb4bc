// The SIMT execution engine: schedules CTAs over SMs, executes warps
// instruction-by-instruction with full divergence/barrier/atomic semantics,
// drives instrumentation hooks, and reports timing and traps.
//
// A launch is strictly deterministic: CTAs are assigned to SMs in linear
// order, SMs issue in fixed order within a global cycle loop, and lanes of
// a memory/atomic instruction access memory in lane order. Determinism is
// what makes single-fault injection campaigns exactly replayable.
#pragma once

#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "ecc/protection.h"
#include "sassim/instrument.h"
#include "sassim/machine_config.h"
#include "sassim/memory.h"
#include "sassim/program.h"
#include "sassim/trap.h"
#include "sassim/warp.h"

namespace gfi::sim {

struct Profile;

/// Execution tier the engine runs a launch on. Instructions a hook observes
/// run on the instrumented template; the tier choice governs what the rest
/// runs on: hook-free launches, the post-downgrade remainder of a hooked
/// launch, and all but the struck slot of an armed one (a lone hook with a
/// StrikeRequest). All tiers are bit-identical in every architecturally
/// observable way — results, traps, cycles, dynamic-instruction counts,
/// journals — differing only in speed.
enum class EngineTier : u8 {
  kAuto,          ///< fastest correct tier: threaded, armed for a strike
  kInstrumented,  ///< always the instrumented template (no downgrade)
  kClean,         ///< templated clean path for hook-free execution
  kThreaded,      ///< lowered computed-goto/switch interpreter (default)
};

/// Tier name for metrics/CLI ("auto" never appears in results: kAuto
/// resolves to a concrete tier at launch).
[[nodiscard]] constexpr const char* engine_tier_name(EngineTier tier) {
  switch (tier) {
    case EngineTier::kAuto: return "auto";
    case EngineTier::kInstrumented: return "instrumented";
    case EngineTier::kClean: return "clean";
    case EngineTier::kThreaded: return "threaded";
  }
  return "auto";
}

/// Per-launch options.
struct LaunchOptions {
  /// Abort with kWatchdogTimeout after this many dynamic warp instructions.
  /// 0 selects the default (256M).
  u64 watchdog_instrs = 0;
  /// Instrumentation hooks, invoked in order around every instruction.
  /// A launch with no hooks runs on the hook-free tier (threaded unless
  /// pinned to clean). A lone hook with a StrikeRequest runs armed: only
  /// its struck instruction runs instrumented. Any other hook selects the
  /// instrumented tier until every hook is done observing.
  std::vector<InstrumentHook*> hooks;
  /// When set, the engine accumulates a dynamic-instruction Profile here
  /// natively — no ProfilerHook needed, so a profile-only launch stays on
  /// the hook-free tier. Counts match ProfilerHook's exactly.
  Profile* profile = nullptr;
  /// Dispatch-tier selection. kAuto (and kThreaded) pick the fastest
  /// correct tier per launch: threaded when hook-free, armed threaded for a
  /// strike request, otherwise instrumented while hooks observe and
  /// threaded again after a mid-launch downgrade. kInstrumented pins the
  /// exact pre-refactor inner loop (context construction, double guard-mask
  /// computation, hook walks) and never downgrades — benchmark/equivalence
  /// baseline. kClean pins the hook-free side to the templated clean path
  /// and runs a hooked launch instrumented until its hooks are done
  /// observing (an injector then counts its own occurrences). Both pins
  /// are for debugging and tier-equivalence testing.
  EngineTier engine = EngineTier::kAuto;
};

/// Outcome of one kernel launch.
struct LaunchResult {
  Trap trap;  ///< fired() when the launch aborted (DUE/hang)
  u64 dyn_warp_instrs = 0;    ///< dynamic warp instructions executed
  u64 dyn_thread_instrs = 0;  ///< sum of active lanes over those
  u64 cycles = 0;             ///< timing-model cycles
  ecc::EccCounters ecc;       ///< ECC events observed during the launch
  /// Concrete tier the launch finished on (never kAuto); after a mid-launch
  /// downgrade this is the tier the remainder ran on, and an armed launch
  /// reports kThreaded.
  EngineTier tier_used = EngineTier::kClean;
  /// True when an instrumented launch downgraded mid-run because every hook
  /// finished observing, or an armed launch reached its struck slot.
  bool downgraded = false;

  [[nodiscard]] bool ok() const { return !trap.fired(); }
  /// Wall-model execution time given the arch's SM clock.
  [[nodiscard]] f64 time_us(const MachineConfig& config) const {
    return static_cast<f64>(cycles) / (config.sm_clock_ghz * 1e3);
  }
};

class Simulator {
 public:
  Simulator(const MachineConfig& config, GlobalMemory& memory)
      : config_(config), memory_(memory) {}

  /// Runs `program` over `grid` x `block` threads. `params` are the 64-bit
  /// kernel parameters readable via LDC. Returns launch statistics; traps
  /// are reported in the result, launch-setup errors in the Status.
  Result<LaunchResult> launch(const Program& program, Dim3 grid, Dim3 block,
                              std::span<const u64> params,
                              const LaunchOptions& options = {});

 private:
  struct Cta;
  struct Engine;

  const MachineConfig& config_;
  GlobalMemory& memory_;
};

}  // namespace gfi::sim
