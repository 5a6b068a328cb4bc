// The SIMT execution engine: schedules CTAs over SMs, executes warps
// instruction-by-instruction with full divergence/barrier/atomic semantics,
// drives instrumentation hooks, and reports timing and traps.
//
// A launch is strictly deterministic: CTAs are assigned to SMs in linear
// order, SMs issue in fixed order within a global cycle loop, and lanes of
// a memory/atomic instruction access memory in lane order. Determinism is
// what makes single-fault injection campaigns exactly replayable.
#pragma once

#include <array>
#include <memory>
#include <mutex>
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
class CheckpointTable;
struct LaunchCheckpoint;

/// Execution tier the engine runs a launch on. Instructions a hook observes
/// run on the instrumented template; the tier choice governs what the rest
/// runs on: hook-free launches and all but the struck slot of an armed one
/// (a lone hook with a StrikeRequest). Both tiers are bit-identical in every
/// architecturally observable way — results, traps, cycles, dynamic-
/// instruction counts, journals — differing only in speed.
enum class EngineTier : u8 {
  kThreaded,      ///< lowered computed-goto/switch interpreter (default)
  kInstrumented,  ///< always the instrumented template: the reference
};

/// The one tier name table: metrics counter suffixes, CLI parsing and its
/// error text all read it.
struct EngineTierName {
  EngineTier tier;
  const char* name;
};
inline constexpr EngineTierName kEngineTierNames[] = {
    {EngineTier::kThreaded, "threaded"},
    {EngineTier::kInstrumented, "instrumented"},
};

[[nodiscard]] constexpr const char* engine_tier_name(EngineTier tier) {
  for (const EngineTierName& entry : kEngineTierNames) {
    if (entry.tier == tier) return entry.name;
  }
  return "threaded";
}

/// Per-launch options.
struct LaunchOptions {
  /// Abort with kWatchdogTimeout after this many dynamic warp instructions.
  /// 0 selects the default (256M).
  u64 watchdog_instrs = 0;
  /// Instrumentation hooks, invoked in order around every instruction.
  /// A launch with no hooks runs on the threaded tier. A lone hook with a
  /// StrikeRequest runs armed: only its struck instruction runs
  /// instrumented. Any other hooked launch runs instrumented to the end.
  std::vector<InstrumentHook*> hooks;
  /// When set, the engine accumulates a dynamic-instruction Profile here
  /// natively — no ProfilerHook needed, so a profile-only launch stays on
  /// the hook-free tier. Counts match ProfilerHook's exactly.
  Profile* profile = nullptr;
  /// Dispatch-tier selection. kThreaded runs hook-free launches threaded
  /// and a strike request armed; other hooked launches run instrumented.
  /// kInstrumented pins the exact pre-refactor inner loop (context
  /// construction, double guard-mask computation, hook walks) for the whole
  /// launch — the reference tests and CI diff the threaded tier against.
  EngineTier engine = EngineTier::kThreaded;
  /// Fast-forward, armed launches only (a lone hook with a StrikeRequest,
  /// engine not pinned). The launch fills every empty slot of this table
  /// whose grid mark it crosses before its strike fires.
  CheckpointTable* checkpoints = nullptr;
  /// Fast-forward, armed launches only: resume from this checkpoint of the
  /// same launch instead of from its start. Device memory is restored from
  /// the checkpoint, and the strike counter starts at the checkpoint's
  /// count for StrikeRequest::groups, which must not exceed the requested
  /// occurrence. Incompatible with `profile` (the skipped prefix would go
  /// uncounted).
  const LaunchCheckpoint* resume_from = nullptr;
};

/// Outcome of one kernel launch.
struct LaunchResult {
  Trap trap;  ///< fired() when the launch aborted (DUE/hang)
  u64 dyn_warp_instrs = 0;    ///< dynamic warp instructions executed
  u64 dyn_thread_instrs = 0;  ///< sum of active lanes over those
  u64 cycles = 0;             ///< timing-model cycles
  ecc::EccCounters ecc;       ///< ECC events observed during the launch
  /// Tier the launch finished on: an armed launch reports kThreaded.
  EngineTier tier_used = EngineTier::kThreaded;
  /// True when an armed launch reached its struck slot and finished on the
  /// plain threaded tier.
  bool downgraded = false;

  [[nodiscard]] bool ok() const { return !trap.fired(); }
  /// Wall-model execution time given the arch's SM clock.
  [[nodiscard]] f64 time_us(const MachineConfig& config) const {
    return static_cast<f64>(cycles) / (config.sm_clock_ghz * 1e3);
  }
};

/// A checkpoint's flat image, in words: on the heap, or in pages mapped for
/// it alone and handed back to the OS when it goes (CheckpointTable).
class ImageBuffer {
 public:
  ImageBuffer() = default;
  /// `words` uninitialized words; throws std::bad_alloc when out of memory.
  ImageBuffer(std::size_t words, bool map_pages);
  ~ImageBuffer();
  ImageBuffer(ImageBuffer&& other) noexcept;
  ImageBuffer& operator=(ImageBuffer&& other) noexcept;
  ImageBuffer(const ImageBuffer&) = delete;
  ImageBuffer& operator=(const ImageBuffer&) = delete;

  [[nodiscard]] u32* data() { return data_; }
  [[nodiscard]] const u32* data() const { return data_; }

 private:
  void release();

  u32* data_ = nullptr;
  std::size_t words_ = 0;
  bool mapped_ = false;
};

/// The whole engine state of an armed launch at a cycle boundary before its
/// strike: resident CTAs (warps with their fusion stashes, shared memory),
/// the grid cursor, counters and the timing-model cycle, the issue count of
/// every instruction group, and device memory. Resuming from it reproduces
/// the launch from that boundary on bit for bit (DESIGN.md §4.14). The CTAs
/// and the memory bytes are one flat image: a single allocation, where
/// copies of the CTA objects would be one per warp and would leave the heap
/// fragmented behind a campaign's checkpoints.
struct LaunchCheckpoint {
  Dim3 grid;
  Dim3 block;
  std::vector<u32> pool_sizes;  ///< resident CTAs per SM
  u64 resident_count = 0;
  u64 next_cta = 0;
  u64 dyn_warp = 0;
  u64 dyn_thread = 0;
  u64 cycle = 0;
  std::array<u64, kInstrGroupCount> group_issues{};  ///< issues per group
  GlobalMemory::Snapshot memory;  ///< all but the bytes, which are in image
  ImageBuffer image;  ///< every pool's CTAs in order, then memory bytes

  /// Issues so far of the groups whose bit is set in `groups`: the armed
  /// strike counter at this boundary.
  [[nodiscard]] u64 issues(u32 groups) const {
    u64 count = 0;
    for (int g = 0; g < kInstrGroupCount; ++g) {
      if (((groups >> g) & 1u) != 0) count += group_issues[g];
    }
    return count;
  }
};

/// Upper bound on the launch state a LaunchCheckpoint of this launch holds:
/// `memory_bytes` of device memory plus the registers and shared memory of
/// the CTAs the grid keeps resident at full occupancy.
[[nodiscard]] u64 launch_state_bytes(const MachineConfig& config,
                                     const Program& program, Dim3 grid,
                                     Dim3 block, u64 memory_bytes);

/// Golden-prefix checkpoints of one launch configuration, shared by every
/// armed launch of it. Slot i holds the state at the first cycle boundary
/// whose dynamic warp-instruction count reaches marks()[i]. Armed launches
/// fill slots lazily from their own prefixes; every launch that fills a
/// slot holds the identical state there, so the order in which concurrent
/// launches fill it cannot change any result. Thread-safe.
class CheckpointTable {
 public:
  /// One empty slot per mark; `marks` ascend. A table with no marks never
  /// fills and never resumes. `map_pages` keeps the images off the heap:
  /// set it when several threads launch, since each thread's malloc arena
  /// would keep the high-water mark of the checkpoints that thread took.
  /// With one thread, heap images reuse memory the process already holds.
  explicit CheckpointTable(std::vector<u64> marks, bool map_pages = false);
  /// `count` marks at the multiples of golden_dyn_instrs / (count + 1), or
  /// none when that step is 0.
  [[nodiscard]] static std::vector<u64> even_marks(u64 golden_dyn_instrs,
                                                   u32 count);

  [[nodiscard]] const std::vector<u64>& marks() const { return marks_; }
  [[nodiscard]] bool map_pages() const { return map_pages_; }
  /// True while slot `slot` is empty.
  [[nodiscard]] bool wants(std::size_t slot) const;
  /// Stores `checkpoint` in slot `slot` unless that slot is already filled.
  void offer(std::size_t slot, LaunchCheckpoint checkpoint);
  /// The latest filled checkpoint before `strike` fires (its issue count
  /// for strike.groups at most strike.occurrence), or null.
  [[nodiscard]] std::shared_ptr<const LaunchCheckpoint> nearest(
      const StrikeRequest& strike) const;
  /// Slot `slot`'s checkpoint, or null while it is empty.
  [[nodiscard]] std::shared_ptr<const LaunchCheckpoint> at(
      std::size_t slot) const;
  [[nodiscard]] std::size_t filled() const;

 private:
  std::vector<u64> marks_;
  bool map_pages_;
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<const LaunchCheckpoint>> slots_;
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
