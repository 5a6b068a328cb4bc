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
#include <cstddef>
#include <span>
#include <utility>
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
struct IssueGrid;
struct LaunchCheckpoint;
struct GoldenTail;

/// Execution tier the engine runs a launch on. Instructions a hook observes
/// run on the instrumented template; the tier choice governs what the rest
/// runs on: hook-free launches and all but the struck slot of an armed one
/// (a hook with a StrikeRequest). Both tiers are bit-identical in every
/// architecturally observable way — results, traps, cycles, dynamic-
/// instruction counts, journals — differing only in speed.
enum class EngineTier : u8 {
  kThreaded,      ///< lowered handler-id interpreter (default)
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

/// Why the golden twin of an armed launch's struck warp gave up, or the
/// warp's copy running ahead of the other warps could not go on, before
/// the warp rejoined the twin (LaunchOptions::golden_tail); kNone when
/// neither happened. Either way the launch runs to its end.
enum class TwinGiveUp : u8 {
  kNone,
  kControl,        ///< a control instruction or store ran other lanes
  kStoreAddress,   ///< a store went to other addresses
  kPartialStore,   ///< a narrower-than-word store stored otherwise
  kNotWriteOnce,   ///< a word stored otherwise is not write-once
  kTooManyWords,   ///< more words stored otherwise than the twin keeps
  kAtomic,         ///< an atomic (ATOMS or ATOMG)
  kTrap,           ///< the copy or the twin trapped
  kBarrier,        ///< a BAR
  kShared,         ///< a shared load or store (LDS, STS)
  kForeignLoad,    ///< a load of a word another warp writes
  kUndoFull,       ///< more stores than the undo log holds
  kWatchdog,       ///< the launch's watchdog, or a golden run that reaches it
};

/// The one give-up name table, every reason after kNone in enum order:
/// metrics counter suffixes read it.
struct TwinGiveUpName {
  TwinGiveUp reason;
  const char* name;
};
inline constexpr TwinGiveUpName kTwinGiveUpNames[] = {
    {TwinGiveUp::kControl, "control"},
    {TwinGiveUp::kStoreAddress, "store_address"},
    {TwinGiveUp::kPartialStore, "partial_store"},
    {TwinGiveUp::kNotWriteOnce, "not_write_once"},
    {TwinGiveUp::kTooManyWords, "too_many_words"},
    {TwinGiveUp::kAtomic, "atomic"},
    {TwinGiveUp::kTrap, "trap"},
    {TwinGiveUp::kBarrier, "barrier"},
    {TwinGiveUp::kShared, "shared"},
    {TwinGiveUp::kForeignLoad, "foreign_load"},
    {TwinGiveUp::kUndoFull, "undo_full"},
    {TwinGiveUp::kWatchdog, "watchdog"},
};
static_assert(
    [] {
      int next = static_cast<int>(TwinGiveUp::kNone) + 1;
      for (const TwinGiveUpName& entry : kTwinGiveUpNames) {
        if (static_cast<int>(entry.reason) != next++) return false;
      }
      return next == static_cast<int>(TwinGiveUp::kWatchdog) + 1;
    }(),
    "kTwinGiveUpNames lists every reason after kNone, in enum order");

/// Per-launch options.
struct LaunchOptions {
  /// Abort with kWatchdogTimeout after this many dynamic warp instructions.
  /// 0 selects the default (256M).
  u64 watchdog_instrs = 0;
  /// Instrumentation hook, invoked around every instruction. A launch
  /// with no hook runs on the threaded tier. A hook with a StrikeRequest
  /// runs armed: only its struck instruction runs instrumented. Any other
  /// hooked launch runs instrumented to the end.
  InstrumentHook* hook = nullptr;
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
  /// With `profile`: rows of the profile's per-group issue counts on this
  /// grid's marks, appended as the launch reaches them (IssueGrid).
  IssueGrid* issue_grid = nullptr;
  /// Fast-forward, armed launches only (a hook with a StrikeRequest,
  /// engine not pinned): capture the launch state into this checkpoint at
  /// the first cycle boundary whose dynamic warp-instruction count reaches
  /// `capture_at`, unless the strike fires first (LaunchResult::captured).
  /// It may be `resume_from` itself, which the launch has read by then;
  /// its image buffer is reused when large enough.
  LaunchCheckpoint* capture = nullptr;
  u64 capture_at = 0;
  /// Fast-forward, armed launches only: resume from this checkpoint of the
  /// same launch instead of from its start. Device memory is restored from
  /// the checkpoint, and the strike counter starts at the checkpoint's
  /// count for StrikeRequest::groups, which must not exceed the requested
  /// occurrence. Incompatible with `profile` (the skipped prefix would go
  /// uncounted). A hook-free launch cannot resume: it always runs whole.
  const LaunchCheckpoint* resume_from = nullptr;
  /// What a capture leaves out because a resume rebuilds it (DESIGN.md
  /// §4.14). With `live_rows` (one mask per pc of the program) a warp keeps
  /// only the register rows live at its pc or at the pc of any SIMT-stack
  /// entry, a done warp none; without it, every row. With `memory_base`
  /// (the device memory at launch start: checkpoint 0) the image keeps only
  /// the 4 KiB memory pages that differ from it, and a resume from such an
  /// image needs the same base; without it, every page.
  const LiveRows* live_rows = nullptr;
  const GlobalMemory::Snapshot* memory_base = nullptr;
  /// Stop at reconvergence, armed launches only (DESIGN.md §4.14): the
  /// golden run of this launch from `memory_base`, as a hook-free launch
  /// recorded it into `record_tail`. Needs `live_rows` and `memory_base`;
  /// incompatible with `profile`. Just before its struck slot the struck
  /// warp is copied into a golden twin, which runs the slot without the
  /// fault. Right after it, a copy of the warp and the twin run ahead of
  /// every other warp, as long as they meet no barrier, shared memory or
  /// atomic and load only words no other warp writes in the golden run
  /// (GoldenTail::writer). Once the warp's pc, masks and SIMT stack equal
  /// the twin's, no register row that differs is live, the predicates of
  /// its lanes that have not exited agree, and every word it stored
  /// differently is one the golden run writes once and never reads again,
  /// the rest of the launch is the golden run's: the launch ends there,
  /// at the struck slot or with no other warp run past it, with the golden
  /// run's final memory (plus the warp's differing words) and counts
  /// (LaunchResult::reconverged). Where the copy cannot go on, or the twin
  /// gives up, or the golden run reaches `watchdog_instrs`, the launch runs
  /// to its end.
  const GoldenTail* golden_tail = nullptr;
  /// Hook-free launches only: record what golden_tail needs into this.
  GoldenTail* record_tail = nullptr;
};

/// Outcome of one kernel launch.
struct LaunchResult {
  Trap trap;  ///< fired() when the launch aborted (DUE/hang)
  u64 dyn_warp_instrs = 0;    ///< dynamic warp instructions executed
  u64 dyn_thread_instrs = 0;  ///< sum of active lanes over those
  /// Warp instructions the threaded tier (plain or armed) handed to the
  /// generic per-lane loop because no row path covered them. Telemetry
  /// only; instrumented launches report 0.
  u64 generic_warp_instrs = 0;
  u64 cycles = 0;             ///< timing-model cycles
  ecc::EccCounters ecc;       ///< ECC events observed during the launch
  /// Tier the launch finished on: an armed launch reports kThreaded.
  EngineTier tier_used = EngineTier::kThreaded;
  /// True when an armed launch reached its struck slot and finished on the
  /// plain threaded tier.
  bool downgraded = false;
  /// True when the launch filled LaunchOptions::capture.
  bool captured = false;
  /// True when an armed launch stopped where its struck warp rejoined its
  /// golden twin (LaunchOptions::golden_tail); its counts, cycles and ECC
  /// counters are then the golden run's. `reconverged_at` is the dynamic
  /// warp-instruction count where it stopped: the warp instructions it
  /// simulated, the launch up to the struck slot and the struck warp's
  /// copy's instructions after it (the struck index + 1 for a stop at the
  /// strike itself).
  bool reconverged = false;
  u64 reconverged_at = 0;
  /// Why the struck warp's golden twin gave up, or its copy could not run
  /// on ahead, kNone when neither happened (or no twin ran). Telemetry
  /// only.
  TwinGiveUp twin_gave_up = TwinGiveUp::kNone;
  /// Wall time of the resume from LaunchOptions::resume_from (resident
  /// CTAs and device memory) and of the capture into
  /// LaunchOptions::capture, 0 when there was none. Telemetry only.
  u64 resume_ns = 0;
  u64 capture_ns = 0;
  /// Wall time of an armed launch from the end of its resume (or its
  /// start) to its struck slot, less the capture: to its end when the
  /// strike never came. Telemetry only; an unarmed launch reports 0.
  u64 prefix_ns = 0;
  /// Wall time of an armed launch from its struck slot to its end, 0 when
  /// the strike never came. Telemetry only. An armed launch takes
  /// resume_ns + capture_ns + prefix_ns + post_strike_ns in all, less
  /// its set-up.
  u64 post_strike_ns = 0;

  [[nodiscard]] bool ok() const { return !trap.fired(); }
  /// Wall-model execution time given the arch's SM clock.
  [[nodiscard]] f64 time_us(const MachineConfig& config) const {
    return static_cast<f64>(cycles) / (config.sm_clock_ghz * 1e3);
  }
};

/// A checkpoint's flat image, in words, in pages mapped for it alone and
/// handed back to the OS when it goes: a malloc arena would keep the
/// high-water mark of the images its thread freed.
class ImageBuffer {
 public:
  ImageBuffer() = default;
  /// At least `words` words, whole pages; throws std::bad_alloc when out
  /// of memory.
  explicit ImageBuffer(std::size_t words);
  ~ImageBuffer();
  ImageBuffer(ImageBuffer&& other) noexcept;
  ImageBuffer& operator=(ImageBuffer&& other) noexcept;
  ImageBuffer(const ImageBuffer&) = delete;
  ImageBuffer& operator=(const ImageBuffer&) = delete;

  [[nodiscard]] u32* data() { return data_; }
  [[nodiscard]] const u32* data() const { return data_; }
  /// Makes room for `words` words, keeping the buffer when it is large
  /// enough and otherwise replacing it (contents lost) with one at least
  /// twice its size.
  void reserve(std::size_t words);

 private:
  void release();

  u32* data_ = nullptr;
  std::size_t words_ = 0;
};

/// The sum of `counts[g]` over the instruction groups g whose bit is set in
/// `groups` (one count per group).
template <typename Count>
[[nodiscard]] u64 summed_issues(const Count* counts, u32 groups) {
  u64 sum = 0;
  for (int g = 0; g < kInstrGroupCount; ++g) {
    if (((groups >> g) & 1u) != 0) sum += counts[g];
  }
  return sum;
}

/// Where the CTAs resident during a launch live (DESIGN.md §4.14): per SM,
/// `occupancy` CTA slots and the list of those in use, in issue order;
/// per slot, its warps' headers, their register rows (one contiguous
/// [slot][warp][reg][lane] block) and its shared memory (one block); and
/// the engine's per-SM scratch. One per Device, reused by every launch on
/// it: admitting a CTA, retiring one and resuming a launch allocate
/// nothing. The pages are mapped for arenas alone, as ImageBuffer's are,
/// so they never sit in a worker thread's malloc arena. A launch larger
/// than any before it takes larger pages in their place; pages an arena
/// gives up (it grows, or its Device goes) wait, one mapping at most, for
/// the next arena to take, so they are faulted in once, not per Device.
class LaunchArena {
 public:
  LaunchArena() = default;
  ~LaunchArena();
  LaunchArena(const LaunchArena&) = delete;
  LaunchArena& operator=(const LaunchArena&) = delete;

 private:
  friend class Simulator;

  /// At least `warps` warp headers, kept from launch to launch (their SIMT
  /// stacks keep their storage), and `bytes` bytes after them, whatever
  /// they held; throws std::bad_alloc when out of memory.
  void reserve(std::size_t warps, std::size_t bytes);
  void release();

  WarpState* warps_ = nullptr;  ///< the start of the mapping
  std::size_t warp_count_ = 0;
  std::byte* bytes_ = nullptr;  ///< after the headers
  std::size_t byte_count_ = 0;
  std::size_t mapped_ = 0;  ///< bytes mapped in all
};

/// The engine state of an armed launch at a cycle boundary before its
/// strike, less what a resume rebuilds (LaunchOptions::live_rows,
/// LaunchOptions::memory_base): resident CTAs (warps with their live
/// register rows, and shared memory), the grid cursor, counters and the
/// timing-model cycle, the issue count of every instruction group, and the
/// memory pages that differ from launch start. Resuming from it reproduces
/// the launch from that boundary on bit for bit (DESIGN.md §4.14). The CTAs
/// and the page bytes are one flat image in one buffer that a capture
/// reuses: each CTA as the arena holds it, less what the launch's shape
/// and the CTA's slot give (its warps' ids and register counts, the shared
/// memory size) and less the rows a resume zero-fills.
struct LaunchCheckpoint {
  Dim3 grid;
  Dim3 block;
  u32 num_regs = 0;      ///< the program's, which shape the image
  u32 shared_bytes = 0;
  std::vector<u32> pool_sizes;  ///< resident CTAs per SM
  u64 resident_count = 0;
  u64 next_cta = 0;
  u64 dyn_warp = 0;
  u64 dyn_thread = 0;
  u64 cycle = 0;
  std::array<u64, kInstrGroupCount> group_issues{};  ///< issues per group
  GlobalMemory::Snapshot memory;  ///< all but the bytes, which are in image
  /// Indices of the kPageBytes memory pages in the image, ascending.
  std::vector<u32> pages;
  ImageBuffer image;  ///< every pool's CTAs in order, then those pages
  std::size_t image_words = 0;  ///< words of `image` the capture wrote

  static constexpr std::size_t kPageBytes = 4096;

  /// Issues so far of the groups whose bit is set in `groups`: the armed
  /// strike counter at this boundary.
  [[nodiscard]] u64 issues(u32 groups) const {
    return summed_issues(group_issues.data(), groups);
  }
};

/// What an armed launch that stops at reconvergence takes from its golden
/// run (LaunchOptions::golden_tail), recorded by the hook-free golden
/// launch itself (LaunchOptions::record_tail): its counts, the words it
/// writes whole exactly once and never reads or partially writes after
/// that write (write-once), its final memory as the kPageBytes pages it
/// wrote, each whole, and the warp that writes each word of those pages.
struct GoldenTail {
  static constexpr std::size_t kPageBytes = LaunchCheckpoint::kPageBytes;
  static constexpr std::size_t kPageWords = kPageBytes / 4;
  /// Writer ids other than a warp's: no warp writes the word, or several do.
  static constexpr u32 kNoWriter = ~u32{0};
  static constexpr u32 kManyWriters = ~u32{0} - 1;
  static constexpr u32 kNoPage = ~u32{0};

  u64 dyn_warp = 0;
  u64 dyn_thread = 0;
  u64 cycles = 0;
  /// Bit w set when the word at GlobalMemory::kBaseAddress + 4w is
  /// write-once.
  std::vector<u64> write_once;
  std::vector<u32> pages;  ///< indices of the pages written, ascending
  /// Their final bytes, one page after the other (the last page of device
  /// memory may be short).
  std::vector<u8> bytes;
  /// Per page of device memory, its place in `pages`, kNoPage when the
  /// golden run does not write it.
  std::vector<u32> page_slots;
  /// kPageWords per page of `pages`: the writer of each word, as writer()
  /// returns it.
  std::vector<u32> writers;

  /// The one warp that writes the word holding `addr` (any store, whole or
  /// partial, or atomic): its CTA's linear id times the warps per CTA plus
  /// its warp in the CTA. kNoWriter when no warp writes it, kManyWriters
  /// when more than one does.
  [[nodiscard]] u32 writer(u64 addr) const {
    if (addr < GlobalMemory::kBaseAddress) return kNoWriter;
    const u64 at = addr - GlobalMemory::kBaseAddress;
    const u64 page = at / kPageBytes;
    if (page >= page_slots.size() || page_slots[page] == kNoPage) {
      return kNoWriter;
    }
    return writers[page_slots[page] * kPageWords + at % kPageBytes / 4];
  }

  [[nodiscard]] bool is_write_once(u64 addr) const {
    const u64 word = (addr - GlobalMemory::kBaseAddress) / 4;
    return addr >= GlobalMemory::kBaseAddress &&
           word / 64 < write_once.size() &&
           ((write_once[word / 64] >> (word % 64)) & 1u) != 0;
  }
};

/// Per-group issue counts of a fault-free launch on a grid of marks `step`
/// warp instructions apart. Row i holds Profile::warp_instrs_by_group at
/// the first cycle boundary whose dynamic warp-instruction count reaches
/// mark_at(i); an armed launch captured there (LaunchOptions::capture_at)
/// holds the same counts in LaunchCheckpoint::group_issues. Marks the
/// launch passes in its last cycle have no row. The counts are u32: a
/// launch stops at its watchdog, 256M warp instructions by default.
struct IssueGrid {
  u64 step = 0;
  std::vector<u32> counts;  ///< marks() rows of kInstrGroupCount counts

  [[nodiscard]] std::size_t marks() const {
    return counts.size() / kInstrGroupCount;
  }
  [[nodiscard]] u64 mark_at(std::size_t mark) const {
    return (static_cast<u64>(mark) + 1) * step;
  }
  /// Issues at mark `mark` of the groups whose bit is set in `groups`.
  [[nodiscard]] u64 issues(std::size_t mark, u32 groups) const {
    return summed_issues(counts.data() + mark * kInstrGroupCount, groups);
  }
  /// How many marks lie before `strike` fires (their summed count for
  /// strike.groups at most strike.occurrence): a strike of bucket b > 0
  /// may resume from mark b - 1 and from any earlier one.
  [[nodiscard]] std::size_t bucket(const StrikeRequest& strike) const;
};

class Simulator {
 public:
  Simulator(const MachineConfig& config, GlobalMemory& memory,
            LaunchArena& arena)
      : config_(config), memory_(memory), arena_(arena) {}

  /// Runs `program` over `grid` x `block` threads. `params` are the 64-bit
  /// kernel parameters readable via LDC. Returns launch statistics; traps
  /// are reported in the result, launch-setup errors in the Status.
  Result<LaunchResult> launch(const Program& program, Dim3 grid, Dim3 block,
                              std::span<const u64> params,
                              const LaunchOptions& options = {});

  /// The resident warps of `checkpoint` as a resume loads them into
  /// `arena`, SM by SM and CTA by CTA: rows the image left out read as
  /// zero. Their rows stay in `arena` until its next use.
  static std::vector<WarpState> checkpoint_warps(
      const LaunchCheckpoint& checkpoint, LaunchArena& arena);

 private:
  struct Cta;
  struct Slots;
  struct Engine;

  /// `arena` reserved for `warps` headers and `bytes` bytes
  /// (LaunchArena::reserve): where the headers and the bytes start.
  static std::pair<WarpState*, std::byte*> reserve(LaunchArena& arena,
                                                   std::size_t warps,
                                                   std::size_t bytes);

  const MachineConfig& config_;
  GlobalMemory& memory_;
  LaunchArena& arena_;
};

}  // namespace gfi::sim
