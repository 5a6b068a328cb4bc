#include "sassim/simulator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <tuple>
#include <utility>

#include <sys/mman.h>

#include "common/bitutil.h"
#include "sassim/decoded.h"
#include "sassim/exec_threaded.h"
#include "sassim/profiler.h"

namespace gfi::sim {
namespace {

constexpr u64 kDefaultWatchdog = 256ULL << 20;  // 256M warp instructions
/// Alignment of each part of a LaunchArena: a cache line.
constexpr std::size_t kArenaAlign = 64;
using exec::kFullMask;

using TimePoint = std::chrono::steady_clock::time_point;

u64 ns_between(TimePoint from, TimePoint to) {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

u64 elapsed_ns(TimePoint started) {
  return ns_between(started, std::chrono::steady_clock::now());
}

/// Integer compare dispatch for ISETP (and address compares).
bool int_compare(CmpOp cmp, u64 a, u64 b, DType dtype) {
  if (dtype == DType::kS32) {
    const i32 sa = static_cast<i32>(static_cast<u32>(a));
    const i32 sb = static_cast<i32>(static_cast<u32>(b));
    switch (cmp) {
      case CmpOp::kLt: return sa < sb;
      case CmpOp::kLe: return sa <= sb;
      case CmpOp::kGt: return sa > sb;
      case CmpOp::kGe: return sa >= sb;
      case CmpOp::kEq: return sa == sb;
      case CmpOp::kNe: return sa != sb;
    }
  }
  if (dtype == DType::kU32) {
    a = static_cast<u32>(a);
    b = static_cast<u32>(b);
  }
  switch (cmp) {
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
  }
  return false;
}

template <typename F>
bool fp_compare(CmpOp cmp, F a, F b) {
  switch (cmp) {
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
  }
  return false;
}

f32 mufu_eval(MufuKind kind, f32 x) {
  switch (kind) {
    case MufuKind::kRcp: return 1.0f / x;
    case MufuKind::kSqrt: return std::sqrt(x);
    case MufuKind::kRsq: return 1.0f / std::sqrt(x);
    case MufuKind::kExp2: return std::exp2(x);
    case MufuKind::kLog2: return std::log2(x);
    case MufuKind::kSin: return std::sin(x);
    case MufuKind::kCos: return std::cos(x);
  }
  return x;
}

// ---------------------------------------------------------------------------
// Instrumentation policies
// ---------------------------------------------------------------------------
//
// The scheduler loop is templated over one of these tags. The Instrumented
// instantiation reproduces the historical inner loop bit-for-bit:
// InstrContext built per dynamic instruction, guard mask computed before
// *and* after the on_before hook (predicate injection must take effect),
// store addresses routed through transform_store_address. The Threaded
// instantiation strips every one of those and dispatches on the predecoded
// handler ids (exec_threaded.h), falling back to the generic dispatcher for
// shapes no handler covers — same scheduler, same accounting, bit-identical
// observables. The Armed instantiation is the threaded tier with a strike
// pending: it counts the issues a StrikeRequest names and runs the
// requested one through the Instrumented exec_instr (see
// Engine::exec_armed). A golden twin of the struck warp, when the launch
// may stop at reconvergence, runs only inside that slot: at the strike and
// ahead of every other warp right after it (Engine::run_ahead). Past the
// struck slot the launch is stopped or runs plain threaded.

struct InstrumentedPolicy {
  static constexpr bool kInstrumented = true;
  static constexpr bool kArmed = false;
};
struct ThreadedPolicy {
  static constexpr bool kInstrumented = false;
  static constexpr bool kArmed = false;
};
struct ArmedThreadedPolicy {
  static constexpr bool kInstrumented = false;
  static constexpr bool kArmed = true;
};

/// How one engine run over the launch state ended.
enum class RunExit : u8 {
  kCompleted,    ///< every CTA retired
  kTrapped,      ///< Engine::trap fired
  kDowngraded,   ///< strike made (armed): continue threaded
  kReconverged,  ///< the struck warp rejoined its golden twin: stop
};

constexpr std::size_t kPageBytes = LaunchCheckpoint::kPageBytes;

/// At most this many words a struck warp may store differently from its
/// twin before the twin gives up.
constexpr u32 kMaxDiffWords = 256;

/// At most this many words the struck warp's copy may store while it runs
/// ahead (Engine::run_ahead).
constexpr u32 kMaxUndoWords = 1024;

/// A word the struck warp stored differently from its twin, and the value
/// it stored; in the undo log of a run ahead, a word it stored to and the
/// value the word held before.
struct DiffWord {
  u64 addr = 0;
  u32 value = 0;
};

/// What a hook-free launch records for its GoldenTail as it runs
/// (LaunchOptions::record_tail): per word of device memory whether a warp
/// wrote it, whether that spoils it for write-once (written twice,
/// written in part or by an atomic, or read after its write) and which
/// warp wrote it (GoldenTail::writer), and per page whether it was
/// written. Only a load of a word already written can spoil it: a load
/// outside the span of bytes written so far costs one test, a row load of
/// 32 consecutive words a few more.
class TailRecorder {
 public:
  explicit TailRecorder(std::size_t bytes)
      : bytes_(bytes),
        written_((bytes / 4 + 63) / 64),
        spoiled_(written_.size()),
        writers_(bytes / 4, GoldenTail::kNoWriter),
        page_written_((bytes + kPageBytes - 1) / kPageBytes) {}

  void load(u64 addr, u32 width) {
    if (addr + width <= written_lo_ || addr > written_hi_ ||
        !in_range(addr, width)) {
      return;
    }
    const u64 at = addr - GlobalMemory::kBaseAddress;
    if (page_written_[at / kPageBytes] == 0) return;
    for (u64 word = at / 4; word <= (at + width - 1) / 4; ++word) {
      if (test(written_, word)) set(spoiled_, word);
    }
  }

  /// A store of `width` bytes by warp `writer`; `whole` when it writes
  /// whole words.
  void store(u64 addr, u32 width, bool whole, u32 writer) {
    if (!in_range(addr, width)) return;
    const u64 at = addr - GlobalMemory::kBaseAddress;
    page_written_[at / kPageBytes] = 1;
    note_written(addr, addr + width - 1);
    for (u64 word = at / 4; word <= (at + width - 1) / 4; ++word) {
      if (!whole || test(written_, word)) set(spoiled_, word);
      set(written_, word);
      note_writer(word, writer);
    }
  }

  [[nodiscard]] bool any_written() const {
    return written_lo_ <= written_hi_;
  }

  /// A 4-byte load of lanes `exec` at `addrs` (every lane's, in or out of
  /// `exec`). Tested first, branch-free, against the span of bytes written
  /// so far: most loads read nothing written.
  void load_row(const u64 (&addrs)[kWarpSize], u32 exec) {
    if (!any_written()) return;
    const u64 span = written_hi_ - written_lo_;
    u32 hit = 0;
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      hit |= static_cast<u32>(addrs[lane] - written_lo_ <= span) << lane;
    }
    if ((hit & exec) == 0) return;
    if (exec == ~0u && consecutive(addrs)) {
      spoil_written((addrs[0] - GlobalMemory::kBaseAddress) / 4);
      return;
    }
    for (u32 rest = exec; rest != 0; rest &= rest - 1) {
      load(addrs[std::countr_zero(rest)], 4);
    }
  }

  /// A 4-byte store of lanes `exec` at `addrs` by warp `writer`, in lane
  /// order.
  void store_row(const u64 (&addrs)[kWarpSize], u32 exec, u32 writer) {
    if (exec == ~0u && consecutive(addrs)) {
      const u64 word = (addrs[0] - GlobalMemory::kBaseAddress) / 4;
      note_written(addrs[0], addrs[0] + 4 * kWarpSize - 1);
      spoil_written(word);
      set_written(word);
      for (u32 lane = 0; lane < kWarpSize; ++lane) {
        note_writer(word + lane, writer);
      }
      page_written_[word / (kPageBytes / 4)] = 1;
      page_written_[(word + kWarpSize - 1) / (kPageBytes / 4)] = 1;
      return;
    }
    for (u32 rest = exec; rest != 0; rest &= rest - 1) {
      store(addrs[std::countr_zero(rest)], 4, true, writer);
    }
  }

  /// Fills `tail` from what was recorded and the final `memory`.
  void finish(GoldenTail& tail, std::span<const u8> memory) const {
    tail.write_once.resize(written_.size());
    for (std::size_t i = 0; i < written_.size(); ++i) {
      tail.write_once[i] = written_[i] & ~spoiled_[i];
    }
    tail.pages.clear();
    tail.page_slots.assign(page_written_.size(), GoldenTail::kNoPage);
    std::size_t bytes = 0;
    for (std::size_t page = 0; page < page_written_.size(); ++page) {
      if (page_written_[page] == 0) continue;
      tail.page_slots[page] = static_cast<u32>(tail.pages.size());
      tail.pages.push_back(static_cast<u32>(page));
      bytes += std::min(kPageBytes, memory.size() - page * kPageBytes);
    }
    tail.bytes.resize(bytes);
    tail.writers.assign(tail.pages.size() * GoldenTail::kPageWords,
                        GoldenTail::kNoWriter);
    u8* out = tail.bytes.data();
    u32* writers = tail.writers.data();
    for (const u32 page : tail.pages) {
      const std::size_t begin = page * kPageBytes;
      const std::size_t length = std::min(kPageBytes, memory.size() - begin);
      std::memcpy(out, &memory[begin], length);
      out += length;
      std::copy_n(writers_.begin() + static_cast<std::ptrdiff_t>(begin / 4),
                  length / 4, writers);
      writers += GoldenTail::kPageWords;
    }
  }

 private:
  /// Whether lane l's address is addrs[0] + 4l for every lane, all of
  /// them in range.
  [[nodiscard]] bool consecutive(const u64 (&addrs)[kWarpSize]) const {
    u64 off = 0;
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      off |= addrs[lane] - (addrs[0] + 4 * lane);
    }
    return off == 0 && in_range(addrs[0], 4 * kWarpSize);
  }
  /// Spoils the written words among the 32 from `word` on.
  void spoil_written(u64 word) {
    const u64 bits = (u64{1} << kWarpSize) - 1;
    const u64 shift = word % 64;
    spoiled_[word / 64] |= written_[word / 64] & (bits << shift);
    if (shift > 64 - kWarpSize) {
      spoiled_[word / 64 + 1] |=
          written_[word / 64 + 1] & (bits >> (64 - shift));
    }
  }
  /// Marks the 32 words from `word` on written.
  void set_written(u64 word) {
    const u64 bits = (u64{1} << kWarpSize) - 1;
    const u64 shift = word % 64;
    written_[word / 64] |= bits << shift;
    if (shift > 64 - kWarpSize) {
      written_[word / 64 + 1] |= bits >> (64 - shift);
    }
  }
  /// Word `word` written by warp `writer`: its writer, or many.
  void note_writer(u64 word, u32 writer) {
    u32& was = writers_[word];
    was = was == GoldenTail::kNoWriter || was == writer
              ? writer
              : GoldenTail::kManyWriters;
  }
  void note_written(u64 lo, u64 hi) {
    written_lo_ = std::min(written_lo_, lo);
    written_hi_ = std::max(written_hi_, hi);
  }
  [[nodiscard]] bool in_range(u64 addr, u32 width) const {
    return addr >= GlobalMemory::kBaseAddress &&
           addr - GlobalMemory::kBaseAddress + width <= bytes_;
  }
  static bool test(const std::vector<u64>& bits, u64 i) {
    return ((bits[i / 64] >> (i % 64)) & 1u) != 0;
  }
  static void set(std::vector<u64>& bits, u64 i) {
    bits[i / 64] |= u64{1} << (i % 64);
  }

  std::size_t bytes_;
  /// The lowest and highest byte written so far: nothing written yet when
  /// lo > hi.
  u64 written_lo_ = ~u64{0};
  u64 written_hi_ = 0;
  std::vector<u64> written_;
  std::vector<u64> spoiled_;
  std::vector<u32> writers_;  ///< per word, as GoldenTail::writers
  std::vector<u8> page_written_;
};

}  // namespace

// ---------------------------------------------------------------------------
// CTA state
// ---------------------------------------------------------------------------

/// A resident CTA: its slot's warp headers and shared memory in the
/// launch's LaunchArena.
struct Simulator::Cta {
  u32 linear_id = 0;
  Dim3 ctaid;
  std::span<WarpState> warps;
  std::span<u8> shared;

  [[nodiscard]] bool finished() const {
    for (const auto& warp : warps) {
      if (!warp.done()) return false;
    }
    return true;
  }
};

/// A launch's resident CTAs, laid out in its LaunchArena. SM s owns slots
/// s * occupancy to (s + 1) * occupancy - 1: `order` lists those in use in
/// issue order (admission appends, retirement erases), `free` the others,
/// as a stack whose top is the next slot to admit into. Only the SMs the
/// grid reaches get slots (admission fills SM by SM, and an SM is
/// backfilled only from its own retirements).
struct Simulator::Slots {
  Dim3 grid;
  u32 occupancy = 0;
  u32 warps_per_cta = 0;
  u32 threads_per_cta = 0;
  u32 num_regs = 0;
  u32 shared_bytes = 0;
  std::size_t mask_words = 0;

  Cta* ctas = nullptr;         ///< [slot]
  WarpState* warps = nullptr;  ///< [slot][warp]
  u32* rows = nullptr;         ///< [slot][warp][reg][lane]
  u8* shared = nullptr;        ///< [slot][byte]
  u32* order = nullptr;        ///< [sm][occupancy]: slots in use, in order
  u32* free = nullptr;         ///< [sm][occupancy]: a stack of the others
  u32* in_use = nullptr;       ///< [sm]: length of the order list
  u64* sm_next = nullptr;      ///< [sm]: Engine::run scratch
  u32* busy = nullptr;         ///< [sm]: Engine::run scratch
  u32* masks = nullptr;        ///< [slot][warp][word]: capture scratch
  // An armed launch's golden twin of its struck warp (Engine::start_twin):
  // its header, after the slots' warps, and its rows ([reg][lane]); the
  // row masks of the rows that differ from the struck warp's and of the
  // rows live where it resumes; and the words the struck warp stored
  // differently (kMaxDiffWords). For a run ahead (Engine::run_ahead), one
  // more header after the twin's, for the copy of the struck warp, its
  // rows (a block like the twin's), and the undo log of the copy's stores
  // (kMaxUndoWords).
  WarpState* twin = nullptr;
  u32* twin_rows = nullptr;
  u32* differs = nullptr;
  u32* live = nullptr;
  DiffWord* diff_words = nullptr;
  WarpState* ahead = nullptr;
  u32* ahead_rows = nullptr;
  DiffWord* undo = nullptr;

  /// Lays the slots of `sms` SMs, of which the first `used` admit CTAs,
  /// out in `arena`, every slot free.
  void lay_out(LaunchArena& arena, u32 sms, u32 used, Dim3 grid_in,
               Dim3 block, u32 occupancy_in, u32 num_regs_in,
               u32 shared_bytes_in) {
    grid = grid_in;
    occupancy = occupancy_in;
    threads_per_cta = static_cast<u32>(block.count());
    warps_per_cta = (threads_per_cta + kWarpSize - 1) / kWarpSize;
    num_regs = num_regs_in;
    shared_bytes = shared_bytes_in;
    mask_words = row_mask_words(num_regs);
    const std::size_t slots = static_cast<std::size_t>(used) * occupancy;
    const std::size_t slot_warps = slots * warps_per_cta;

    std::size_t bytes = 0;
    auto carve = [&bytes](std::size_t size) {
      const std::size_t at = bytes;
      bytes += (size + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
      return at;
    };
    const std::size_t at_ctas = carve(slots * sizeof(Cta));
    const std::size_t at_order = carve(slots * sizeof(u32));
    const std::size_t at_free = carve(slots * sizeof(u32));
    const std::size_t at_in_use = carve(sms * sizeof(u32));
    const std::size_t at_sm_next = carve(sms * sizeof(u64));
    const std::size_t at_busy = carve(sms * sizeof(u32));
    const std::size_t at_masks = carve(slot_warps * mask_words * sizeof(u32));
    const std::size_t at_rows =
        carve(slot_warps * num_regs * kWarpSize * sizeof(u32));
    const std::size_t at_shared = carve(slots * shared_bytes);
    const std::size_t warp_rows =
        static_cast<std::size_t>(num_regs) * kWarpSize;
    const std::size_t at_twin_rows = carve(warp_rows * sizeof(u32));
    const std::size_t at_differs = carve(2 * mask_words * sizeof(u32));
    const std::size_t at_diff_words = carve(kMaxDiffWords * sizeof(DiffWord));
    const std::size_t at_ahead_rows = carve(warp_rows * sizeof(u32));
    const std::size_t at_undo = carve(kMaxUndoWords * sizeof(DiffWord));
    std::byte* base = nullptr;
    std::tie(warps, base) = Simulator::reserve(arena, slot_warps + 2, bytes);
    ctas = reinterpret_cast<Cta*>(base + at_ctas);
    order = reinterpret_cast<u32*>(base + at_order);
    free = reinterpret_cast<u32*>(base + at_free);
    in_use = reinterpret_cast<u32*>(base + at_in_use);
    sm_next = reinterpret_cast<u64*>(base + at_sm_next);
    busy = reinterpret_cast<u32*>(base + at_busy);
    masks = reinterpret_cast<u32*>(base + at_masks);
    rows = reinterpret_cast<u32*>(base + at_rows);
    shared = reinterpret_cast<u8*>(base + at_shared);
    twin = warps + slot_warps;
    twin_rows = reinterpret_cast<u32*>(base + at_twin_rows);
    differs = reinterpret_cast<u32*>(base + at_differs);
    live = differs + mask_words;
    diff_words = reinterpret_cast<DiffWord*>(base + at_diff_words);
    ahead = twin + 1;
    ahead_rows = reinterpret_cast<u32*>(base + at_ahead_rows);
    undo = reinterpret_cast<DiffWord*>(base + at_undo);

    std::fill(in_use, in_use + sms, 0u);
    for (u32 sm = 0; sm < used; ++sm) {
      for (u32 k = 0; k < occupancy; ++k) {
        free[sm * occupancy + k] = sm * occupancy + (occupancy - 1 - k);
      }
    }
  }

  [[nodiscard]] u32* rows_of(u32 slot) const {
    return rows + static_cast<std::size_t>(slot) * warps_per_cta * num_regs *
                      kWarpSize;
  }

  /// Takes a free slot of `sm` for CTA `linear`, appends it to the order
  /// list and resets its warps' headers; their rows and the shared memory
  /// are left as they are.
  Cta& take(u32 sm, u32 linear) {
    const u32 used = in_use[sm];
    const u32 slot = free[sm * occupancy + (occupancy - used - 1)];
    order[sm * occupancy + used] = slot;
    in_use[sm] = used + 1;

    Cta& cta = *new (&ctas[slot]) Cta;
    cta.linear_id = linear;
    cta.ctaid =
        Dim3(linear % grid.x, (linear / grid.x) % grid.y,
             static_cast<u32>(linear / (static_cast<u64>(grid.x) * grid.y)));
    cta.warps = std::span<WarpState>(
        warps + static_cast<std::size_t>(slot) * warps_per_cta,
        warps_per_cta);
    cta.shared = std::span<u8>(
        shared + static_cast<std::size_t>(slot) * shared_bytes, shared_bytes);
    u32* warp_rows = rows_of(slot);
    u32 remaining = threads_per_cta;
    for (u32 w = 0; w < warps_per_cta; ++w) {
      const u32 lanes = std::min(remaining, kWarpSize);
      const u32 mask = lanes == kWarpSize ? kFullMask : ((1u << lanes) - 1u);
      cta.warps[w].reset(w, num_regs, mask, warp_rows);
      warp_rows += static_cast<std::size_t>(num_regs) * kWarpSize;
      remaining -= lanes;
    }
    return cta;
  }

  /// Admits CTA `linear` into `sm`: a fresh CTA with zeroed registers and
  /// shared memory.
  void admit(u32 sm, u64 linear) {
    const Cta& cta = take(sm, static_cast<u32>(linear));
    std::fill(cta.shared.begin(), cta.shared.end(), u8{0});
    const auto slot = static_cast<u32>(&cta - ctas);
    std::fill(rows_of(slot), rows_of(slot + 1), 0u);
  }

  /// Erases the finished CTAs from `sm`'s order list, keeping the order of
  /// the rest, and frees their slots; returns how many there were.
  u32 retire_finished(u32 sm) {
    u32* list = order + static_cast<std::size_t>(sm) * occupancy;
    const u32 used = in_use[sm];
    u32* freed = free + static_cast<std::size_t>(sm) * occupancy +
                 (occupancy - used);
    u32 kept = 0;
    for (u32 i = 0; i < used; ++i) {
      if (ctas[list[i]].finished()) {
        *freed++ = list[i];
      } else {
        list[kept++] = list[i];
      }
    }
    in_use[sm] = kept;
    return used - kept;
  }

  [[nodiscard]] std::span<const u32> pool(u32 sm) const {
    return {order + static_cast<std::size_t>(sm) * occupancy, in_use[sm]};
  }

  // Flat image (LaunchCheckpoint storage), per CTA: its linear id, its
  // shared memory, then its warps (WarpState::save_image).
  static std::size_t words_for(std::size_t bytes) {
    return (bytes + sizeof(u32) - 1) / sizeof(u32);
  }
  /// `rows` holds each warp's register-row mask in turn (save too).
  [[nodiscard]] std::size_t image_words(const Cta& cta,
                                        const u32* rows) const {
    std::size_t words = 1 + words_for(shared_bytes);
    for (const auto& warp : cta.warps) {
      words += warp.image_words(rows);
      rows += mask_words;
    }
    return words;
  }
  u32* save(const Cta& cta, u32* out, const u32* rows) const {
    *out++ = cta.linear_id;
    if (shared_bytes > 0) std::memcpy(out, cta.shared.data(), shared_bytes);
    out += words_for(shared_bytes);
    for (const auto& warp : cta.warps) {
      out = warp.save_image(out, rows);
      rows += mask_words;
    }
    return out;
  }
  /// Loads the CTA save() wrote at `in` into a free slot of `sm`, advancing
  /// `in` past it.
  Cta& load(u32 sm, const u32*& in) {
    Cta& cta = take(sm, in[0]);
    if (shared_bytes > 0) std::memcpy(cta.shared.data(), in + 1, shared_bytes);
    in += 1 + words_for(shared_bytes);
    for (WarpState& warp : cta.warps) warp.load_image(in);
    return cta;
  }
};

// ---------------------------------------------------------------------------
// Launch engine
// ---------------------------------------------------------------------------

// All mutable launch progress lives here — resident CTA pools, grid cursor,
// cycle and instruction counters — so an armed run can stop mid-launch
// (RunExit::kDowngraded), and a threaded run resumes from the identical
// architectural state.
struct Simulator::Engine {
  const MachineConfig& cfg;
  GlobalMemory& mem;
  const Program& prog;
  const DecodedProgram& dec;
  Dim3 grid;
  Dim3 block;
  std::span<const u64> params;
  const LaunchOptions& opts;

  u64 watchdog = kDefaultWatchdog;

  Slots slots;
  u64 resident_count = 0;
  u64 total_ctas = 0;
  u64 next_cta = 0;

  u64 dyn_warp = 0;
  u64 dyn_thread = 0;
  u64 generic_warp = 0;  ///< threaded slots handed to dispatch()
  u64 cycle = 0;
  Trap trap;

  // Armed runs only: the pending strike, eligible issues counted so far,
  // whether the struck slot has run, and the issues of every group (the
  // strike counter of any other request, kept for checkpoints).
  StrikeRequest strike;
  u64 strike_seen = 0;
  bool struck = false;
  std::array<u64, kInstrGroupCount> group_issues{};

  // Marks still to reach: the next issue-grid row (profiled launches) and
  // the capture (armed launches, until the strike), and the lower of their
  // dynamic-instruction thresholds (u64 max once none is left).
  IssueGrid* grid_rows = nullptr;
  LaunchCheckpoint* capture = nullptr;
  bool captured = false;
  u64 next_mark_at = std::numeric_limits<u64>::max();
  u64 resume_ns = 0;
  u64 capture_ns = 0;

  // Hook-free launches with opts.record_tail: what their GoldenTail needs.
  TailRecorder* recorder = nullptr;

  // Armed launches with opts.golden_tail (DESIGN.md §4.14): how many
  // words the struck warp stored differently from its golden twin
  // (slots.twin) in slots.diff_words; how many more lanes it executed than
  // the twin; whether and where the launch stopped; why the twin gave up
  // or its run ahead could not go on; and how many words the undo log of
  // the run ahead holds (slots.undo).
  u32 diff_count = 0;
  i64 thread_delta = 0;
  bool reconverged = false;
  u64 reconverged_at = 0;
  TwinGiveUp gave_up = TwinGiveUp::kNone;
  u32 undo_count = 0;

  // Armed launches: when the struck slot ran (LaunchResult::prefix_ns).
  TimePoint struck_at;

  Engine(const MachineConfig& cfg_in, GlobalMemory& mem_in,
         const Program& prog_in, Dim3 grid_in, Dim3 block_in,
         std::span<const u64> params_in, const LaunchOptions& opts_in)
      : cfg(cfg_in),
        mem(mem_in),
        prog(prog_in),
        dec(prog_in.decoded()),
        grid(grid_in),
        block(block_in),
        params(params_in),
        opts(opts_in) {}

  // ---- CTA lifecycle ------------------------------------------------------

  void admit(u32 sm) {
    while (slots.in_use[sm] < slots.occupancy && next_cta < total_ctas) {
      slots.admit(sm, next_cta++);
      ++resident_count;
    }
  }

  // ---- fast-forward -------------------------------------------------------

  /// Writes into `mask` the register rows `warp` keeps in a checkpoint:
  /// none when it is done, else those live at its pc or at the pc of any
  /// SIMT-stack entry (where its other lanes resume), every row without a
  /// live-row table or at a pc the table does not cover.
  void kept_rows(const WarpState& warp, u32* mask) const {
    const std::size_t words = row_mask_words(prog.num_regs());
    std::fill(mask, mask + words, 0u);
    if (warp.done()) return;
    const LiveRows* live = opts.live_rows;
    auto add = [&](u32 pc) {
      if (live && pc < live->pcs()) {
        const u32* rows = live->at(pc);
        for (std::size_t w = 0; w < words; ++w) mask[w] |= rows[w];
        return;
      }
      for (u32 r = 0; r < prog.num_regs(); ++r) mask[r / 32] |= 1u << (r % 32);
    };
    add(warp.pc);
    for (const StackEntry& entry : warp.stack()) add(entry.pc);
  }

  /// Writes the launch state into `cp`, reusing its image buffer: each
  /// warp's kept rows, and the memory pages that differ from
  /// opts.memory_base (every page without one).
  void checkpoint(LaunchCheckpoint& cp) const {
    cp.grid = grid;
    cp.block = block;
    const std::span<const u8> memory = mem.bytes();
    const u8* base = opts.memory_base &&
                             opts.memory_base->data.size() == memory.size()
                         ? opts.memory_base->data.data()
                         : nullptr;
    constexpr std::size_t kPage = LaunchCheckpoint::kPageBytes;
    cp.pages.clear();
    std::size_t page_bytes = 0;
    for (std::size_t begin = 0; begin < memory.size(); begin += kPage) {
      const std::size_t length = std::min(kPage, memory.size() - begin);
      if (base && std::memcmp(&memory[begin], base + begin, length) == 0) {
        continue;
      }
      cp.pages.push_back(static_cast<u32>(begin / kPage));
      page_bytes += length;
    }

    const std::size_t mask_words = slots.mask_words;
    u32* masks = slots.masks;
    std::size_t words = Slots::words_for(page_bytes);
    cp.num_regs = prog.num_regs();
    cp.shared_bytes = prog.shared_bytes();
    cp.pool_sizes.clear();
    for (u32 sm = 0; sm < cfg.num_sms; ++sm) {
      cp.pool_sizes.push_back(slots.in_use[sm]);
      for (const u32 slot : slots.pool(sm)) {
        const Cta& cta = slots.ctas[slot];
        for (std::size_t w = 0; w < cta.warps.size(); ++w) {
          kept_rows(cta.warps[w], masks + w * mask_words);
        }
        words += slots.image_words(cta, masks);
        masks += cta.warps.size() * mask_words;
      }
    }
    cp.image.reserve(words);
    cp.image_words = words;
    u32* out = cp.image.data();
    const u32* rows = slots.masks;
    for (u32 sm = 0; sm < cfg.num_sms; ++sm) {
      for (const u32 slot : slots.pool(sm)) {
        const Cta& cta = slots.ctas[slot];
        out = slots.save(cta, out, rows);
        rows += cta.warps.size() * mask_words;
      }
    }
    u8* bytes = reinterpret_cast<u8*>(out);
    for (const u32 page : cp.pages) {
      const std::size_t begin = page * kPage;
      const std::size_t length = std::min(kPage, memory.size() - begin);
      std::memcpy(bytes, &memory[begin], length);
      bytes += length;
    }
    cp.resident_count = resident_count;
    cp.next_cta = next_cta;
    cp.dyn_warp = dyn_warp;
    cp.dyn_thread = dyn_thread;
    cp.cycle = cycle;
    cp.group_issues = group_issues;
    cp.memory = mem.snapshot_without_bytes();
  }

  void restore(const LaunchCheckpoint& cp) {
    const u32* in = cp.image.data();
    for (u32 sm = 0; sm < cfg.num_sms; ++sm) {
      for (u32 i = 0; i < cp.pool_sizes[sm]; ++i) slots.load(sm, in);
    }
    resident_count = cp.resident_count;
    next_cta = cp.next_cta;
    dyn_warp = cp.dyn_warp;
    dyn_thread = cp.dyn_thread;
    cycle = cp.cycle;
    group_issues = cp.group_issues;
    const std::span<const u8> base =
        opts.memory_base ? std::span<const u8>(opts.memory_base->data)
                         : std::span<const u8>();
    mem.restore(cp.memory, base, cp.pages, LaunchCheckpoint::kPageBytes,
                reinterpret_cast<const u8*>(in));
  }

  /// Sets next_mark_at to the lowest threshold still pending.
  void seek_mark() {
    next_mark_at = std::numeric_limits<u64>::max();
    if (grid_rows) {
      next_mark_at = grid_rows->mark_at(grid_rows->marks());
    }
    if (capture && !captured) {
      next_mark_at = std::min(next_mark_at, opts.capture_at);
    }
  }

  /// At the first boundary at or past one or more marks: every grid row
  /// they pass gets this boundary's profile counts, and the capture (if
  /// due) this boundary's state. Out of line: it runs at most once per 64
  /// warp instructions, and inlined with the capture into every run<>
  /// loop it slowed histogram's campaign cells by about 3.5%.
  [[gnu::noinline]] void reach_mark() {
    if (grid_rows) {
      const auto& by_group = opts.profile->warp_instrs_by_group;
      while (grid_rows->mark_at(grid_rows->marks()) <= dyn_warp) {
        for (const u64 count : by_group) {
          grid_rows->counts.push_back(static_cast<u32>(count));
        }
      }
    }
    if (capture && !captured && opts.capture_at <= dyn_warp) {
      const auto started = std::chrono::steady_clock::now();
      checkpoint(*capture);
      capture_ns = elapsed_ns(started);
      captured = true;
    }
    seek_mark();
  }

  // ---- operand access -----------------------------------------------------

  // Hot enough that the out-of-line call overhead is measurable on the
  // generic path; force both into their (many) call sites.
  [[gnu::always_inline]] u64 read_operand(const WarpState& warp, u32 lane,
                                          const DecodedOperand& operand,
                                          DType dtype) const {
    switch (operand.kind) {
      case OperandKind::kImm:
        return operand.imm;
      case OperandKind::kReg:
        return (dtype == DType::kU64 || dtype == DType::kF64)
                   ? warp.reg64(lane, operand.index)
                   : warp.reg(lane, operand.index);
      case OperandKind::kPred:
        return warp.pred(lane, static_cast<u8>(operand.index)) !=
               operand.negated;
      case OperandKind::kNone:
        return 0;
    }
    return 0;
  }

  [[gnu::always_inline]] static void write_dst(WarpState& warp, u32 lane,
                                               const DecodedInstr& instr,
                                               u64 value) {
    if (instr.wide) {
      warp.set_reg64(lane, instr.dst_index, value);
    } else {
      warp.set_reg(lane, instr.dst_index, lo32(value));
    }
  }

  // ---- special registers --------------------------------------------------

  u32 special_value(const Cta& cta, const WarpState& warp, u32 lane,
                    SpecialReg sr) const {
    const u32 lin = warp.warp_in_cta() * kWarpSize + lane;
    switch (sr) {
      case SpecialReg::kTidX: return lin % block.x;
      case SpecialReg::kTidY: return (lin / block.x) % block.y;
      case SpecialReg::kTidZ: return lin / (block.x * block.y);
      case SpecialReg::kCtaidX: return cta.ctaid.x;
      case SpecialReg::kCtaidY: return cta.ctaid.y;
      case SpecialReg::kCtaidZ: return cta.ctaid.z;
      case SpecialReg::kNtidX: return block.x;
      case SpecialReg::kNtidY: return block.y;
      case SpecialReg::kNtidZ: return block.z;
      case SpecialReg::kNctaidX: return grid.x;
      case SpecialReg::kNctaidY: return grid.y;
      case SpecialReg::kNctaidZ: return grid.z;
      case SpecialReg::kLaneId: return lane;
      case SpecialReg::kWarpId: return warp.warp_in_cta();
    }
    return 0;
  }

  // ---- trap helper --------------------------------------------------------

  TrapKind fire(TrapKind kind, const Cta& cta, const WarpState& warp,
                u64 address = 0) {
    trap.kind = kind;
    trap.address = address;
    trap.pc = warp.pc;
    trap.cta = cta.linear_id;
    trap.warp = warp.warp_in_cta();
    return kind;
  }

  // ---- native profile collection ------------------------------------------

  /// Counts one dynamic warp instruction into opts.profile, reproducing
  /// ProfilerHook's accumulation (which sees the first guard mask).
  void count_profile(const DecodedInstr& instr, u32 exec) const {
    Profile& p = *opts.profile;
    ++p.warp_instrs_by_opcode[static_cast<int>(instr.op)];
    ++p.warp_instrs_by_group[static_cast<int>(instr.group)];
    const u64 lanes = static_cast<u64>(std::popcount(exec));
    p.thread_instrs_by_group[static_cast<int>(instr.group)] += lanes;
    ++p.total_warp_instrs;
    p.total_thread_instrs += lanes;
  }

  // ---- one dynamic warp instruction ---------------------------------------

  template <typename Policy>
  TrapKind exec_instr(Cta& cta, WarpState& warp, const DecodedInstr& instr) {
    if constexpr (Policy::kInstrumented) {
      InstrContext ctx;
      ctx.instr = &prog.at(warp.pc);
      ctx.group = instr.group;
      ctx.dyn_index = dyn_warp;
      ctx.cta = cta.linear_id;
      ctx.warp = warp.warp_in_cta();
      ctx.warp_state = &warp;

      ctx.exec_mask = warp.guard_mask(instr.guard_pred, instr.guard_negated);
      ++dyn_warp;
      dyn_thread += static_cast<u64>(std::popcount(ctx.exec_mask));
      if (opts.profile) count_profile(instr, ctx.exec_mask);

      if (opts.hook) {
        opts.hook->on_before_instr(ctx);
        if (ctx.requested_trap != TrapKind::kNone) {
          return fire(ctx.requested_trap, cta, warp);
        }
      }
      // The hook may have mutated predicates (predicate-register injection);
      // recompute the executed lane set so the corruption takes effect.
      const u32 exec = warp.guard_mask(instr.guard_pred, instr.guard_negated);
      ctx.exec_mask = exec;

      TrapKind result = dispatch(cta, warp, instr, exec, &ctx);
      if (result != TrapKind::kNone) return result;

      if (opts.hook) {
        opts.hook->on_after_instr(ctx);
        if (ctx.requested_trap != TrapKind::kNone) {
          return fire(ctx.requested_trap, cta, warp);
        }
      }
      return TrapKind::kNone;
    } else if constexpr (Policy::kArmed) {
      return exec_armed(cta, warp, instr);
    } else {
      // Threaded tier: handlers do their own exec-mask computation and
      // accounting, so the whole slot is one direct-dispatched call.
      return exec::threaded_dispatch(*this, cta, warp, instr);
    }
  }

  /// One slot of an armed run. Every issue whose group the strike names is
  /// counted; the requested one runs instrumented, everything else threaded.
  TrapKind exec_armed(Cta& cta, WarpState& warp, const DecodedInstr& instr) {
    const int group = static_cast<int>(instr.group);
    ++group_issues[group];
    if (((strike.groups >> group) & 1u) != 0 &&
        strike_seen++ == strike.occurrence) {
      struck = true;
      const bool twinned = opts.golden_tail && start_twin(cta, warp, instr);
      opts.hook->on_strike_slot();
      const TrapKind trapped = exec_instr<InstrumentedPolicy>(cta, warp, instr);
      struck_at = std::chrono::steady_clock::now();
      if (trapped == TrapKind::kNone && twinned) {
        // The strike may have written any row (RF): compare them all.
        for (u16 r = 0; r < prog.num_regs(); ++r) note_row(warp, r);
        check_reconverged(warp);
        if (!reconverged) run_ahead(cta, warp);
      }
      return trapped;
    }
    return exec::threaded_dispatch(*this, cta, warp, instr);
  }

  // ---- the golden twin (DESIGN.md §4.14) ---------------------------------

  /// Just before the struck slot: copies the struck warp into its golden
  /// twin, which runs the slot without the hook, so every flip model is
  /// covered; false when no twin runs on. A struck store or atomic (IOA)
  /// gets no twin: the hook acts inside it.
  bool start_twin(Cta& cta, WarpState& warp, const DecodedInstr& instr) {
    switch (instr.op) {
      case Opcode::kStg:
      case Opcode::kSts:
      case Opcode::kAtomG:
      case Opcode::kAtomS:
        return false;
      default:
        break;
    }
    // A pending upset would make the twin's loads count ECC events.
    if (!mem.fault_free()) return false;
    // A stop ends the launch with the golden run's count, which must not
    // reach the watchdog: the launch would have hung.
    if (opts.golden_tail->dyn_warp >= watchdog) {
      return give_up(TwinGiveUp::kWatchdog);
    }
    slots.twin->copy_from(warp, slots.twin_rows);
    std::fill(slots.differs, slots.differs + slots.mask_words, 0u);
    diff_count = 0;
    return twin_step(cta, warp, instr, exec::thr::exec_mask(warp, instr));
  }

  /// Runs the twin through `instr`, which the struck warp (exec mask
  /// `exec`) runs next: ALU and control instructions and loads on the
  /// generic dispatcher (a word the warp stored differently is one nobody
  /// reads again, the twin included, so device memory is what the golden
  /// run would read). A global store is compared, not run; the twin meets
  /// no other store and no atomic (start_twin, run_ahead_steps). False,
  /// with the twin given up, where the two can no longer be told apart by
  /// live state alone: exec masks that differ on a control instruction or
  /// store, store addresses that differ, a partial-width store that
  /// differs, or a differing store to a word that is not write-once.
  bool twin_step(Cta& cta, const WarpState& warp, const DecodedInstr& instr,
                 u32 exec) {
    WarpState& twin = *slots.twin;
    const u32 twin_exec = exec::thr::exec_mask(twin, instr);
    thread_delta += std::popcount(exec) - std::popcount(twin_exec);
    switch (instr.op) {
      case Opcode::kBar:
      case Opcode::kExit:
      case Opcode::kBra:
      case Opcode::kSync:
      case Opcode::kSsy:
        if (exec != twin_exec) return give_up(TwinGiveUp::kControl);
        if (instr.op == Opcode::kBar) {
          ++twin.pc;  // it issues when the warp does: no barrier state
          return true;
        }
        break;
      case Opcode::kStg: {
        if (exec != twin_exec) return give_up(TwinGiveUp::kControl);
        const TwinGiveUp differs = stores_agree(warp, instr, exec);
        if (differs != TwinGiveUp::kNone) return give_up(differs);
        ++twin.pc;
        return true;
      }
      default:
        break;
    }
    // The twin is the golden warp and never traps; should it, the trap is
    // not the launch's.
    const Trap kept = trap;
    if (dispatch(cta, twin, instr, twin_exec) != TrapKind::kNone) {
      trap = kept;
      return give_up(TwinGiveUp::kTrap);
    }
    return true;
  }

  bool give_up(TwinGiveUp reason) {
    gave_up = reason;
    return false;
  }

  /// kNone when the struck warp's global store of lanes `exec` agrees with
  /// its twin's: the same addresses, and values that differ only in whole
  /// words the golden run writes once and never reads again, each noted in
  /// slots.diff_words. Otherwise why it does not.
  TwinGiveUp stores_agree(const WarpState& warp, const DecodedInstr& instr,
                          u32 exec) {
    const WarpState& twin = *slots.twin;
    const u32 width = instr.mem_width;
    const u64 bytes_mask =
        width == 8 ? ~u64{0} : (u64{1} << (8 * width)) - 1;
    const u16 data = instr.src[2].index;
    for (u32 rest = exec; rest != 0; rest &= rest - 1) {
      const auto lane = static_cast<u32>(std::countr_zero(rest));
      const u64 addr = address(warp, lane, instr);
      if (addr != address(twin, lane, instr)) {
        return TwinGiveUp::kStoreAddress;
      }
      const u64 value = width == 8 ? warp.reg64(lane, data)
                                   : warp.reg(lane, data);
      const u64 golden = width == 8 ? twin.reg64(lane, data)
                                    : twin.reg(lane, data);
      if (((value ^ golden) & bytes_mask) == 0) continue;
      if (width < 4) return TwinGiveUp::kPartialStore;
      for (u32 k = 0; k < width / 4; ++k) {
        const auto mine = static_cast<u32>(value >> (32 * k));
        const auto theirs = static_cast<u32>(golden >> (32 * k));
        if (mine == theirs) continue;
        if (!opts.golden_tail->is_write_once(addr + 4 * k)) {
          return TwinGiveUp::kNotWriteOnce;
        }
        if (diff_count == kMaxDiffWords) return TwinGiveUp::kTooManyWords;
        slots.diff_words[diff_count++] = {addr + 4 * k, mine};
      }
    }
    return TwinGiveUp::kNone;
  }

  /// The address a global load or store's lane accesses: src[0] plus the
  /// immediate offset.
  u64 address(const WarpState& warp, u32 lane,
              const DecodedInstr& instr) const {
    const u64 offset = instr.src[1].is_imm() ? instr.src[1].imm : 0;
    return read_operand(warp, lane, instr.src[0], DType::kU64) + offset;
  }

  /// Marks register row `r` as differing when the struck warp's value on
  /// some lane that has not exited differs from the twin's, else clears it.
  void note_row(const WarpState& warp, u16 r) {
    if (r == kRegZ) return;
    const u32* mine = warp.row(r);
    const u32* theirs = slots.twin->row(r);
    u32 lanes = 0;
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      lanes |= static_cast<u32>(mine[lane] != theirs[lane]) << lane;
    }
    u32& word = slots.differs[r / 32];
    const u32 bit = 1u << (r % 32);
    word = (lanes & ~warp.exited()) != 0 ? word | bit : word & ~bit;
  }

  /// Stops the launch (reconverged) when the struck warp has rejoined its
  /// twin: the same control, the same predicates on every lane that has
  /// not exited, and no differing row live where any of its lanes resumes.
  void check_reconverged(const WarpState& warp) {
    const WarpState& twin = *slots.twin;
    if (!warp.same_control(twin)) return;
    const u32 alive = ~warp.exited();
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      if (((alive >> lane) & 1u) != 0 &&
          warp.pred_bits(lane) != twin.pred_bits(lane)) {
        return;
      }
    }
    const std::size_t words = slots.mask_words;
    if (std::any_of(slots.differs, slots.differs + words,
                    [](u32 word) { return word != 0; })) {
      kept_rows(warp, slots.live);
      for (std::size_t w = 0; w < words; ++w) {
        // Rows noted before lanes exited may agree on those left.
        for (u32 rest = slots.differs[w] & slots.live[w]; rest != 0;
             rest &= rest - 1) {
          const auto r = static_cast<u16>(w * 32 + std::countr_zero(rest));
          note_row(warp, r);
          if ((slots.differs[w] >> (r % 32)) & 1u) return;
        }
      }
    }
    reconverged = true;
    reconverged_at = dyn_warp;
  }

  // ---- running ahead (DESIGN.md §4.14) -------------------------------------

  /// Right after the struck slot: runs a copy of the struck warp, and its
  /// twin, alone, ahead of every other warp, by the twin's rules. Until
  /// its control leaves the golden warp's, the warp issues in the golden
  /// run's slots and reads only its registers and the words it loads.
  /// Those the copy loads are words no other warp writes in the golden run
  /// (GoldenTail::writer), which hold at each of the warp's slots what they
  /// hold now plus its own stores, in program order; so the copy computes
  /// what the warp will, and a stop it finds is exact. Where the twin gives
  /// up, or the copy cannot go on (a barrier, shared memory, an atomic, a
  /// load of a word another warp writes, a trap, its store log full, the
  /// watchdog), it leaves the launch exactly as it found it, memory
  /// included, and the launch runs on with no twin.
  void run_ahead(Cta& cta, const WarpState& warp) {
    WarpState& mine = *slots.ahead;
    mine.copy_from(warp, slots.ahead_rows);
    const u64 kept_warp = dyn_warp;
    const u64 kept_thread = dyn_thread;
    const u64 kept_generic = generic_warp;
    const Trap kept_trap = trap;
    undo_count = 0;
    if (run_ahead_steps(cta, mine, warp_id(cta, warp))) return;
    for (u32 i = undo_count; i-- > 0;) {
      mem.write_u32_raw(slots.undo[i].addr, slots.undo[i].value);
    }
    dyn_warp = kept_warp;
    dyn_thread = kept_thread;
    generic_warp = kept_generic;
    trap = kept_trap;
  }

  /// The slots of a run ahead, on the copy `mine` of warp `self` (its
  /// global id, GoldenTail::writer) and the twin: true when the copy
  /// rejoins the twin, false (gave_up says why) when it cannot.
  bool run_ahead_steps(Cta& cta, WarpState& mine, u32 self) {
    const WarpState& twin = *slots.twin;
    while (!mine.done() && dyn_warp < watchdog) {
      const DecodedInstr& instr = dec.at(mine.pc);
      const u32 exec = exec::thr::exec_mask(mine, instr);
      switch (instr.op) {
        case Opcode::kBar:
          return give_up(TwinGiveUp::kBarrier);
        case Opcode::kLds:
        case Opcode::kSts:
          return give_up(TwinGiveUp::kShared);
        case Opcode::kAtomS:
        case Opcode::kAtomG:
          return give_up(TwinGiveUp::kAtomic);
        case Opcode::kLdg:
          if (!loads_own_words(mine, instr, exec, self) ||
              !loads_own_words(twin, instr,
                               exec::thr::exec_mask(twin, instr), self)) {
            return give_up(TwinGiveUp::kForeignLoad);
          }
          break;
        case Opcode::kStg:
          if (!log_stores(mine, instr, exec)) {
            return give_up(TwinGiveUp::kUndoFull);
          }
          break;
        default:
          break;
      }
      const u32 pc = mine.pc;
      if (!twin_step(cta, mine, instr, exec)) return false;
      if (exec::threaded_dispatch(*this, cta, mine, instr) !=
          TrapKind::kNone) {
        return give_up(TwinGiveUp::kTrap);
      }
      for (const u16 r : dec.def_use(pc).dst_regs) note_row(mine, r);
      check_reconverged(mine);
      if (reconverged) return true;
    }
    // A copy that exits has rejoined its twin or given up at the EXIT: only
    // the watchdog ends the loop.
    return give_up(TwinGiveUp::kWatchdog);
  }

  /// Whether every word the load `instr` of lanes `exec` of `warp` reads
  /// is one no warp but `self` writes in the golden run.
  bool loads_own_words(const WarpState& warp, const DecodedInstr& instr,
                       u32 exec, u32 self) const {
    const GoldenTail& tail = *opts.golden_tail;
    for (u32 rest = exec; rest != 0; rest &= rest - 1) {
      const auto lane = static_cast<u32>(std::countr_zero(rest));
      const u64 addr = address(warp, lane, instr);
      for (u64 k = 0; k < words_spanned(addr, instr.mem_width); ++k) {
        const u32 writer = tail.writer((addr & ~u64{3}) + 4 * k);
        if (writer != GoldenTail::kNoWriter && writer != self) return false;
      }
    }
    return true;
  }

  /// Logs in slots.undo the words the store `instr` of lanes `exec` of
  /// `warp` is about to write, with what they hold; false when the log
  /// cannot take them. Words outside device memory are left out: the
  /// store traps there.
  bool log_stores(const WarpState& warp, const DecodedInstr& instr,
                  u32 exec) {
    for (u32 rest = exec; rest != 0; rest &= rest - 1) {
      const auto lane = static_cast<u32>(std::countr_zero(rest));
      const u64 addr = address(warp, lane, instr);
      for (u64 k = 0; k < words_spanned(addr, instr.mem_width); ++k) {
        const u64 word = (addr & ~u64{3}) + 4 * k;
        if (!mem.row_u32_in_bounds(word, word)) continue;
        if (undo_count == kMaxUndoWords) return false;
        slots.undo[undo_count++] = {word, mem.read_u32_raw(word)};
      }
    }
    return true;
  }

  /// How many words `width` bytes at `addr` touch.
  static u64 words_spanned(u64 addr, u32 width) {
    return (addr % 4 + width - 1) / 4 + 1;
  }

  /// The global id of `warp` of `cta` (GoldenTail::writer).
  [[nodiscard]] u32 warp_id(const Cta& cta, const WarpState& warp) const {
    return cta.linear_id * slots.warps_per_cta + warp.warp_in_cta();
  }

  /// The end of a launch that reconverged: the golden run's final memory,
  /// with the words the struck warp stored differently, and its counts
  /// (the warp's lane count may differ from the twin's before the stop).
  void finish_golden() {
    const GoldenTail& tail = *opts.golden_tail;
    mem.restore(*opts.memory_base, opts.memory_base->data, tail.pages,
                kPageBytes, tail.bytes.data());
    for (u32 i = 0; i < diff_count; ++i) {
      mem.write_u32_raw(slots.diff_words[i].addr, slots.diff_words[i].value);
    }
    dyn_warp = tail.dyn_warp;
    dyn_thread = static_cast<u64>(static_cast<i64>(tail.dyn_thread) +
                                  thread_delta);
    cycle = tail.cycles;
  }

  /// Records a global row access of lanes `exec` of `warp` of `cta` for
  /// the golden tail.
  [[gnu::noinline]] void record_row(const Cta& cta, const WarpState& warp,
                                    const DecodedInstr& instr, u32 exec) {
    const bool load = instr.op == Opcode::kLdg;
    if (load && !recorder->any_written()) return;
    const u64 offset = instr.src[1].is_imm() ? instr.src[1].imm : 0;
    const u16 base = instr.src[0].index;
    static constexpr u32 kZeroRow[kWarpSize] = {};
    const u32* low = base == kRegZ ? kZeroRow : warp.row(base);
    const u32* high =
        base == kRegZ ? kZeroRow : warp.row(static_cast<u16>(base + 1));
    u64 addrs[kWarpSize];
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      addrs[lane] = make64(low[lane], high[lane]) + offset;
    }
    if (load) {
      recorder->load_row(addrs, exec);
    } else {
      recorder->store_row(addrs, exec, warp_id(cta, warp));
    }
  }

  // Executes `instr` for lanes in `exec`, already accounted by the caller;
  // manages the PC. The instrumented tier runs every instruction here, the
  // threaded tier the shapes its handlers decline. `ctx` is non-null only
  // on the instrumented tier (store-address transforms).
  TrapKind dispatch(Cta& cta, WarpState& warp, const DecodedInstr& instr,
                    u32 exec, InstrContext* ctx = nullptr) {
    auto for_each_lane = [&](auto&& body) {
      // Bit-scan over the executed set: lane order preserved, no per-lane
      // test for the (common) sparse and full masks alike.
      for (u32 rest = exec; rest != 0; rest &= rest - 1) {
        body(static_cast<u32>(std::countr_zero(rest)));
      }
    };
    auto src = [&](u32 lane, int i, DType dtype) {
      return read_operand(warp, lane, instr.src[i], dtype);
    };

    switch (instr.op) {
      // ---- control ------------------------------------------------------
      case Opcode::kNop:
        break;

      case Opcode::kExit: {
        const u32 rest = warp.active() & ~exec;
        warp.retire_lanes(exec);
        if (rest != 0) ++warp.pc;
        return TrapKind::kNone;
      }

      case Opcode::kSsy:
        warp.stack().push_back(
            {warp.active(), instr.target, StackEntry::Kind::kSsy});
        break;

      case Opcode::kBra: {
        const u32 taken = exec;
        const u32 not_taken = warp.active() & ~exec;
        if (taken == 0) {
          ++warp.pc;
        } else if (not_taken == 0) {
          warp.pc = instr.target;
        } else {
          warp.stack().push_back({taken, instr.target, StackEntry::Kind::kDiv});
          warp.set_active(not_taken);
          ++warp.pc;
        }
        return TrapKind::kNone;
      }

      case Opcode::kSync: {
        if (warp.stack().empty()) {
          return fire(TrapKind::kIllegalInstruction, cta, warp);
        }
        const StackEntry entry = warp.stack().back();
        warp.stack().pop_back();
        if (entry.kind == StackEntry::Kind::kDiv && entry.mask != 0) {
          warp.set_active(entry.mask);
          warp.pc = entry.pc;
        } else if (entry.kind == StackEntry::Kind::kSsy) {
          warp.set_active(entry.mask);
          ++warp.pc;
        } else {
          ++warp.pc;  // emptied divergence entry: fall through
        }
        return TrapKind::kNone;
      }

      case Opcode::kBar: {
        warp.at_barrier = true;
        ++warp.pc;
        // Release when every warp that can still arrive has arrived.
        bool all_arrived = true;
        for (const auto& other : cta.warps) {
          if (!other.done() && !other.at_barrier) {
            all_arrived = false;
            break;
          }
        }
        if (all_arrived) {
          for (auto& other : cta.warps) other.at_barrier = false;
        }
        return TrapKind::kNone;
      }

      // ---- moves / selects ------------------------------------------------
      case Opcode::kMov:
        for_each_lane([&](u32 lane) {
          write_dst(warp, lane, instr, src(lane, 0, instr.dtype));
        });
        break;

      case Opcode::kSel:
        for_each_lane([&](u32 lane) {
          const bool take =
              read_operand(warp, lane, instr.src[2], DType::kU32) != 0;
          write_dst(warp, lane, instr,
                    take ? src(lane, 0, instr.dtype)
                         : src(lane, 1, instr.dtype));
        });
        break;

      case Opcode::kS2r:
        for_each_lane([&](u32 lane) {
          warp.set_reg(lane, instr.dst_index,
                       special_value(cta, warp, lane,
                                     static_cast<SpecialReg>(instr.sub)));
        });
        break;

      case Opcode::kLdc: {
        const u64 idx = instr.src[0].imm;
        if (idx >= params.size()) {
          return fire(TrapKind::kIllegalInstruction, cta, warp);
        }
        const u64 value = params[idx];
        for_each_lane([&](u32 lane) { write_dst(warp, lane, instr, value); });
        break;
      }

      // ---- integer ALU ----------------------------------------------------
      case Opcode::kIAdd:
        for_each_lane([&](u32 lane) {
          write_dst(warp, lane, instr,
                    src(lane, 0, instr.dtype) + src(lane, 1, instr.dtype));
        });
        break;

      case Opcode::kIMul:
        for_each_lane([&](u32 lane) {
          write_dst(warp, lane, instr,
                    src(lane, 0, instr.dtype) * src(lane, 1, instr.dtype));
        });
        break;

      case Opcode::kIMad:
        for_each_lane([&](u32 lane) {
          if (instr.dtype == DType::kU64) {
            // IMAD.WIDE: 32x32-bit product added to a 64-bit accumulator —
            // the canonical SASS address-computation idiom.
            const u64 a = static_cast<u32>(src(lane, 0, DType::kU32));
            const u64 b = static_cast<u32>(src(lane, 1, DType::kU32));
            write_dst(warp, lane, instr, a * b + src(lane, 2, DType::kU64));
          } else {
            write_dst(warp, lane, instr,
                      src(lane, 0, instr.dtype) * src(lane, 1, instr.dtype) +
                          src(lane, 2, instr.dtype));
          }
        });
        break;

      case Opcode::kIMnmx:
        for_each_lane([&](u32 lane) {
          const u64 a = src(lane, 0, instr.dtype);
          const u64 b = src(lane, 1, instr.dtype);
          const bool a_less = int_compare(CmpOp::kLt, a, b, instr.dtype);
          const bool want_min = instr.sub == static_cast<u8>(MinMax::kMin);
          write_dst(warp, lane, instr, (a_less == want_min) ? a : b);
        });
        break;

      case Opcode::kISetp:
        for_each_lane([&](u32 lane) {
          const bool value =
              int_compare(static_cast<CmpOp>(instr.sub),
                          src(lane, 0, instr.dtype), src(lane, 1, instr.dtype),
                          instr.dtype);
          warp.set_pred(lane, static_cast<u8>(instr.dst_index), value);
        });
        break;

      case Opcode::kLop:
        for_each_lane([&](u32 lane) {
          const u64 a = src(lane, 0, instr.dtype);
          const u64 b = src(lane, 1, instr.dtype);
          u64 value = 0;
          switch (static_cast<LopKind>(instr.sub)) {
            case LopKind::kAnd: value = a & b; break;
            case LopKind::kOr: value = a | b; break;
            case LopKind::kXor: value = a ^ b; break;
            case LopKind::kNot: value = ~a; break;
          }
          write_dst(warp, lane, instr, value);
        });
        break;

      case Opcode::kShf:
        for_each_lane([&](u32 lane) {
          const u64 a = src(lane, 0, instr.dtype);
          const u32 amount = static_cast<u32>(src(lane, 1, DType::kU32)) &
                             (instr.wide ? 63u : 31u);
          u64 value = 0;
          switch (static_cast<ShiftKind>(instr.sub)) {
            case ShiftKind::kLeft:
              value = a << amount;
              break;
            case ShiftKind::kRightLogical:
              value = (instr.wide ? a : static_cast<u64>(static_cast<u32>(a)))
                      >> amount;
              break;
            case ShiftKind::kRightArith:
              if (instr.wide) {
                value = static_cast<u64>(static_cast<i64>(a) >> amount);
              } else {
                value = static_cast<u32>(
                    static_cast<i32>(static_cast<u32>(a)) >> amount);
              }
              break;
          }
          write_dst(warp, lane, instr, value);
        });
        break;

      case Opcode::kPopc:
        for_each_lane([&](u32 lane) {
          const u64 a = src(lane, 0, instr.dtype);
          const u64 bits =
              instr.wide ? a : static_cast<u64>(static_cast<u32>(a));
          write_dst(warp, lane, instr, static_cast<u64>(std::popcount(bits)));
        });
        break;

      // ---- floating point ---------------------------------------------------
      case Opcode::kFAdd:
      case Opcode::kFMul:
      case Opcode::kFMnmx:
        for_each_lane([&](u32 lane) {
          if (instr.dtype == DType::kF64) {
            const f64 a = bits_f64(src(lane, 0, DType::kF64));
            const f64 b = bits_f64(src(lane, 1, DType::kF64));
            f64 value = 0;
            // canon_nan: NaN-payload results of +/* are not stable across
            // compilations (bitutil.h); FMNMX passes operand bits through.
            if (instr.op == Opcode::kFAdd) value = canon_nan(a + b);
            else if (instr.op == Opcode::kFMul) value = canon_nan(a * b);
            else value = instr.sub == static_cast<u8>(MinMax::kMin)
                             ? fmin_det(a, b) : fmax_det(a, b);
            write_dst(warp, lane, instr, f64_bits(value));
          } else {
            const f32 a = bits_f32(static_cast<u32>(src(lane, 0, DType::kF32)));
            const f32 b = bits_f32(static_cast<u32>(src(lane, 1, DType::kF32)));
            f32 value = 0;
            if (instr.op == Opcode::kFAdd) value = canon_nan(a + b);
            else if (instr.op == Opcode::kFMul) value = canon_nan(a * b);
            else value = instr.sub == static_cast<u8>(MinMax::kMin)
                             ? fmin_det(a, b) : fmax_det(a, b);
            write_dst(warp, lane, instr, f32_bits(value));
          }
        });
        break;

      case Opcode::kFFma:
        for_each_lane([&](u32 lane) {
          if (instr.dtype == DType::kF64) {
            const f64 a = bits_f64(src(lane, 0, DType::kF64));
            const f64 b = bits_f64(src(lane, 1, DType::kF64));
            const f64 c = bits_f64(src(lane, 2, DType::kF64));
            write_dst(warp, lane, instr,
                      f64_bits(canon_nan(std::fma(a, b, c))));
          } else {
            const f32 a = bits_f32(static_cast<u32>(src(lane, 0, DType::kF32)));
            const f32 b = bits_f32(static_cast<u32>(src(lane, 1, DType::kF32)));
            const f32 c = bits_f32(static_cast<u32>(src(lane, 2, DType::kF32)));
            write_dst(warp, lane, instr,
                      f32_bits(canon_nan(std::fmaf(a, b, c))));
          }
        });
        break;

      case Opcode::kFSetp:
        for_each_lane([&](u32 lane) {
          bool value = false;
          if (instr.dtype == DType::kF64) {
            value = fp_compare(static_cast<CmpOp>(instr.sub),
                               bits_f64(src(lane, 0, DType::kF64)),
                               bits_f64(src(lane, 1, DType::kF64)));
          } else {
            value = fp_compare(
                static_cast<CmpOp>(instr.sub),
                bits_f32(static_cast<u32>(src(lane, 0, DType::kF32))),
                bits_f32(static_cast<u32>(src(lane, 1, DType::kF32))));
          }
          warp.set_pred(lane, static_cast<u8>(instr.dst_index), value);
        });
        break;

      case Opcode::kMufu:
        for_each_lane([&](u32 lane) {
          const f32 x = bits_f32(static_cast<u32>(src(lane, 0, DType::kF32)));
          write_dst(warp, lane, instr,
                    f32_bits(mufu_eval(static_cast<MufuKind>(instr.sub), x)));
        });
        break;

      case Opcode::kF2I:
        for_each_lane([&](u32 lane) {
          f64 x = 0;
          if (instr.dtype == DType::kF64) {
            x = bits_f64(src(lane, 0, DType::kF64));
          } else {
            x = bits_f32(static_cast<u32>(src(lane, 0, DType::kF32)));
          }
          i32 value = 0;
          if (std::isnan(x)) value = 0;
          else if (x >= 2147483647.0) value = std::numeric_limits<i32>::max();
          else if (x <= -2147483648.0) value = std::numeric_limits<i32>::min();
          else value = static_cast<i32>(x);
          warp.set_reg(lane, instr.dst_index, static_cast<u32>(value));
        });
        break;

      case Opcode::kI2F:
        for_each_lane([&](u32 lane) {
          const i32 x = static_cast<i32>(
              static_cast<u32>(src(lane, 0, DType::kS32)));
          if (instr.dtype == DType::kF64) {
            write_dst(warp, lane, instr, f64_bits(static_cast<f64>(x)));
          } else {
            write_dst(warp, lane, instr, f32_bits(static_cast<f32>(x)));
          }
        });
        break;

      case Opcode::kF2F:
        for_each_lane([&](u32 lane) {
          if (instr.dtype == DType::kF64) {  // widen F32 -> F64
            const f32 x = bits_f32(static_cast<u32>(src(lane, 0, DType::kF32)));
            write_dst(warp, lane, instr, f64_bits(static_cast<f64>(x)));
          } else {  // narrow F64 -> F32
            const f64 x = bits_f64(src(lane, 0, DType::kF64));
            write_dst(warp, lane, instr, f32_bits(static_cast<f32>(x)));
          }
        });
        break;

      // ---- memory --------------------------------------------------------
      case Opcode::kLdg:
      case Opcode::kStg: {
        const u32 width = instr.mem_width;
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          if (!((exec >> lane) & 1u)) continue;
          u64 addr = read_operand(warp, lane, instr.src[0], DType::kU64);
          if (instr.src[1].is_imm()) addr += instr.src[1].imm;
          if (ctx && opts.hook && instr.op == Opcode::kStg) {
            addr = opts.hook->transform_store_address(addr, *ctx, lane);
          }
          if (addr % width != 0) {
            return fire(TrapKind::kMisalignedAddress, cta, warp, addr);
          }
          u8 buffer[8] = {};
          if (instr.op == Opcode::kLdg) {
            if (TrapKind t = mem.read(addr, buffer, width);
                t != TrapKind::kNone) {
              return fire(t, cta, warp, addr);
            }
            if (recorder) [[unlikely]] recorder->load(addr, width);
            u64 value = 0;
            std::memcpy(&value, buffer, width);
            if (width == 8) {
              warp.set_reg64(lane, instr.dst_index, value);
            } else {
              warp.set_reg(lane, instr.dst_index, static_cast<u32>(value));
            }
          } else {
            u64 value = width == 8
                            ? warp.reg64(lane, instr.src[2].index)
                            : warp.reg(lane, instr.src[2].index);
            std::memcpy(buffer, &value, width);
            if (TrapKind t = mem.write(addr, buffer, width);
                t != TrapKind::kNone) {
              return fire(t, cta, warp, addr);
            }
            if (recorder) [[unlikely]] {
              recorder->store(addr, width, width >= 4, warp_id(cta, warp));
            }
          }
        }
        break;
      }

      case Opcode::kLds:
      case Opcode::kSts: {
        const u32 width = instr.mem_width;
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          if (!((exec >> lane) & 1u)) continue;
          u64 addr = static_cast<u32>(read_operand(warp, lane, instr.src[0],
                                                   DType::kU32));
          if (instr.src[1].is_imm()) addr += instr.src[1].imm;
          if (addr % width != 0) {
            return fire(TrapKind::kMisalignedAddress, cta, warp, addr);
          }
          if (addr + width > cta.shared.size()) {
            return fire(TrapKind::kIllegalSharedAddress, cta, warp, addr);
          }
          if (instr.op == Opcode::kLds) {
            u64 value = 0;
            std::memcpy(&value, cta.shared.data() + addr, width);
            if (width == 8) {
              warp.set_reg64(lane, instr.dst_index, value);
            } else {
              warp.set_reg(lane, instr.dst_index, static_cast<u32>(value));
            }
          } else {
            const u64 value = width == 8
                                  ? warp.reg64(lane, instr.src[2].index)
                                  : warp.reg(lane, instr.src[2].index);
            std::memcpy(cta.shared.data() + addr, &value, width);
          }
        }
        break;
      }

      case Opcode::kAtomG:
      case Opcode::kAtomS: {
        const bool global = instr.op == Opcode::kAtomG;
        const u32 width = instr.mem_width;  // 4 only (u32/s32/f32)
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          if (!((exec >> lane) & 1u)) continue;
          u64 addr = 0;
          if (global) {
            addr = read_operand(warp, lane, instr.src[0], DType::kU64);
          } else {
            addr = static_cast<u32>(
                read_operand(warp, lane, instr.src[0], DType::kU32));
          }
          if (addr % width != 0) {
            return fire(TrapKind::kMisalignedAddress, cta, warp, addr);
          }
          u32 old = 0;
          if (global) {
            if (TrapKind t = mem.read(addr, &old, width);
                t != TrapKind::kNone) {
              return fire(t, cta, warp, addr);
            }
          } else {
            if (addr + width > cta.shared.size()) {
              return fire(TrapKind::kIllegalSharedAddress, cta, warp, addr);
            }
            std::memcpy(&old, cta.shared.data() + addr, width);
          }
          const u32 a = static_cast<u32>(
              read_operand(warp, lane, instr.src[1], instr.dtype));
          const u32 b = static_cast<u32>(
              read_operand(warp, lane, instr.src[2], instr.dtype));
          const u32 updated = exec::atom_apply(
              static_cast<AtomKind>(instr.sub), instr.dtype, old, a, b);
          if (global) {
            if (TrapKind t = mem.write(addr, &updated, width);
                t != TrapKind::kNone) {
              return fire(t, cta, warp, addr);
            }
            if (recorder) [[unlikely]] {
              recorder->store(addr, width, false, warp_id(cta, warp));
            }
          } else {
            std::memcpy(cta.shared.data() + addr, &updated, width);
          }
          if (instr.dst_kind == OperandKind::kReg &&
              instr.dst_index != kRegZ) {
            warp.set_reg(lane, instr.dst_index, old);
          }
        }
        break;
      }

      // ---- warp communication -------------------------------------------
      case Opcode::kShfl: {
        u32 gathered[kWarpSize] = {};
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          gathered[lane] = warp.reg(lane, instr.src[0].index);
        }
        for_each_lane([&](u32 lane) {
          const u32 operand = static_cast<u32>(
              read_operand(warp, lane, instr.src[1], DType::kU32));
          i64 source = lane;
          switch (static_cast<ShflKind>(instr.sub)) {
            case ShflKind::kIdx: source = operand & 31u; break;
            case ShflKind::kUp:
              source = static_cast<i64>(lane) - operand;
              break;
            case ShflKind::kDown:
              source = static_cast<i64>(lane) + operand;
              break;
            case ShflKind::kBfly: source = lane ^ operand; break;
          }
          u32 value = gathered[lane];
          if (source >= 0 && source < kWarpSize &&
              ((exec >> source) & 1u) != 0) {
            value = gathered[source];
          }
          warp.set_reg(lane, instr.dst_index, value);
        });
        break;
      }

      case Opcode::kVote: {
        u32 votes = 0;
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          if (((exec >> lane) & 1u) &&
              read_operand(warp, lane, instr.src[0], DType::kU32) != 0) {
            votes |= 1u << lane;
          }
        }
        const auto kind = static_cast<VoteKind>(instr.sub);
        for_each_lane([&](u32 lane) {
          switch (kind) {
            case VoteKind::kAll:
              warp.set_pred(lane, static_cast<u8>(instr.dst_index),
                            (votes & exec) == exec);
              break;
            case VoteKind::kAny:
              warp.set_pred(lane, static_cast<u8>(instr.dst_index),
                            votes != 0);
              break;
            case VoteKind::kBallot:
              warp.set_reg(lane, instr.dst_index, votes);
              break;
          }
        });
        break;
      }

      // ---- tensor core ------------------------------------------------------
      case Opcode::kHmma: {
        if (exec != kFullMask) {
          return fire(TrapKind::kIllegalInstruction, cta, warp);
        }
        // m16n8k8: A(16x8) in 4 regs/lane, B(8x8) in 2, C/D(16x8) in 4.
        // Element e lives in lane (e % 32), slot (e / 32), row-major.
        f32 a_frag[128];
        f32 b_frag[64];
        f32 c_frag[128];
        // Element e of the fragment whose first register is `base`.
        auto element = [&](u16 base, u32 e) {
          return bits_f32(warp.reg(
              e % kWarpSize, static_cast<u16>(base + e / kWarpSize)));
        };
        for (u32 e = 0; e < 128; ++e) {
          a_frag[e] = element(instr.src[0].index, e);
          c_frag[e] = element(instr.src[2].index, e);
        }
        for (u32 e = 0; e < 64; ++e) b_frag[e] = element(instr.src[1].index, e);
        const bool tf32 = cfg.tensor_core_tf32;
        for (u32 i = 0; i < 16; ++i) {
          for (u32 j = 0; j < 8; ++j) {
            f32 acc = c_frag[i * 8 + j];
            for (u32 k = 0; k < 8; ++k) {
              const f32 a =
                  tf32 ? to_tf32(a_frag[i * 8 + k]) : a_frag[i * 8 + k];
              const f32 b =
                  tf32 ? to_tf32(b_frag[k * 8 + j]) : b_frag[k * 8 + j];
              acc = std::fmaf(a, b, acc);
            }
            const u32 e = i * 8 + j;
            warp.set_reg(e % kWarpSize,
                         static_cast<u16>(instr.dst_index + e / kWarpSize),
                         f32_bits(acc));
          }
        }
        break;
      }
    }

    ++warp.pc;
    return TrapKind::kNone;
  }

  // ---- the scheduler loop -------------------------------------------------

  // Runs the launch state forward under one instrumentation policy until it
  // completes, traps, or (armed) the cycle of the strike has finished.
  template <typename Policy>
  RunExit run() {
    // Per-opcode issue latencies with the memory/shared overrides baked in,
    // so the issue loop is one table load instead of a branch chain.
    u8 latency_of[kOpcodeCount];
    for (int op = 0; op < kOpcodeCount; ++op) {
      latency_of[op] = cfg.latencies.of(static_cast<Opcode>(op));
    }
    latency_of[static_cast<int>(Opcode::kLdg)] =
        static_cast<u8>(std::min<u32>(255, cfg.mem_latency_cycles));
    latency_of[static_cast<int>(Opcode::kAtomG)] =
        static_cast<u8>(std::min<u32>(255, cfg.mem_latency_cycles));
    latency_of[static_cast<int>(Opcode::kLds)] =
        static_cast<u8>(std::min<u32>(255, cfg.shared_latency_cycles));
    latency_of[static_cast<int>(Opcode::kAtomS)] =
        static_cast<u8>(std::min<u32>(255, cfg.shared_latency_cycles));

    // Per-SM earliest next-issue cycle (0 = must scan). See the skip check
    // in the SM loop for why this cannot change scheduling decisions.
    u64* const sm_next = slots.sm_next;
    std::fill(sm_next, sm_next + cfg.num_sms, u64{0});

    // SMs that still hold work, ascending. Small grids occupy a handful of
    // the model's SMs (a 16-CTA scan on the 108-SM A100 leaves 92 forever
    // idle), and the cycle loop used to scan all of them every cycle.
    // Iterating only busy SMs is behavior-identical: an idle SM's iteration
    // issues nothing and contributes the min-identity u64-max to the
    // fast-forward, and an SM whose pool drains can never wake again —
    // admit() backfills only from the SM's own retirement scan, so once
    // its order list is empty (grid exhausted) it stays empty. Holds on
    // re-entry after an armed run's strike for the same reason.
    u32* const busy = slots.busy;
    std::size_t busy_count = 0;
    for (u32 sm = 0; sm < cfg.num_sms; ++sm) {
      if (slots.in_use[sm] != 0) busy[busy_count++] = sm;
    }

    while (resident_count > 0) {
      if constexpr (Policy::kArmed) {
        // Up to the struck slot an armed run is the same for every strike
        // request, so its state here is the golden prefix's: a checkpoint.
        if (struck) return RunExit::kDowngraded;
      }
      if (dyn_warp >= next_mark_at) reach_mark();

      bool issued_any = false;

      for (std::size_t bi = 0; bi < busy_count;) {
        const u32 sm = busy[bi];
        // An SM whose warps are all provably stalled until a known future
        // cycle needs no scan: nothing outside this SM can wake its warps
        // (barrier releases and CTA admission are triggered by issues
        // within the same SM). Skipping the scan cannot change which warp
        // issues when, so cycle counts stay bit-identical.
        if (sm_next[sm] > cycle) {
          ++bi;
          continue;
        }

        u32 budget = cfg.issue_width;
        bool warp_retired = false;
        // Earliest cycle any warp of this SM can issue next; invalidated
        // (forced to re-scan every cycle) by barrier traffic and CTA
        // turnover below.
        u64 next_ready = std::numeric_limits<u64>::max();
        bool next_valid = true;
        for (const u32 slot : slots.pool(sm)) {
          if (budget == 0) break;
          Cta& cta = slots.ctas[slot];
          for (auto& warp : cta.warps) {
            if (budget == 0) break;
            if (warp.done() || warp.at_barrier) continue;
            if (warp.ready_cycle > cycle) {
              next_ready = std::min(next_ready, warp.ready_cycle);
              continue;
            }
            const DecodedInstr& di = dec.at(warp.pc);
            const Opcode op = di.op;
            const TrapKind trapped = exec_instr<Policy>(cta, warp, di);
            issued_any = true;
            --budget;
            if (trapped != TrapKind::kNone) return RunExit::kTrapped;
            if constexpr (Policy::kArmed) {
              // The rest of the launch is the golden run's.
              if (reconverged) return RunExit::kReconverged;
            }
            if (op == Opcode::kBar) next_valid = false;  // may park/release
            if (warp.done()) {
              warp_retired = true;
              // A warp that just retired can release siblings parked at a
              // barrier (they no longer need to wait for it).
              bool all_arrived = true;
              for (const auto& other : cta.warps) {
                if (!other.done() && !other.at_barrier) {
                  all_arrived = false;
                  break;
                }
              }
              if (all_arrived) {
                for (auto& other : cta.warps) other.at_barrier = false;
              }
            }
            warp.ready_cycle = cycle + latency_of[static_cast<int>(op)];
            next_ready = std::min(next_ready, warp.ready_cycle);
            if (dyn_warp >= watchdog) {
              trap = Trap{TrapKind::kWatchdogTimeout, 0, warp.pc,
                          cta.linear_id, warp.warp_in_cta()};
              return RunExit::kTrapped;
            }
          }
        }
        if (budget == 0) next_valid = false;  // unscanned warps may be ready

        // Retire finished CTAs and backfill from the grid. A CTA can only
        // finish on a cycle where one of its warps retired, so the scan is
        // skipped on all other cycles.
        if (warp_retired) {
          resident_count -= slots.retire_finished(sm);
          admit(sm);
          next_valid = false;  // fresh warps are ready immediately
          if (slots.in_use[sm] == 0) {
            // Drained for good (see the busy-list invariant above).
            std::copy(busy + bi + 1, busy + busy_count, busy + bi);
            --busy_count;
            continue;
          }
        }
        sm_next[sm] = next_valid ? next_ready : 0;
        ++bi;
      }

      if (issued_any) {
        ++cycle;
      } else {
        // Fast-forward to the earliest moment any warp becomes ready. Every
        // SM was either scanned this cycle or carries a valid future
        // sm_next from its last scan, so the per-SM minima are current.
        u64 earliest = std::numeric_limits<u64>::max();
        for (std::size_t bi = 0; bi < busy_count; ++bi) {
          earliest = std::min(earliest, sm_next[busy[bi]]);
        }
        if (earliest == std::numeric_limits<u64>::max()) {
          // Every live warp is parked at a barrier with no one left to
          // arrive: a barrier deadlock (possible under control-flow
          // corruption).
          trap = Trap{};
          trap.kind = TrapKind::kBarrierDivergence;
          return RunExit::kTrapped;
        }
        cycle = std::max(earliest, cycle + 1);
      }
    }
    return RunExit::kCompleted;
  }
};

// ---------------------------------------------------------------------------
// Launch: path selection over the engine
// ---------------------------------------------------------------------------

Result<LaunchResult> Simulator::launch(const Program& program, Dim3 grid,
                                       Dim3 block, std::span<const u64> params,
                                       const LaunchOptions& options) {
  if (Status status = program.validate(); !status.is_ok()) return status;
  if (grid.count() == 0 || block.count() == 0) {
    return Status::invalid_argument("empty grid or block");
  }
  if (block.count() > 1024) {
    return Status::invalid_argument("block exceeds 1024 threads");
  }
  if (params.size() < program.num_params()) {
    return Status::invalid_argument(
        "kernel '" + program.name() + "' expects " +
        std::to_string(program.num_params()) + " params, got " +
        std::to_string(params.size()));
  }
  const u32 threads_per_cta = static_cast<u32>(block.count());
  const u32 occupancy = config_.ctas_per_sm(threads_per_cta, program.num_regs(),
                                            program.shared_bytes());
  if (occupancy == 0) {
    return Status::invalid_argument("CTA footprint exceeds one SM (" +
                                    program.name() + ")");
  }

  const bool pin_instrumented = options.engine == EngineTier::kInstrumented;
  std::optional<StrikeRequest> strike;
  if (options.hook && !pin_instrumented) {
    strike = options.hook->strike_request();
  }
  const LaunchCheckpoint* resume = options.resume_from;
  if (resume) {
    if (!strike) {
      return Status::invalid_argument(
          "only an armed launch can resume from a checkpoint");
    }
    if (options.profile) {
      return Status::invalid_argument(
          "a resumed launch cannot profile the prefix it skips");
    }
    if (resume->grid != grid || resume->block != block ||
        resume->num_regs != program.num_regs() ||
        resume->shared_bytes != program.shared_bytes() ||
        resume->pool_sizes.size() != config_.num_sms) {
      return Status::invalid_argument(
          "checkpoint was taken from a different launch");
    }
    if (resume->issues(strike->groups) > strike->occurrence) {
      return Status::invalid_argument("checkpoint lies past the strike");
    }
    const std::size_t memory_bytes =
        resume->memory.brk - GlobalMemory::kBaseAddress;
    const std::size_t all_pages =
        (memory_bytes + LaunchCheckpoint::kPageBytes - 1) /
        LaunchCheckpoint::kPageBytes;
    if (resume->pages.size() < all_pages &&
        (!options.memory_base ||
         options.memory_base->data.size() != memory_bytes)) {
      return Status::invalid_argument(
          "checkpoint needs the launch-start memory it was captured against");
    }
  }
  if (options.live_rows &&
      (options.live_rows->pcs() != program.size() ||
       options.live_rows->words != row_mask_words(program.num_regs()))) {
    return Status::invalid_argument("live-row table is for another program");
  }
  if (options.capture && !strike) {
    return Status::invalid_argument("only an armed launch can capture");
  }
  if (options.golden_tail) {
    if (!strike) {
      return Status::invalid_argument(
          "only an armed launch can stop at reconvergence");
    }
    if (options.profile) {
      return Status::invalid_argument(
          "a launch that may stop at reconvergence cannot profile");
    }
    if (!options.live_rows || !options.memory_base ||
        options.memory_base->data.size() != memory_.bytes().size()) {
      return Status::invalid_argument(
          "stopping at reconvergence needs live rows and the launch-start "
          "memory");
    }
  }
  if (options.record_tail && options.hook) {
    return Status::invalid_argument(
        "only a hook-free launch can record a golden tail");
  }
  if (options.issue_grid &&
      (!options.profile || options.hook || options.issue_grid->step == 0)) {
    return Status::invalid_argument(
        "an issue grid needs a step and a hook-free, profiled launch");
  }

  Engine engine(config_, memory_, program, grid, block, params, options);
  engine.watchdog =
      options.watchdog_instrs ? options.watchdog_instrs : kDefaultWatchdog;
  engine.total_ctas = grid.count();
  const u64 used_sms =
      std::min<u64>(config_.num_sms, (engine.total_ctas + occupancy - 1) /
                                         occupancy);
  engine.slots.lay_out(arena_, config_.num_sms, static_cast<u32>(used_sms),
                       grid, block, occupancy, program.num_regs(),
                       program.shared_bytes());

  LaunchScope scope(options.hook, program);

  if (resume) {
    const auto started = std::chrono::steady_clock::now();
    engine.restore(*resume);
    engine.resume_ns = elapsed_ns(started);
  } else {
    for (u32 sm = 0; sm < config_.num_sms; ++sm) engine.admit(sm);
  }
  if (options.issue_grid) {
    options.issue_grid->counts.clear();
    engine.grid_rows = options.issue_grid;
  }
  engine.capture = options.capture;
  engine.seek_mark();
  std::optional<TailRecorder> recorder;
  if (options.record_tail) {
    recorder.emplace(memory_.bytes().size());
    engine.recorder = &*recorder;
  }

  // Tier selection: a hook with a strike request runs armed on the
  // threaded tier (unless pinned to instrumented) and continues plain
  // threaded once the struck slot's cycle is over, unless it stopped at
  // reconvergence in the struck slot. Any other hook (or an explicit
  // kInstrumented pin) take the instrumented engine to the end; hook-free
  // execution — golden runs included — runs the threaded tier. Both tiers
  // are bit-identical in every architecturally observable way.
  EngineTier tier_used = EngineTier::kThreaded;
  bool downgraded = false;
  u64 prefix_ns = 0;
  u64 post_strike_ns = 0;
  if (strike) {
    engine.strike = *strike;
    if (resume) engine.strike_seen = resume->issues(strike->groups);
    const auto armed_at = std::chrono::steady_clock::now();
    const RunExit exit = engine.run<ArmedThreadedPolicy>();
    if (exit == RunExit::kDowngraded) {
      // Past the strike the state is no longer the golden prefix's.
      engine.capture = nullptr;
      engine.seek_mark();
      (void)engine.run<ThreadedPolicy>();
    } else if (exit == RunExit::kReconverged) {
      engine.finish_golden();
    }
    downgraded = engine.struck;
    const TimePoint ended = std::chrono::steady_clock::now();
    prefix_ns = ns_between(armed_at, downgraded ? engine.struck_at : ended);
    prefix_ns -= std::min(prefix_ns, engine.capture_ns);
    if (downgraded) post_strike_ns = ns_between(engine.struck_at, ended);
  } else if (options.hook || pin_instrumented) {
    (void)engine.run<InstrumentedPolicy>();
    tier_used = EngineTier::kInstrumented;
  } else {
    (void)engine.run<ThreadedPolicy>();
  }

  if (recorder && !engine.trap.fired()) {
    GoldenTail& tail = *options.record_tail;
    recorder->finish(tail, memory_.bytes());
    tail.dyn_warp = engine.dyn_warp;
    tail.dyn_thread = engine.dyn_thread;
    tail.cycles = engine.cycle;
  }

  LaunchResult result;
  result.trap = engine.trap;
  result.dyn_warp_instrs = engine.dyn_warp;
  result.dyn_thread_instrs = engine.dyn_thread;
  result.generic_warp_instrs = engine.generic_warp;
  result.cycles = engine.cycle;
  result.ecc = memory_.counters();
  result.tier_used = tier_used;
  result.downgraded = downgraded;
  result.captured = engine.captured;
  result.reconverged = engine.reconverged;
  result.reconverged_at = engine.reconverged_at;
  result.twin_gave_up = engine.gave_up;
  result.resume_ns = engine.resume_ns;
  result.capture_ns = engine.capture_ns;
  result.prefix_ns = prefix_ns;
  result.post_strike_ns = post_strike_ns;
  return result;
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

std::vector<WarpState> Simulator::checkpoint_warps(
    const LaunchCheckpoint& checkpoint, LaunchArena& arena) {
  const auto sms = static_cast<u32>(checkpoint.pool_sizes.size());
  u32 occupancy = 1;
  for (const u32 ctas : checkpoint.pool_sizes) {
    occupancy = std::max(occupancy, ctas);
  }
  Slots slots;
  slots.lay_out(arena, sms, sms, checkpoint.grid, checkpoint.block, occupancy,
                checkpoint.num_regs, checkpoint.shared_bytes);
  // Rows the image left out are shown as zero, whatever the arena held.
  std::fill(slots.rows, slots.rows_of(sms * occupancy), 0u);
  std::vector<WarpState> warps;
  const u32* in = checkpoint.image.data();
  for (u32 sm = 0; sm < sms; ++sm) {
    for (u32 i = 0; i < checkpoint.pool_sizes[sm]; ++i) {
      const Cta& cta = slots.load(sm, in);
      warps.insert(warps.end(), cta.warps.begin(), cta.warps.end());
    }
  }
  return warps;
}

namespace {

/// `bytes` bytes of fresh pages; throws std::bad_alloc when out of memory.
void* map_pages(std::size_t bytes) {
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return pages;
}

std::size_t whole_pages(std::size_t bytes) {
  constexpr std::size_t kPage = LaunchCheckpoint::kPageBytes;
  return (bytes + kPage - 1) / kPage * kPage;
}

/// The pages of an arena its Device gave back, kept for the next arena to
/// take: fresh pages fault in one at a time when first written, about
/// 2.6 us a page on a 4-core Xeon VM, so an arena mapped afresh for every
/// Device made each golden run and each campaign's first launches pay up
/// to a millisecond for theirs (saxpy_swift's A100 arena is 2.6 MiB). At
/// most one mapping waits here, the largest given back; an arena that
/// needs more maps its own.
class SparePages {
 public:
  /// At least `bytes` mapped bytes, the spare ones when they are enough;
  /// sets `bytes` to the size taken.
  void* take(std::size_t& bytes) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pages_ && bytes_ >= bytes) {
        bytes = bytes_;
        bytes_ = 0;
        return std::exchange(pages_, nullptr);
      }
    }
    return map_pages(bytes);
  }

  /// Keeps `pages` unless larger spare ones wait already; unmaps the
  /// smaller of the two.
  void give(void* pages, std::size_t bytes) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (bytes > bytes_) {
        std::swap(pages, pages_);
        std::swap(bytes, bytes_);
      }
    }
    if (pages) munmap(pages, bytes);
  }

 private:
  std::mutex mutex_;
  void* pages_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Never destroyed: a static Device may give its pages back during static
/// destruction, after a static SparePages would have gone.
SparePages& spare_pages() {
  static SparePages& spare = *new SparePages;
  return spare;
}

}  // namespace

std::pair<WarpState*, std::byte*> Simulator::reserve(LaunchArena& arena,
                                                     std::size_t warps,
                                                     std::size_t bytes) {
  arena.reserve(warps, bytes);
  return {arena.warps_, arena.bytes_};
}

LaunchArena::~LaunchArena() { release(); }

void LaunchArena::release() {
  std::destroy_n(warps_, warp_count_);
  if (mapped_ > 0) spare_pages().give(warps_, mapped_);
  warps_ = nullptr;
  warp_count_ = 0;
  bytes_ = nullptr;
  byte_count_ = 0;
  mapped_ = 0;
}

void LaunchArena::reserve(std::size_t warps, std::size_t bytes) {
  if (warps <= warp_count_ && bytes <= byte_count_) return;
  warps = std::max(warps, warp_count_);
  bytes = std::max(bytes, byte_count_);
  release();
  const std::size_t header_bytes =
      (warps * sizeof(WarpState) + kArenaAlign - 1) / kArenaAlign *
      kArenaAlign;
  std::size_t total = whole_pages(header_bytes + bytes);
  void* pages = spare_pages().take(total);
  mapped_ = total;
  warps_ = static_cast<WarpState*>(pages);
  std::uninitialized_default_construct_n(warps_, warps);
  warp_count_ = warps;
  bytes_ = static_cast<std::byte*>(pages) + header_bytes;
  byte_count_ = total - header_bytes;
}

ImageBuffer::ImageBuffer(std::size_t words) {
  if (words == 0) return;
  const std::size_t bytes = whole_pages(words * sizeof(u32));
  data_ = static_cast<u32*>(map_pages(bytes));
  words_ = bytes / sizeof(u32);
}

ImageBuffer::~ImageBuffer() { release(); }

ImageBuffer::ImageBuffer(ImageBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      words_(std::exchange(other.words_, 0)) {}

ImageBuffer& ImageBuffer::operator=(ImageBuffer&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    words_ = std::exchange(other.words_, 0);
  }
  return *this;
}

void ImageBuffer::release() {
  if (data_) munmap(data_, words_ * sizeof(u32));
  data_ = nullptr;
  words_ = 0;
}

void ImageBuffer::reserve(std::size_t words) {
  if (words <= words_) return;
  // Grown at least twofold: a checkpoint moving forward through a launch
  // writes more pages as it goes, and each new mapping faults its pages in
  // again. Pages never written cost no resident memory.
  words = std::max(words, 2 * words_);
  release();  // before the new one is taken, so the two never coexist
  *this = ImageBuffer(words);
}

std::size_t IssueGrid::bucket(const StrikeRequest& strike) const {
  // Counts never fall from one mark to the next: binary search.
  std::size_t lo = 0;
  std::size_t hi = marks();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (issues(mid, strike.groups) <= strike.occurrence) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace gfi::sim
