// Per-warp architectural state: PC, lane masks, SIMT reconvergence stack,
// registers and predicates for 32 lanes.
#pragma once

#include <cassert>
#include <cstring>
#include <vector>

#include "common/bitutil.h"
#include "common/simd.h"
#include "common/types.h"
#include "sassim/isa.h"

namespace gfi::sim {

/// Divergence-stack entry. kSsy entries restore the pre-divergence mask at
/// the reconvergence point; kDiv entries hold the taken-path lanes waiting
/// to execute.
struct StackEntry {
  enum class Kind : u8 { kSsy, kDiv };
  u32 mask = 0;
  u32 pc = 0;
  Kind kind = Kind::kSsy;

  bool operator==(const StackEntry&) const = default;
};

/// Words of a mask with one bit per register of a `num_regs` file.
[[nodiscard]] constexpr std::size_t row_mask_words(u32 num_regs) {
  return (num_regs + 31) / 32;
}

/// The register rows live on entry to each instruction of a program: bit r
/// of pc's mask is set when some path from pc may read register r before
/// an unguarded write to it. A checkpoint keeps only these rows of a warp
/// (LaunchOptions::live_rows); any other row is written before it is read,
/// whatever value it holds.
struct LiveRows {
  std::size_t words = 0;  ///< mask words per pc: row_mask_words(num_regs)
  std::vector<u32> masks;  ///< pcs() masks of `words` words

  [[nodiscard]] std::size_t pcs() const {
    return words == 0 ? 0 : masks.size() / words;
  }
  [[nodiscard]] const u32* at(u32 pc) const {
    return masks.data() + pc * words;
  }
};

/// A warp's header: pc, masks, predicates, SIMT stack and timing state,
/// and a pointer to its register rows, which live elsewhere ([reg][lane],
/// num_regs() rows of kWarpSize words): a launch keeps every resident
/// warp's rows in its Device's LaunchArena.
class WarpState {
 public:
  WarpState() = default;
  /// A warp over the zeroed rows at `regs`.
  WarpState(u32 warp_in_cta, u32 num_regs, u32 initial_mask, u32* regs) {
    reset(warp_in_cta, num_regs, initial_mask, regs);
  }

  /// Makes this the fresh warp of a new CTA over `regs`, keeping the SIMT
  /// stack's capacity, so a reused header allocates only when it nests
  /// deeper than before. The rows are left as they are.
  void reset(u32 warp_in_cta, u32 num_regs, u32 initial_mask, u32* regs) {
    pc = 0;
    ready_cycle = 0;
    at_barrier = false;
    warp_in_cta_ = warp_in_cta;
    num_regs_ = num_regs;
    active_ = initial_mask;
    exited_ = 0;
    stack_.clear();
    regs_ = regs;
    std::memset(preds_, 0, sizeof(preds_));
  }

  // --- identity ---------------------------------------------------------
  [[nodiscard]] u32 warp_in_cta() const { return warp_in_cta_; }
  [[nodiscard]] u32 num_regs() const { return num_regs_; }

  // --- control state ------------------------------------------------------
  u32 pc = 0;
  u64 ready_cycle = 0;      ///< timing model: earliest next issue
  bool at_barrier = false;

  [[nodiscard]] u32 active() const { return active_; }
  [[nodiscard]] u32 exited() const { return exited_; }
  [[nodiscard]] bool done() const { return active_ == 0 && stack_.empty(); }
  [[nodiscard]] bool fully_exited() const {
    return done() || (active_ == 0 && pending_stack_mask() == 0);
  }

  void set_active(u32 mask) { active_ = mask; }

  /// Lanes that would execute an instruction guarded by @P (or @!P when
  /// `negated`): active lanes whose guard predicate evaluates true. Both
  /// execution paths compute exec masks through this one definition.
  [[nodiscard]] u32 guard_mask(u8 p, bool negated) const {
    u32 mask = 0;
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      if (!((active_ >> lane) & 1u)) continue;
      if (pred(lane, p) != negated) mask |= 1u << lane;
    }
    return mask;
  }

  /// Bit-identical to guard_mask(), evaluated bit-parallel over the packed
  /// predicate bytes instead of lane by lane (simd::testbit_mask32: one
  /// byte-compare + movemask under AVX2, the multiply trick in the scalar
  /// backend). The threaded tier's per-instruction guard evaluation;
  /// the instrumented path keeps the per-lane walk above, whose cost is
  /// part of the preserved pre-refactor inner loop it stands in for.
  [[nodiscard]] u32 guard_mask_fast(u8 p, bool negated) const {
    if (p == kPredT) return negated ? 0u : active_;
    u32 raw = simd::testbit_mask32(preds_, p);
    if (negated) raw = ~raw;
    return raw & active_;
  }

  std::vector<StackEntry>& stack() { return stack_; }
  [[nodiscard]] const std::vector<StackEntry>& stack() const { return stack_; }

  /// Same pc, active and exited masks and SIMT stack: from here on the two
  /// warps issue the same instructions under the same masks as long as
  /// their predicates and the registers they read agree.
  [[nodiscard]] bool same_control(const WarpState& other) const {
    return pc == other.pc && active_ == other.active_ &&
           exited_ == other.exited_ && stack_ == other.stack_;
  }

  /// Makes this warp a copy of `other` over the rows at `regs`: header,
  /// predicates and SIMT stack (into this stack's storage, which allocates
  /// only when `other` nests deeper than it ever did), and `other`'s
  /// register rows copied to `regs`.
  void copy_from(const WarpState& other, u32* regs) {
    const std::vector<StackEntry>& stack = other.stack_;
    stack_.assign(stack.begin(), stack.end());
    pc = other.pc;
    ready_cycle = other.ready_cycle;
    at_barrier = other.at_barrier;
    warp_in_cta_ = other.warp_in_cta_;
    num_regs_ = other.num_regs_;
    active_ = other.active_;
    exited_ = other.exited_;
    regs_ = regs;
    std::memcpy(regs_, other.regs_,
                static_cast<std::size_t>(num_regs_) * kWarpSize * sizeof(u32));
    std::memcpy(preds_, other.preds_, sizeof(preds_));
  }

  /// Retires `lanes` permanently: removes them from the active mask and
  /// from every stack entry, then pops emptied contexts so execution can
  /// continue on any pending divergent path.
  void retire_lanes(u32 lanes);

  // --- registers ----------------------------------------------------------
  [[nodiscard]] u32 reg(u32 lane, u16 r) const {
    if (r == kRegZ) return 0;
    return regs_[index_of(lane, r)];
  }
  void set_reg(u32 lane, u16 r, u32 value) {
    if (r == kRegZ) return;
    regs_[index_of(lane, r)] = value;
  }
  /// Warp-wide register row: the 32 per-lane values of register `r` laid
  /// out contiguously ([reg][lane] storage). The executor's full-warp
  /// vector ALU path iterates rows directly; `r` must be a real register
  /// (callers handle RZ themselves).
  [[nodiscard]] const u32* row(u16 r) const { return &regs_[index_of(0, r)]; }
  [[nodiscard]] u32* row(u16 r) { return &regs_[index_of(0, r)]; }
  [[nodiscard]] u64 reg64(u32 lane, u16 r) const {
    // RZ as a pair base reads (RZ, RZ): the upper half must not alias
    // register kRegZ + 1, which is out of the register file entirely.
    if (r == kRegZ) return 0;
    return make64(reg(lane, r), reg(lane, static_cast<u16>(r + 1)));
  }
  void set_reg64(u32 lane, u16 r, u64 value) {
    if (r == kRegZ) return;
    set_reg(lane, r, lo32(value));
    set_reg(lane, static_cast<u16>(r + 1), hi32(value));
  }

  // --- predicates -----------------------------------------------------------
  [[nodiscard]] bool pred(u32 lane, u8 p) const {
    if (p == kPredT) return true;
    return (preds_[lane] >> p) & 1u;
  }
  void set_pred(u32 lane, u8 p, bool value) {
    if (p == kPredT) return;
    if (value) {
      preds_[lane] = static_cast<u8>(preds_[lane] | (1u << p));
    } else {
      preds_[lane] = static_cast<u8>(preds_[lane] & ~(1u << p));
    }
  }
  /// Sets predicate `p` of all 32 lanes at once from a lane bitmask, as the
  /// vector ISETP/FSETP paths produce one. Identical to 32 set_pred calls
  /// (writes to PT are dropped); every lane is written, matching a
  /// full-warp compare under the generic loop.
  void set_pred_row(u8 p, u32 lanemask) {
    if (p == kPredT) return;
    const u8 bit = static_cast<u8>(1u << p);
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      const u8 set = ((lanemask >> lane) & 1u) != 0 ? bit : u8{0};
      preds_[lane] = static_cast<u8>((preds_[lane] & ~bit) | set);
    }
  }

  /// Raw predicate byte of a lane (fault-injection access).
  [[nodiscard]] u8 pred_bits(u32 lane) const { return preds_[lane]; }
  void set_pred_bits(u32 lane, u8 bits) { preds_[lane] = bits; }

  // --- flat image (LaunchCheckpoint storage) -------------------------------
  /// Words save_image() writes with the register rows `rows` (a mask of
  /// row_mask_words(num_regs()) words, bit r = register r): the fields a
  /// new CTA does not set, the mask, the rows it names and the stack.
  [[nodiscard]] std::size_t image_words(const u32* rows) const;
  /// Writes the warp to `out` with only the register rows `rows`; returns
  /// the word after it.
  u32* save_image(u32* out, const u32* rows) const;
  /// Loads into this warp, reset() for its slot, the image save_image()
  /// wrote at `in`, advancing `in` past it. Only the kept rows are copied
  /// back: the others are dead at every pc the warp can resume at, so they
  /// are written before they are read whatever they hold (DESIGN.md §4.14).
  void load_image(const u32*& in);

 private:
  [[nodiscard]] std::size_t index_of(u32 lane, u16 r) const {
    assert(lane < kWarpSize && r < num_regs_);
    return static_cast<std::size_t>(r) * kWarpSize + lane;
  }
  [[nodiscard]] u32 pending_stack_mask() const {
    u32 mask = 0;
    for (const auto& entry : stack_) mask |= entry.mask;
    return mask;
  }

  u32 warp_in_cta_ = 0;
  u32 num_regs_ = 0;
  u32 active_ = 0;
  u32 exited_ = 0;
  std::vector<StackEntry> stack_;
  u32* regs_ = nullptr;  ///< num_regs_ rows, [reg][lane] layout
  u8 preds_[kWarpSize] = {};
};

}  // namespace gfi::sim
