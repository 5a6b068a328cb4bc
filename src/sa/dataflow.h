// Classic bitvector dataflow over the CFG: backward liveness for registers
// and predicates, forward reaching definitions, and def-use chains derived
// from them.
//
// Soundness for fault-injection pruning hinges on one asymmetry: *every*
// read (any guard, any lane) generates a use, but only *unguarded* writes
// kill. A guarded write leaves masked lanes' registers untouched, so it
// cannot end a value's live range. Cross-lane readers (SHFL/VOTE/HMMA) only
// consume values from lanes that execute the instruction, which the CFG
// path of that lane covers, so no extra edges are needed.
//
// sa/bitlive.h refines the register-level answer to bit granularity
// (32-bit live masks per register, intersected with Liveness below so it
// is a strict refinement); this file stays the whole-register truth that
// seeds and bounds it.
#pragma once

#include <vector>

#include "sa/cfg.h"
#include "sassim/decoded.h"
#include "sassim/defuse.h"
#include "sassim/program.h"
#include "sassim/warp.h"

namespace gfi::sa {

/// Dense bitset sized at construction. Variables are packed as
/// [0, num_regs) general registers followed by 7 writable predicates.
class BitSet {
 public:
  BitSet() = default;
  explicit BitSet(u32 nbits) : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  void set(u32 bit) { words_[bit >> 6] |= 1ull << (bit & 63); }
  void reset(u32 bit) { words_[bit >> 6] &= ~(1ull << (bit & 63)); }
  [[nodiscard]] bool test(u32 bit) const {
    return (words_[bit >> 6] >> (bit & 63)) & 1u;
  }
  /// this |= other; returns true when any bit changed.
  bool merge(const BitSet& other) {
    bool changed = false;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const u64 next = words_[w] | other.words_[w];
      changed = changed || next != words_[w];
      words_[w] = next;
    }
    return changed;
  }
  /// this &= ~other.
  void subtract(const BitSet& other) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] &= ~other.words_[w];
    }
  }
  bool operator==(const BitSet& other) const {
    return words_ == other.words_;
  }
  [[nodiscard]] u32 size() const { return nbits_; }

 private:
  u32 nbits_ = 0;
  std::vector<u64> words_;
};

/// Backward liveness over registers and predicates. `live_out(pc)` is the
/// set of variables whose value may still be read on some path after the
/// instruction at `pc` completes — exactly the set an injector strike at
/// `pc`'s destination must intersect to possibly matter.
class Liveness {
 public:
  static Liveness compute(const sim::Program& program, const Cfg& cfg);

  [[nodiscard]] const BitSet& live_out(u32 pc) const { return live_out_[pc]; }
  [[nodiscard]] bool reg_live_out(u32 pc, u16 r) const {
    return r != sim::kRegZ && r < num_regs_ && live_out_[pc].test(r);
  }
  [[nodiscard]] bool pred_live_out(u32 pc, u8 p) const {
    return p < sim::kPredT && live_out_[pc].test(num_regs_ + p);
  }

 private:
  u32 num_regs_ = 0;
  std::vector<BitSet> live_out_;  ///< per pc
};

/// The register rows live on entry to each instruction of `program`: its
/// uses, plus what is live out of it and not killed by an unguarded write.
/// Fast-forward keeps only these rows of a warp in a checkpoint
/// (sim::LaunchOptions::live_rows). Sound because no fault model leaves the
/// CFG: a row dead at a warp's resume pc is written before it is read on
/// every path, whatever a strike corrupts.
[[nodiscard]] sim::LiveRows live_in_rows(const sim::Program& program);

/// Forward reaching definitions. Each (pc, variable) write is a definition;
/// a pseudo-definition per variable models the launch-time zero-initialised
/// state and reaches wherever a path from entry avoids every real write.
class ReachingDefs {
 public:
  static ReachingDefs compute(const sim::Program& program, const Cfg& cfg);

  /// True when the zero-init pseudo-definition of register `r` can reach
  /// the entry of `pc` — i.e. some path reads it never-defined.
  [[nodiscard]] bool reg_may_be_uninit(u32 pc, u16 r) const;
  [[nodiscard]] bool pred_may_be_uninit(u32 pc, u8 p) const;

  /// pcs of real definitions of register `r` that may reach the entry of
  /// `pc`. Does not include the pseudo-definition (query it separately).
  [[nodiscard]] std::vector<u32> reaching_defs(u32 pc, u16 r) const;
  [[nodiscard]] std::vector<u32> reaching_pred_defs(u32 pc, u8 p) const;

 private:
  struct Def {
    u32 pc = 0;    ///< defining instruction (unused for pseudo defs)
    u32 var = 0;   ///< packed variable index
    bool pseudo = false;
  };

  /// Reaching-in set at the entry of `pc`, reconstructed by walking the
  /// owning block from its dataflow in-state.
  [[nodiscard]] BitSet state_at(u32 pc) const;
  void apply(BitSet& state, u32 pc) const;

  const sim::DecodedProgram* dec_ = nullptr;
  const Cfg* cfg_ = nullptr;
  u32 num_regs_ = 0;
  u32 num_vars_ = 0;
  std::vector<Def> defs_;
  std::vector<std::vector<u32>> defs_of_var_;  ///< def ids per variable
  std::vector<u32> pseudo_def_of_var_;         ///< def id of each pseudo def
  std::vector<std::vector<u32>> def_ids_at_;   ///< real def ids per pc
  std::vector<BitSet> block_in_;
};

/// Def-use chains: for every real definition, the pcs that may read it.
struct DefUseChains {
  /// uses[def_pc] lists reader pcs (sorted, deduplicated). Indexed by pc;
  /// instructions that define nothing have empty lists.
  std::vector<std::vector<u32>> uses;

  static DefUseChains compute(const sim::Program& program, const Cfg& cfg,
                              const ReachingDefs& reaching);
};

}  // namespace gfi::sa
