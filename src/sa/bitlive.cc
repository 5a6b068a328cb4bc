#include "sa/bitlive.h"

namespace gfi::sa {
namespace {

using sim::DecodedInstr;
using sim::DecodedOperand;
using sim::DefUse;
using sim::DType;
using sim::LopKind;
using sim::Opcode;
using sim::OperandKind;
using sim::ShiftKind;

constexpr u32 kAll = 0xffffffffu;

/// Mask state at one program point: live bits per register, one live bit
/// per writable predicate.
struct MaskState {
  std::vector<u32> regs;
  u8 preds = 0;

  explicit MaskState(u32 num_regs) : regs(num_regs, 0) {}

  bool merge(const MaskState& other) {
    bool changed = false;
    for (std::size_t i = 0; i < regs.size(); ++i) {
      const u32 next = regs[i] | other.regs[i];
      changed = changed || next != regs[i];
      regs[i] = next;
    }
    const u8 next_preds = static_cast<u8>(preds | other.preds);
    changed = changed || next_preds != preds;
    preds = next_preds;
    return changed;
  }
};

/// Source demands of one instruction: at most the distinct registers a
/// RegList can hold, deduplicated by OR-ing masks, plus demanded predicates.
struct Demands {
  u16 regs[sim::RegList::kCapacity];
  u32 masks[sim::RegList::kCapacity];
  int count = 0;
  u8 preds = 0;

  void add(u16 r, u32 mask) {
    if (r == sim::kRegZ || mask == 0) return;
    for (int i = 0; i < count; ++i) {
      if (regs[i] == r) {
        masks[i] |= mask;
        return;
      }
    }
    if (count < sim::RegList::kCapacity) {
      regs[count] = r;
      masks[count] = mask;
      ++count;
    }
  }
  /// Operand read through read_operand: register (span 1 or 2, per-half
  /// masks) or predicate (demanded when any mask bit is set).
  void add_operand(const DecodedOperand& operand, u32 mask_lo, u32 mask_hi,
                   bool pair) {
    if (operand.kind == OperandKind::kReg) {
      add(operand.index, mask_lo);
      if (pair) add(static_cast<u16>(operand.index + 1), mask_hi);
    } else if (operand.kind == OperandKind::kPred &&
               operand.index != sim::kPredT && (mask_lo | mask_hi) != 0) {
      preds |= static_cast<u8>(1u << operand.index);
    }
  }
};

/// The backward per-instruction transfer: given the live-out MaskState,
/// computes source demands (the "gen" side, derived from destination
/// live-out masks), kills unguarded destinations, and produces live-in.
class Transfer {
 public:
  Transfer(const sim::DecodedProgram& dec, u32 num_regs)
      : dec_(&dec), num_regs_(num_regs) {}

  /// state: live-out on entry, live-in on return. When `demand_out` is
  /// given, each source register's demand mask is OR-ed into it.
  void apply(u32 pc, MaskState& state, std::vector<u32>* demand_out) const {
    const DecodedInstr& d = dec_->at(pc);
    const DefUse& du = dec_->def_use(pc);
    Demands dem;
    collect_demands(d, du, state, dem);

    if (!d.guarded) {
      for (u16 r : du.dst_regs) {
        if (r < num_regs_) state.regs[r] = 0;
      }
      state.preds &= static_cast<u8>(~du.dst_preds);
    }
    for (int i = 0; i < dem.count; ++i) {
      if (dem.regs[i] >= num_regs_) continue;
      state.regs[dem.regs[i]] |= dem.masks[i];
      if (demand_out) (*demand_out)[dem.regs[i]] |= dem.masks[i];
    }
    if (d.guard_pred != sim::kPredT) {
      dem.preds |= static_cast<u8>(1u << d.guard_pred);
    }
    state.preds |= dem.preds;
  }

 private:
  /// Live-out mask of register `r` as a demand source: RZ is nothing,
  /// out-of-range registers are unanalyzable and assumed fully live.
  [[nodiscard]] u32 out_mask(const MaskState& state, u16 r) const {
    if (r == sim::kRegZ) return 0;
    if (r >= num_regs_) return kAll;
    return state.regs[r];
  }

  // One case per opcode, no default: a new opcode fails -Wswitch here and
  // the completeness-guard test audits sim::bit_semantics alongside.
  void collect_demands(const DecodedInstr& d, const DefUse& du,
                       const MaskState& state, Demands& dem) const {
    const bool wide = d.wide;
    const bool dst_reg = d.dst_kind == OperandKind::kReg;
    auto dst_mask = [&](u16 s) -> u32 {
      return dst_reg ? out_mask(state, static_cast<u16>(d.dst_index + s)) : 0;
    };

    switch (d.op) {
      case Opcode::kNop:
      case Opcode::kExit:
      case Opcode::kBra:
      case Opcode::kSsy:
      case Opcode::kSync:
      case Opcode::kBar:
      case Opcode::kS2r:
      case Opcode::kLdc:
        break;  // no data sources (the guard is handled generically)

      case Opcode::kMov:
        dem.add_operand(d.src[0], dst_mask(0), dst_mask(1), wide);
        break;

      case Opcode::kSel: {
        const u32 lo = dst_mask(0);
        const u32 hi = wide ? dst_mask(1) : 0;
        dem.add_operand(d.src[0], lo, hi, wide);
        dem.add_operand(d.src[1], lo, hi, wide);
        // Selector (predicate or register): consulted iff any dst bit lives.
        dem.add_operand(d.src[2], (lo | hi) ? kAll : 0, 0, false);
        break;
      }

      case Opcode::kIAdd:
      case Opcode::kIMul: {
        // Carry chains propagate upward only: dst bit i depends on source
        // bits [0, i]; any live hi-word bit pulls in the whole lo word
        // through the carry (or partial products).
        if (wide) {
          const u32 hi = dst_mask(1);
          const u32 lo_dem = smear_down(dst_mask(0)) | (hi ? kAll : 0);
          const u32 hi_dem = smear_down(hi);
          dem.add_operand(d.src[0], lo_dem, hi_dem, true);
          dem.add_operand(d.src[1], lo_dem, hi_dem, true);
        } else {
          const u32 sdem = smear_down(dst_mask(0));
          dem.add_operand(d.src[0], sdem, 0, false);
          dem.add_operand(d.src[1], sdem, 0, false);
        }
        break;
      }

      case Opcode::kIMad: {
        // Factors punt to full demand (products mix bits); the accumulator
        // is an addend and carries like IADD.
        if (d.dtype == DType::kU64) {  // IMAD.WIDE: 32x32 factors + 64 acc
          const u32 hi = dst_mask(1);
          const u32 any = dst_mask(0) | hi;
          dem.add_operand(d.src[0], any ? kAll : 0, 0, false);
          dem.add_operand(d.src[1], any ? kAll : 0, 0, false);
          dem.add_operand(d.src[2], smear_down(dst_mask(0)) | (hi ? kAll : 0),
                          smear_down(hi), true);
        } else {
          const u32 dl = dst_mask(0);
          dem.add_operand(d.src[0], dl ? kAll : 0, 0, false);
          dem.add_operand(d.src[1], dl ? kAll : 0, 0, false);
          dem.add_operand(d.src[2], smear_down(dl), 0, false);
        }
        break;
      }

      case Opcode::kIMnmx: {
        const u32 any = dst_mask(0) | (wide ? dst_mask(1) : 0);
        dem.add_operand(d.src[0], any ? kAll : 0, any ? kAll : 0, wide);
        dem.add_operand(d.src[1], any ? kAll : 0, any ? kAll : 0, wide);
        break;
      }

      case Opcode::kISetp:
      case Opcode::kFSetp: {
        // The compare consumes every bit at or below the highest compared
        // bit — the full operand width — but only if the predicate lives.
        const u32 sdem = (state.preds & du.dst_preds) ? kAll : 0;
        dem.add_operand(d.src[0], sdem, sdem, wide);
        dem.add_operand(d.src[1], sdem, sdem, wide);
        break;
      }

      case Opcode::kLop: {
        const auto kind = static_cast<LopKind>(d.sub);
        for (u16 s = 0; s < (wide ? 2 : 1); ++s) {
          const u32 dl = dst_mask(s);
          const DecodedOperand& a = d.src[0];
          const DecodedOperand& b = d.src[1];
          auto imm_half = [&](const DecodedOperand& o) {
            return static_cast<u32>(o.imm >> (32 * s));
          };
          u32 dem_a = dl;
          u32 dem_b = dl;
          if (kind == LopKind::kAnd) {
            // AND with 0 pins the dst bit: the other source bit is dead.
            if (b.is_imm()) dem_a = dl & imm_half(b);
            if (a.is_imm()) dem_b = dl & imm_half(a);
          } else if (kind == LopKind::kOr) {
            // OR with 1 pins the dst bit likewise.
            if (b.is_imm()) dem_a = dl & ~imm_half(b);
            if (a.is_imm()) dem_b = dl & ~imm_half(a);
          }  // XOR/NOT: every consulted source bit feeds its dst bit
          if (a.kind == OperandKind::kReg) {
            dem.add(static_cast<u16>(a.index + s), dem_a);
          }
          if (b.kind == OperandKind::kReg) {
            dem.add(static_cast<u16>(b.index + s), dem_b);
          }
        }
        break;
      }

      case Opcode::kShf: {
        const u32 width = wide ? 64 : 32;
        const u64 dmask =
            static_cast<u64>(dst_mask(0)) |
            (wide ? static_cast<u64>(dst_mask(1)) << 32 : 0);
        const DecodedOperand& amount = d.src[1];
        if (amount.is_imm()) {
          // The executor masks the amount (& 31, or & 63 wide): a shift by
          // 32 wraps to 0, it does not zero the value.
          const u32 k = static_cast<u32>(amount.imm) & (width - 1);
          u64 sdem = 0;
          switch (static_cast<ShiftKind>(d.sub)) {
            case ShiftKind::kLeft:
              sdem = dmask >> k;
              break;
            case ShiftKind::kRightLogical:
              sdem = dmask << k;
              break;
            case ShiftKind::kRightArith:
              sdem = dmask << k;
              // dst bits shifted in from the top replicate the sign bit.
              if (k > 0 && (dmask >> (width - k)) != 0) {
                sdem |= 1ull << (width - 1);
              }
              break;
          }
          if (width == 32) sdem &= 0xffffffffull;
          dem.add_operand(d.src[0], static_cast<u32>(sdem),
                          static_cast<u32>(sdem >> 32), wide);
        } else {
          // Variable amount: punt on the data; the amount register is only
          // consulted in its low log2(width) bits (the executor masks it).
          const u32 any = dmask ? kAll : 0;
          dem.add_operand(d.src[0], any, any, wide);
          dem.add_operand(amount, dmask ? width - 1 : 0, 0, false);
        }
        break;
      }

      case Opcode::kPopc: {
        const u32 any = dst_mask(0) | (wide ? dst_mask(1) : 0);
        dem.add_operand(d.src[0], any ? kAll : 0, any ? kAll : 0, wide);
        break;
      }

      case Opcode::kFAdd:
      case Opcode::kFMul:
      case Opcode::kFMnmx: {
        const u32 sdem = (dst_mask(0) | (wide ? dst_mask(1) : 0)) ? kAll : 0;
        dem.add_operand(d.src[0], sdem, sdem, wide);
        dem.add_operand(d.src[1], sdem, sdem, wide);
        break;
      }

      case Opcode::kFFma: {
        const u32 sdem = (dst_mask(0) | (wide ? dst_mask(1) : 0)) ? kAll : 0;
        dem.add_operand(d.src[0], sdem, sdem, wide);
        dem.add_operand(d.src[1], sdem, sdem, wide);
        dem.add_operand(d.src[2], sdem, sdem, wide);
        break;
      }

      case Opcode::kMufu: {
        dem.add_operand(d.src[0], dst_mask(0) ? kAll : 0, 0, false);
        break;
      }

      case Opcode::kF2I: {
        // dtype names the source float type; the dst is a single register.
        const u32 sdem = dst_mask(0) ? kAll : 0;
        dem.add_operand(d.src[0], sdem, sdem, wide);
        break;
      }

      case Opcode::kI2F: {
        const u32 sdem = (dst_mask(0) | (wide ? dst_mask(1) : 0)) ? kAll : 0;
        dem.add_operand(d.src[0], sdem, 0, false);
        break;
      }

      case Opcode::kF2F: {
        if (d.dtype == DType::kF64) {  // widen: F32 source, pair dst
          const u32 sdem = (dst_mask(0) | dst_mask(1)) ? kAll : 0;
          dem.add_operand(d.src[0], sdem, 0, false);
        } else {  // narrow: F64 source pair, single dst
          const u32 sdem = dst_mask(0) ? kAll : 0;
          dem.add_operand(d.src[0], sdem, sdem, true);
        }
        break;
      }

      // Memory addresses are always fully demanded, regardless of dst
      // liveness: a flipped address can trap (misaligned/OOB), which is
      // architecturally visible even when the transferred value is dead.
      case Opcode::kLdg:
        dem.add_operand(d.src[0], kAll, kAll, true);
        break;
      case Opcode::kLds:
        dem.add_operand(d.src[0], kAll, 0, false);
        break;

      case Opcode::kStg:
      case Opcode::kSts: {
        dem.add_operand(d.src[0], kAll, kAll, d.op == Opcode::kStg);
        // Store data: the executor copies only mem_width bytes, so narrow
        // stores consume only the low bits of the data register.
        if (d.src[2].kind == OperandKind::kReg) {
          if (d.mem_width == 8) {
            dem.add(d.src[2].index, kAll);
            dem.add(static_cast<u16>(d.src[2].index + 1), kAll);
          } else {
            const u32 m =
                d.mem_width >= 4 ? kAll : (1u << (8 * d.mem_width)) - 1;
            dem.add(d.src[2].index, m);
          }
        }
        break;
      }

      case Opcode::kAtomG:
      case Opcode::kAtomS: {
        // Atomics mutate memory whatever happens to the old-value dst.
        dem.add_operand(d.src[0], kAll, kAll, d.op == Opcode::kAtomG);
        dem.add_operand(d.src[1], kAll, kAll, wide);
        if (static_cast<sim::AtomKind>(d.sub) == sim::AtomKind::kCas) {
          dem.add_operand(d.src[2], kAll, kAll, wide);
        }
        break;
      }

      // Cross-lane readers: other lanes consume this lane's value, so punt
      // to full demand unconditionally.
      case Opcode::kShfl:
        if (d.src[0].kind == OperandKind::kReg) dem.add(d.src[0].index, kAll);
        dem.add_operand(d.src[1], kAll, 0, false);
        break;
      case Opcode::kVote:
        dem.add_operand(d.src[0], kAll, 0, false);
        break;
      case Opcode::kHmma: {
        const u16 spans[3] = {4, 2, 4};  // A, B, C fragments
        for (int s = 0; s < 3; ++s) {
          if (d.src[s].kind != OperandKind::kReg) continue;
          for (u16 i = 0; i < spans[s]; ++i) {
            dem.add(static_cast<u16>(d.src[s].index + i), kAll);
          }
        }
        break;
      }
    }
  }

  const sim::DecodedProgram* dec_;
  u32 num_regs_;
};

}  // namespace

BitLiveness BitLiveness::compute(const sim::Program& program, const Cfg& cfg,
                                 const Liveness& reg_live) {
  BitLiveness bl;
  bl.dec_ = &program.decoded();
  bl.num_regs_ = program.num_regs();
  const u32 n = static_cast<u32>(bl.dec_->size());
  bl.live_out_regs_.assign(static_cast<std::size_t>(n) * bl.num_regs_, 0);
  bl.live_out_preds_.assign(n, 0);
  if (cfg.empty()) return bl;

  const auto& blocks = cfg.blocks();
  const u32 nblocks = static_cast<u32>(blocks.size());
  const Transfer transfer(*bl.dec_, bl.num_regs_);

  // Backward fixpoint at block granularity. The transfer is not gen/kill
  // (source demand depends on the destination's live-out masks), so each
  // iteration re-walks the block; masks grow monotonically, so this
  // terminates.
  std::vector<MaskState> block_in(nblocks, MaskState(bl.num_regs_));
  bool changed = true;
  while (changed) {
    changed = false;
    for (u32 b = nblocks; b-- > 0;) {
      MaskState out(bl.num_regs_);
      for (u32 succ : blocks[b].succs) out.merge(block_in[succ]);
      for (u32 pc = blocks[b].last;; --pc) {
        transfer.apply(pc, out, nullptr);
        if (pc == blocks[b].first) break;
      }
      if (block_in[b].merge(out)) changed = true;
    }
  }

  // In-block backward walk to per-pc live-out, intersected with the
  // register-level result: both over-approximate the truly-live set, so
  // their intersection does too — and can only be tighter than either.
  for (u32 b = 0; b < nblocks; ++b) {
    MaskState current(bl.num_regs_);
    for (u32 succ : blocks[b].succs) current.merge(block_in[succ]);
    for (u32 pc = blocks[b].last;; --pc) {
      u32* row = bl.live_out_regs_.data() +
                 static_cast<std::size_t>(pc) * bl.num_regs_;
      for (u16 r = 0; r < bl.num_regs_; ++r) {
        row[r] = reg_live.reg_live_out(pc, r) ? current.regs[r] : 0;
      }
      u8 preds = current.preds;
      for (u8 p = 0; p < sim::kPredT; ++p) {
        if (!reg_live.pred_live_out(pc, p)) {
          preds &= static_cast<u8>(~(1u << p));
        }
      }
      bl.live_out_preds_[pc] = preds;
      transfer.apply(pc, current, nullptr);
      if (pc == blocks[b].first) break;
    }
  }
  return bl;
}

u32 BitLiveness::src_demand_mask(u32 pc, u16 r) const {
  if (r == sim::kRegZ || r >= num_regs_ || !dec_) return 0;
  MaskState state(num_regs_);
  const u32* row =
      live_out_regs_.data() + static_cast<std::size_t>(pc) * num_regs_;
  for (u16 i = 0; i < num_regs_; ++i) state.regs[i] = row[i];
  state.preds = live_out_preds_[pc];
  std::vector<u32> demand(num_regs_, 0);
  Transfer(*dec_, num_regs_).apply(pc, state, &demand);
  return demand[r];
}

}  // namespace gfi::sa
