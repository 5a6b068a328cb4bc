#include "sa/dataflow.h"

#include <algorithm>

namespace gfi::sa {

using sim::DecodedProgram;
using sim::DefUse;

namespace {

/// Packed variable index of predicate `p` in a space of `num_regs` regs.
u32 pred_var(u32 num_regs, u8 p) { return num_regs + p; }

}  // namespace

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

Liveness Liveness::compute(const sim::Program& program, const Cfg& cfg) {
  Liveness live;
  live.num_regs_ = program.num_regs();
  const DecodedProgram& dec = program.decoded();
  const u32 n = static_cast<u32>(dec.size());
  live.live_out_.assign(n, BitSet());
  if (cfg.empty()) return live;

  const u32 nvars = live.num_regs_ + (sim::kNumPredicates - 1);
  const auto& blocks = cfg.blocks();
  const u32 nblocks = static_cast<u32>(blocks.size());

  // Per-block upward-exposed uses and unguarded kills.
  std::vector<BitSet> use(nblocks, BitSet(nvars));
  std::vector<BitSet> def(nblocks, BitSet(nvars));
  for (u32 b = 0; b < nblocks; ++b) {
    BitSet killed(nvars);
    for (u32 pc = blocks[b].first; pc <= blocks[b].last; ++pc) {
      const DefUse& du = dec.def_use(pc);
      for (u16 r : du.src_regs) {
        if (r < live.num_regs_ && !killed.test(r)) use[b].set(r);
      }
      for (u8 p = 0; p < sim::kPredT; ++p) {
        if ((du.src_preds >> p) & 1u) {
          const u32 v = pred_var(live.num_regs_, p);
          if (!killed.test(v)) use[b].set(v);
        }
      }
      if (!dec.guarded(pc)) {
        for (u16 r : du.dst_regs) {
          if (r < live.num_regs_) {
            killed.set(r);
            def[b].set(r);
          }
        }
        for (u8 p = 0; p < sim::kPredT; ++p) {
          if ((du.dst_preds >> p) & 1u) {
            const u32 v = pred_var(live.num_regs_, p);
            killed.set(v);
            def[b].set(v);
          }
        }
      }
    }
  }

  // Backward fixpoint at block granularity.
  std::vector<BitSet> block_in(nblocks, BitSet(nvars));
  std::vector<BitSet> block_out(nblocks, BitSet(nvars));
  bool changed = true;
  while (changed) {
    changed = false;
    for (u32 i = nblocks; i-- > 0;) {
      for (u32 succ : blocks[i].succs) block_out[i].merge(block_in[succ]);
      BitSet in = block_out[i];
      in.subtract(def[i]);
      in.merge(use[i]);
      if (block_in[i].merge(in)) changed = true;
    }
  }

  // In-block backward walk to per-instruction live-out.
  for (u32 b = 0; b < nblocks; ++b) {
    BitSet current = block_out[b];
    for (u32 pc = blocks[b].last;; --pc) {
      live.live_out_[pc] = current;
      const DefUse& du = dec.def_use(pc);
      if (!dec.guarded(pc)) {
        for (u16 r : du.dst_regs) {
          if (r < live.num_regs_) current.reset(r);
        }
        for (u8 p = 0; p < sim::kPredT; ++p) {
          if ((du.dst_preds >> p) & 1u) {
            current.reset(pred_var(live.num_regs_, p));
          }
        }
      }
      for (u16 r : du.src_regs) {
        if (r < live.num_regs_) current.set(r);
      }
      for (u8 p = 0; p < sim::kPredT; ++p) {
        if ((du.src_preds >> p) & 1u) current.set(pred_var(live.num_regs_, p));
      }
      if (pc == blocks[b].first) break;
    }
  }
  return live;
}

sim::LiveRows live_in_rows(const sim::Program& program) {
  const Cfg cfg = Cfg::build(program);
  const Liveness live = Liveness::compute(program, cfg);
  const DecodedProgram& dec = program.decoded();
  const u32 num_regs = program.num_regs();
  sim::LiveRows rows;
  rows.words = sim::row_mask_words(num_regs);
  rows.masks.assign(dec.size() * rows.words, 0u);
  for (u32 pc = 0; pc < dec.size(); ++pc) {
    const DefUse& du = dec.def_use(pc);
    u32* mask = rows.masks.data() + pc * rows.words;
    for (u16 r = 0; r < num_regs; ++r) {
      const bool killed = !dec.guarded(pc) && du.dst_regs.contains(r);
      if (du.src_regs.contains(r) || (live.reg_live_out(pc, r) && !killed)) {
        mask[r / 32] |= 1u << (r % 32);
      }
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// ReachingDefs
// ---------------------------------------------------------------------------

ReachingDefs ReachingDefs::compute(const sim::Program& program,
                                   const Cfg& cfg) {
  ReachingDefs rd;
  rd.dec_ = &program.decoded();
  rd.cfg_ = &cfg;
  rd.num_regs_ = program.num_regs();
  rd.num_vars_ = rd.num_regs_ + (sim::kNumPredicates - 1);
  const u32 n = static_cast<u32>(rd.dec_->size());
  rd.def_ids_at_.assign(n, {});
  rd.defs_of_var_.assign(rd.num_vars_, {});
  rd.pseudo_def_of_var_.assign(rd.num_vars_, 0);
  if (cfg.empty()) return rd;

  // Pseudo definitions model the zero-initialised launch state.
  for (u32 v = 0; v < rd.num_vars_; ++v) {
    rd.pseudo_def_of_var_[v] = static_cast<u32>(rd.defs_.size());
    rd.defs_of_var_[v].push_back(rd.pseudo_def_of_var_[v]);
    rd.defs_.push_back(Def{0, v, true});
  }
  for (u32 pc = 0; pc < n; ++pc) {
    const DefUse& du = rd.dec_->def_use(pc);
    for (u16 r : du.dst_regs) {
      if (r >= rd.num_regs_) continue;
      const u32 id = static_cast<u32>(rd.defs_.size());
      rd.defs_.push_back(Def{pc, r, false});
      rd.defs_of_var_[r].push_back(id);
      rd.def_ids_at_[pc].push_back(id);
    }
    for (u8 p = 0; p < sim::kPredT; ++p) {
      if (!((du.dst_preds >> p) & 1u)) continue;
      const u32 v = pred_var(rd.num_regs_, p);
      const u32 id = static_cast<u32>(rd.defs_.size());
      rd.defs_.push_back(Def{pc, v, false});
      rd.defs_of_var_[v].push_back(id);
      rd.def_ids_at_[pc].push_back(id);
    }
  }

  // Forward fixpoint at block granularity.
  const auto& blocks = cfg.blocks();
  const u32 nblocks = static_cast<u32>(blocks.size());
  const u32 ndefs = static_cast<u32>(rd.defs_.size());
  rd.block_in_.assign(nblocks, BitSet(ndefs));
  for (u32 v = 0; v < rd.num_vars_; ++v) {
    rd.block_in_[0].set(rd.pseudo_def_of_var_[v]);
  }
  std::vector<u32> worklist{0};
  while (!worklist.empty()) {
    const u32 b = worklist.back();
    worklist.pop_back();
    BitSet out = rd.block_in_[b];
    for (u32 pc = blocks[b].first; pc <= blocks[b].last; ++pc) {
      rd.apply(out, pc);
    }
    for (u32 succ : blocks[b].succs) {
      if (rd.block_in_[succ].merge(out)) worklist.push_back(succ);
    }
  }
  return rd;
}

void ReachingDefs::apply(BitSet& state, u32 pc) const {
  const bool guarded = dec_->guarded(pc);
  for (u32 id : def_ids_at_[pc]) {
    if (!guarded) {
      for (u32 other : defs_of_var_[defs_[id].var]) state.reset(other);
    }
    state.set(id);
  }
}

BitSet ReachingDefs::state_at(u32 pc) const {
  const auto& block = cfg_->blocks()[cfg_->block_of(pc)];
  BitSet state = block_in_[cfg_->block_of(pc)];
  for (u32 q = block.first; q < pc; ++q) apply(state, q);
  return state;
}

bool ReachingDefs::reg_may_be_uninit(u32 pc, u16 r) const {
  if (r == sim::kRegZ || r >= num_regs_) return false;
  return state_at(pc).test(pseudo_def_of_var_[r]);
}

bool ReachingDefs::pred_may_be_uninit(u32 pc, u8 p) const {
  if (p >= sim::kPredT) return false;
  return state_at(pc).test(pseudo_def_of_var_[pred_var(num_regs_, p)]);
}

std::vector<u32> ReachingDefs::reaching_defs(u32 pc, u16 r) const {
  std::vector<u32> pcs;
  if (r == sim::kRegZ || r >= num_regs_) return pcs;
  const BitSet state = state_at(pc);
  for (u32 id : defs_of_var_[r]) {
    if (!defs_[id].pseudo && state.test(id)) pcs.push_back(defs_[id].pc);
  }
  std::sort(pcs.begin(), pcs.end());
  return pcs;
}

std::vector<u32> ReachingDefs::reaching_pred_defs(u32 pc, u8 p) const {
  std::vector<u32> pcs;
  if (p >= sim::kPredT) return pcs;
  const BitSet state = state_at(pc);
  for (u32 id : defs_of_var_[pred_var(num_regs_, p)]) {
    if (!defs_[id].pseudo && state.test(id)) pcs.push_back(defs_[id].pc);
  }
  std::sort(pcs.begin(), pcs.end());
  return pcs;
}

// ---------------------------------------------------------------------------
// DefUseChains
// ---------------------------------------------------------------------------

DefUseChains DefUseChains::compute(const sim::Program& program, const Cfg& cfg,
                                   const ReachingDefs& reaching) {
  DefUseChains chains;
  const DecodedProgram& dec = program.decoded();
  const u32 n = static_cast<u32>(dec.size());
  chains.uses.assign(n, {});
  if (cfg.empty()) return chains;

  for (u32 pc = 0; pc < n; ++pc) {
    if (!cfg.pc_reachable(pc)) continue;
    const DefUse& du = dec.def_use(pc);
    for (u16 r : du.src_regs) {
      for (u32 def_pc : reaching.reaching_defs(pc, r)) {
        chains.uses[def_pc].push_back(pc);
      }
    }
    for (u8 p = 0; p < sim::kPredT; ++p) {
      if (!((du.src_preds >> p) & 1u)) continue;
      for (u32 def_pc : reaching.reaching_pred_defs(pc, p)) {
        chains.uses[def_pc].push_back(pc);
      }
    }
  }
  for (auto& list : chains.uses) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return chains;
}

}  // namespace gfi::sa
