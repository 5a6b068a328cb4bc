// Threaded-code dispatch tier: the hook-free interpreter over the handler
// ids DecodedProgram's lowering pass assigned per pc.
//
// Each slot jumps straight from the predecoded handler id to a specialized
// handler that already knows the op shape (decode-proven dtype/width/
// operand kinds) and only validates the runtime half of each precondition.
// ALU ops, S2R, LDC and 64-bit MOV run the exec_vec.h row kernels under any
// exec mask: a row kernel cannot trap and writes only its destination
// row(s) or predicate bits, so thr::alu runs it over all 32 lanes and puts
// back the lanes outside the mask (masked row rule). Memory rows (shared
// atomics included, lane by lane in lane order) run their kernel on the
// executing lanes once it has proven none of them can trap; a zero-lane
// access only advances the pc. What is left falls back to the generic
// per-lane loop in Engine::dispatch, counted in
// LaunchResult::generic_warp_instrs: a memory row that could trap or meets
// a pending memory fault, LDC with an out-of-range index, and the ops no
// handler covers (global atomics, SHFL, VOTE, HMMA, MUFU, conversions
// other than I2F, 64-bit arithmetic, predicate sources, narrow or wide
// memory accesses). Results, traps, cycles, and dynamic-instruction counts are
// bit-identical to the instrumented tier (tests/test_exec_rows.cc and
// tests/test_exec_paths.cc assert it; CI diffs campaign journals
// byte-for-byte).
//
// Dispatch is one switch on the handler id; -Wswitch (in -Wall) keeps it
// exhaustive over the Handler enum.
//
// Armed runs (a strike pending) use the same handlers: the engine runs only
// the struck slot itself on the instrumented tier.
//
// Everything here is duck-typed over the engine type (templates over
// EngineT/CtaT): Simulator::Engine and Simulator::Cta are private nested
// types of Simulator, reachable only by deduction. The engine provides
// mem/opts/params/block/grid, dyn_warp/dyn_thread/generic_warp,
// count_profile(), recorder/record_row(), and the generic dispatch() the
// fallbacks delegate to.
#pragma once

#include <bit>
#include <cstring>

#include "common/types.h"
#include "sassim/decoded.h"
#include "sassim/exec_vec.h"
#include "sassim/trap.h"
#include "sassim/warp.h"

namespace gfi::sim::exec {

namespace thr {

/// Exec mask of a hook-free slot: nothing can mutate predicates between
/// issue and execute, so one guard scan suffices for guarded instructions,
/// and @PT executes the active mask outright.
[[gnu::always_inline]] inline u32 exec_mask(const WarpState& warp,
                                            const DecodedInstr& instr) {
  return instr.guarded
             ? warp.guard_mask_fast(instr.guard_pred, instr.guard_negated)
             : warp.active();
}

/// Per-slot accounting, identical to the instrumented tier's exec_instr
/// preamble; returns the slot's exec mask. Every handler runs this exactly
/// once before touching state, so dynamic counts and native profiles cannot
/// drift across tiers.
template <typename EngineT>
[[gnu::always_inline]] inline u32 account(EngineT& eng,
                                          const WarpState& warp,
                                          const DecodedInstr& instr) {
  const u32 exec = exec_mask(warp, instr);
  ++eng.dyn_warp;
  eng.dyn_thread += static_cast<u64>(std::popcount(exec));
  if (eng.opts.profile) eng.count_profile(instr, exec);
  return exec;
}

/// Hands an accounted slot to the generic lane loop.
template <typename EngineT, typename CtaT>
inline TrapKind fallback(EngineT& eng, CtaT& cta, WarpState& warp,
                         const DecodedInstr& instr, u32 exec) {
  ++eng.generic_warp;
  return eng.dispatch(cta, warp, instr, exec);
}

/// Shared ALU handler shape: the decode-proven row kernel runs over all 32
/// lanes. Under a partial mask the rows it writes — the destination (the
/// pair of a wide op) or, for ISETP/FSETP, the predicate bytes — are saved
/// first and the lanes outside the mask put back after, which reproduces
/// the generic loop: kernels cannot trap, write nothing else, and read
/// each lane's sources only for that lane. A zero-lane slot only advances
/// the pc, and an RZ destination drops every write.
template <typename EngineT, typename CtaT, typename RowKernel>
[[gnu::always_inline]] inline TrapKind alu(EngineT& eng,
                                           [[maybe_unused]] CtaT& cta,
                                           WarpState& warp,
                                           const DecodedInstr& instr,
                                           RowKernel&& kernel) {
  const u32 exec = account(eng, warp, instr);
  if (exec == kFullMask) {
    kernel(warp, instr);
  } else if (exec != 0) {
    const u32 keep = ~exec;
    if (instr.op == Opcode::kISetp || instr.op == Opcode::kFSetp) {
      u8 saved[kWarpSize];
      for (u32 l = 0; l < kWarpSize; ++l) saved[l] = warp.pred_bits(l);
      kernel(warp, instr);
      for (u32 rest = keep; rest != 0; rest &= rest - 1) {
        const auto l = static_cast<u32>(std::countr_zero(rest));
        warp.set_pred_bits(l, saved[l]);
      }
    } else if (instr.dst_index != kRegZ) {
      const u32 rows = instr.wide ? 2 : 1;
      u32 saved[2][kWarpSize];
      for (u32 r = 0; r < rows; ++r) {
        std::memcpy(saved[r], warp.row(static_cast<u16>(instr.dst_index + r)),
                    sizeof(saved[r]));
      }
      kernel(warp, instr);
      for (u32 r = 0; r < rows; ++r) {
        u32* row = warp.row(static_cast<u16>(instr.dst_index + r));
        for (u32 rest = keep; rest != 0; rest &= rest - 1) {
          const auto l = static_cast<u32>(std::countr_zero(rest));
          row[l] = saved[r][l];
        }
      }
    }
  }
  ++warp.pc;
  return TrapKind::kNone;
}

/// Shared memory handler shape: `row(exec)` runs the access when it can
/// prove no executing lane traps and returns false untouched otherwise;
/// the generic loop then gives the lane-order trap and partial progress.
template <typename EngineT, typename CtaT, typename RowFn>
[[gnu::always_inline]] inline TrapKind mem_row(EngineT& eng, CtaT& cta,
                                               WarpState& warp,
                                               const DecodedInstr& instr,
                                               RowFn&& row) {
  const u32 exec = account(eng, warp, instr);
  if (exec == 0 || row(exec)) {
    ++warp.pc;
    return TrapKind::kNone;
  }
  return fallback(eng, cta, warp, instr, exec);
}

// ---- handlers --------------------------------------------------------------

template <typename EngineT, typename CtaT>
inline TrapKind h_generic(EngineT& eng, CtaT& cta, WarpState& warp,
                          const DecodedInstr& instr) {
  return fallback(eng, cta, warp, instr, account(eng, warp, instr));
}

template <typename EngineT, typename CtaT>
inline TrapKind h_exit(EngineT& eng, [[maybe_unused]] CtaT& cta,
                       WarpState& warp, const DecodedInstr& instr) {
  const u32 exec = account(eng, warp, instr);
  const u32 rest = warp.active() & ~exec;
  warp.retire_lanes(exec);
  if (rest != 0) ++warp.pc;
  return TrapKind::kNone;
}

/// Mirrors the generic dispatcher's BRA case exactly.
template <typename EngineT, typename CtaT>
inline TrapKind h_bra(EngineT& eng, [[maybe_unused]] CtaT& cta,
                      WarpState& warp, const DecodedInstr& instr) {
  const u32 exec = account(eng, warp, instr);
  const u32 not_taken = warp.active() & ~exec;
  if (exec == 0) {
    ++warp.pc;
  } else if (not_taken == 0) {
    warp.pc = instr.target;
  } else {
    warp.stack().push_back({exec, instr.target, StackEntry::Kind::kDiv});
    warp.set_active(not_taken);
    ++warp.pc;
  }
  return TrapKind::kNone;
}

template <typename EngineT, typename CtaT>
inline TrapKind h_sync(EngineT& eng, CtaT& cta, WarpState& warp,
                       const DecodedInstr& instr) {
  (void)account(eng, warp, instr);
  if (warp.stack().empty()) {
    return eng.fire(TrapKind::kIllegalInstruction, cta, warp);
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

/// Mirrors the generic dispatcher's SSY case: it pushes the active mask
/// whatever the guard.
template <typename EngineT, typename CtaT>
inline TrapKind h_ssy(EngineT& eng, [[maybe_unused]] CtaT& cta,
                      WarpState& warp, const DecodedInstr& instr) {
  (void)account(eng, warp, instr);
  warp.stack().push_back({warp.active(), instr.target, StackEntry::Kind::kSsy});
  ++warp.pc;
  return TrapKind::kNone;
}

template <typename EngineT, typename CtaT>
inline TrapKind h_bar(EngineT& eng, CtaT& cta, WarpState& warp,
                      const DecodedInstr& instr) {
  (void)account(eng, warp, instr);
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

template <typename EngineT, typename CtaT>
inline TrapKind h_mov(EngineT& eng, CtaT& cta, WarpState& warp,
                      const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_mov(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_mov64(EngineT& eng, CtaT& cta, WarpState& warp,
                        const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_mov64(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_s2r(EngineT& eng, CtaT& cta, WarpState& warp,
                      const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [&eng, &cta](WarpState& w, const DecodedInstr& i) {
               vec_s2r(w, i, eng.block, eng.grid, cta.ctaid);
             });
}

/// An out-of-range parameter index traps in the generic loop, before any
/// lane runs.
template <typename EngineT, typename CtaT>
inline TrapKind h_ldc(EngineT& eng, CtaT& cta, WarpState& warp,
                      const DecodedInstr& instr) {
  const u64 index = instr.src[0].imm;
  if (index >= eng.params.size()) {
    return fallback(eng, cta, warp, instr, account(eng, warp, instr));
  }
  const u64 value = eng.params[index];
  return alu(eng, cta, warp, instr,
             [value](WarpState& w, const DecodedInstr& i) {
               vec_broadcast(w, i, value);
             });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_sel(EngineT& eng, CtaT& cta, WarpState& warp,
                      const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_sel(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_iadd(EngineT& eng, CtaT& cta, WarpState& warp,
                       const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_iadd(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_imul(EngineT& eng, CtaT& cta, WarpState& warp,
                       const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_imul(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_imad32(EngineT& eng, CtaT& cta, WarpState& warp,
                         const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_imad32(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_imad_wide(EngineT& eng, CtaT& cta, WarpState& warp,
                            const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_imad_wide(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_imnmx(EngineT& eng, CtaT& cta, WarpState& warp,
                        const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_imnmx(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_isetp(EngineT& eng, CtaT& cta, WarpState& warp,
                        const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_isetp(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_lop(EngineT& eng, CtaT& cta, WarpState& warp,
                      const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_lop(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_shf(EngineT& eng, CtaT& cta, WarpState& warp,
                      const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_shf(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_popc(EngineT& eng, CtaT& cta, WarpState& warp,
                       const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_popc(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_farith(EngineT& eng, CtaT& cta, WarpState& warp,
                         const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_farith(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_ffma(EngineT& eng, CtaT& cta, WarpState& warp,
                       const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_ffma(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_fsetp(EngineT& eng, CtaT& cta, WarpState& warp,
                        const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_fsetp(w, i); });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_i2f(EngineT& eng, CtaT& cta, WarpState& warp,
                      const DecodedInstr& instr) {
  return alu(eng, cta, warp, instr,
             [](WarpState& w, const DecodedInstr& i) { vec_i2f(w, i); });
}

/// A golden run records its global accesses (LaunchOptions::record_tail):
/// a load before the row runs, which may overwrite its address row (the
/// generic loop redoing it records it again, which changes nothing), a
/// store once it has run.
template <typename EngineT, typename CtaT>
inline TrapKind h_ldg_row(EngineT& eng, CtaT& cta, WarpState& warp,
                          const DecodedInstr& instr) {
  return mem_row(eng, cta, warp, instr, [&](u32 exec) {
    if (eng.recorder) [[unlikely]] eng.record_row(cta, warp, instr, exec);
    return eng.mem.fault_free() && ldg_row(warp, instr, eng.mem, exec);
  });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_stg_row(EngineT& eng, CtaT& cta, WarpState& warp,
                          const DecodedInstr& instr) {
  return mem_row(eng, cta, warp, instr, [&](u32 exec) {
    if (!eng.mem.fault_free() || !stg_row(warp, instr, eng.mem, exec)) {
      return false;
    }
    if (eng.recorder) [[unlikely]] eng.record_row(cta, warp, instr, exec);
    return true;
  });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_lds_row(EngineT& eng, CtaT& cta, WarpState& warp,
                          const DecodedInstr& instr) {
  return mem_row(eng, cta, warp, instr, [&](u32 exec) {
    return lds_row(warp, instr, cta.shared.data(), cta.shared.size(), exec);
  });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_sts_row(EngineT& eng, CtaT& cta, WarpState& warp,
                          const DecodedInstr& instr) {
  return mem_row(eng, cta, warp, instr, [&](u32 exec) {
    return sts_row(warp, instr, cta.shared.data(), cta.shared.size(), exec);
  });
}

template <typename EngineT, typename CtaT>
inline TrapKind h_atoms_row(EngineT& eng, CtaT& cta, WarpState& warp,
                            const DecodedInstr& instr) {
  return mem_row(eng, cta, warp, instr, [&](u32 exec) {
    return atoms_row(warp, instr, cta.shared.data(), cta.shared.size(), exec);
  });
}

}  // namespace thr

/// One dynamic warp instruction on the threaded tier: direct dispatch on
/// the predecoded handler id. Each handler does its own exec-mask
/// computation and accounting.
template <typename EngineT, typename CtaT>
inline TrapKind threaded_dispatch(EngineT& eng, CtaT& cta, WarpState& warp,
                                  const DecodedInstr& instr) {
  using namespace thr;
  switch (instr.handler) {
    case Handler::kGeneric:   return h_generic(eng, cta, warp, instr);
    case Handler::kExit:      return h_exit(eng, cta, warp, instr);
    case Handler::kBra:       return h_bra(eng, cta, warp, instr);
    case Handler::kSync:      return h_sync(eng, cta, warp, instr);
    case Handler::kBar:       return h_bar(eng, cta, warp, instr);
    case Handler::kSsy:       return h_ssy(eng, cta, warp, instr);
    case Handler::kMov:       return h_mov(eng, cta, warp, instr);
    case Handler::kMov64:     return h_mov64(eng, cta, warp, instr);
    case Handler::kS2r:       return h_s2r(eng, cta, warp, instr);
    case Handler::kLdc:       return h_ldc(eng, cta, warp, instr);
    case Handler::kSel:       return h_sel(eng, cta, warp, instr);
    case Handler::kIAdd:      return h_iadd(eng, cta, warp, instr);
    case Handler::kIMul:      return h_imul(eng, cta, warp, instr);
    case Handler::kIMad32:    return h_imad32(eng, cta, warp, instr);
    case Handler::kIMadWide:  return h_imad_wide(eng, cta, warp, instr);
    case Handler::kIMnmx:     return h_imnmx(eng, cta, warp, instr);
    case Handler::kISetp:     return h_isetp(eng, cta, warp, instr);
    case Handler::kLop:       return h_lop(eng, cta, warp, instr);
    case Handler::kShf:       return h_shf(eng, cta, warp, instr);
    case Handler::kPopc:      return h_popc(eng, cta, warp, instr);
    case Handler::kFArith:    return h_farith(eng, cta, warp, instr);
    case Handler::kFFma:      return h_ffma(eng, cta, warp, instr);
    case Handler::kFSetp:     return h_fsetp(eng, cta, warp, instr);
    case Handler::kI2F:       return h_i2f(eng, cta, warp, instr);
    case Handler::kLdgRow:    return h_ldg_row(eng, cta, warp, instr);
    case Handler::kStgRow:    return h_stg_row(eng, cta, warp, instr);
    case Handler::kLdsRow:    return h_lds_row(eng, cta, warp, instr);
    case Handler::kStsRow:    return h_sts_row(eng, cta, warp, instr);
    case Handler::kAtomsRow:  return h_atoms_row(eng, cta, warp, instr);
  }
  return h_generic(eng, cta, warp, instr);  // unreachable
}

}  // namespace gfi::sim::exec
