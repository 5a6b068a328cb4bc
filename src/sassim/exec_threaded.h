// Threaded-code dispatch tier: the hook-free interpreter over the handler
// ids DecodedProgram's lowering pass assigned per pc.
//
// Each slot jumps straight from the predecoded handler id to a specialized
// handler that already knows the op shape (decode-proven dtype/width/
// operand kinds) and only validates the runtime half of each precondition
// (full active mask, empty fault map). Full-mask rows run the exec_vec.h
// SIMD row kernels, whose lane arithmetic is expression-identical to the
// generic per-lane loop in Engine::dispatch; every other shape (guard-
// masked lanes, a row that could trap, a pending memory fault, an op no
// handler covers) falls back to that loop. Results, traps, cycles, and
// dynamic-instruction counts are bit-identical to the instrumented tier
// (tests/test_exec_paths.cc asserts it per workload; CI diffs campaign
// journals byte-for-byte).
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
// mem/opts, dyn_warp/dyn_thread, count_profile(), fire(), and the
// generic dispatch() the fallbacks delegate to.
#pragma once

#include <bit>

#include "common/types.h"
#include "sassim/decoded.h"
#include "sassim/exec_vec.h"
#include "sassim/trap.h"
#include "sassim/warp.h"

namespace gfi::sim::exec {

namespace thr {

inline constexpr u32 kFullMask = 0xffffffffu;

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
/// preamble. Every handler runs this exactly once before touching state, so
/// dynamic counts and native profiles cannot drift across tiers.
template <typename EngineT>
[[gnu::always_inline]] inline void account(EngineT& eng,
                                           const DecodedInstr& instr,
                                           u32 exec) {
  ++eng.dyn_warp;
  eng.dyn_thread += static_cast<u64>(std::popcount(exec));
  if (eng.opts.profile) eng.count_profile(instr, exec);
}

/// Shared ALU handler shape: full-mask rows run the decode-proven exec_vec
/// kernel; anything else (guard-masked lanes) delegates to the generic
/// dispatcher, which recomputes nothing observable.
template <typename EngineT, typename CtaT, typename RowKernel>
[[gnu::always_inline]] inline TrapKind alu(EngineT& eng, CtaT& cta,
                                           WarpState& warp,
                                           const DecodedInstr& instr,
                                           RowKernel&& kernel) {
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
  if (exec == kFullMask) {
    kernel(warp, instr);
    ++warp.pc;
    return TrapKind::kNone;
  }
  return eng.dispatch(cta, warp, instr, exec);
}

// ---- handlers --------------------------------------------------------------

template <typename EngineT, typename CtaT>
inline TrapKind h_generic(EngineT& eng, CtaT& cta, WarpState& warp,
                          const DecodedInstr& instr) {
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
  return eng.dispatch(cta, warp, instr, exec);
}

template <typename EngineT, typename CtaT>
inline TrapKind h_exit(EngineT& eng, [[maybe_unused]] CtaT& cta,
                       WarpState& warp, const DecodedInstr& instr) {
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
  const u32 rest = warp.active() & ~exec;
  warp.retire_lanes(exec);
  if (rest != 0) ++warp.pc;
  return TrapKind::kNone;
}

/// Mirrors the generic dispatcher's BRA case exactly.
template <typename EngineT, typename CtaT>
inline TrapKind h_bra(EngineT& eng, [[maybe_unused]] CtaT& cta,
                      WarpState& warp, const DecodedInstr& instr) {
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
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
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
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

template <typename EngineT, typename CtaT>
inline TrapKind h_bar(EngineT& eng, CtaT& cta, WarpState& warp,
                      const DecodedInstr& instr) {
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
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

template <typename EngineT, typename CtaT>
inline TrapKind h_ldg_row(EngineT& eng, CtaT& cta, WarpState& warp,
                          const DecodedInstr& instr) {
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
  if (exec == kFullMask && eng.mem.fault_free() &&
      ldg_row(warp, instr, eng.mem)) {
    ++warp.pc;
    return TrapKind::kNone;
  }
  return eng.dispatch(cta, warp, instr, exec);
}

template <typename EngineT, typename CtaT>
inline TrapKind h_stg_row(EngineT& eng, CtaT& cta, WarpState& warp,
                          const DecodedInstr& instr) {
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
  if (exec == kFullMask && eng.mem.fault_free() &&
      stg_row(warp, instr, eng.mem)) {
    ++warp.pc;
    return TrapKind::kNone;
  }
  return eng.dispatch(cta, warp, instr, exec);
}

template <typename EngineT, typename CtaT>
inline TrapKind h_lds_row(EngineT& eng, CtaT& cta, WarpState& warp,
                          const DecodedInstr& instr) {
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
  if (exec == kFullMask &&
      lds_row(warp, instr, cta.shared.data(), cta.shared.size())) {
    ++warp.pc;
    return TrapKind::kNone;
  }
  return eng.dispatch(cta, warp, instr, exec);
}

template <typename EngineT, typename CtaT>
inline TrapKind h_sts_row(EngineT& eng, CtaT& cta, WarpState& warp,
                          const DecodedInstr& instr) {
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
  if (exec == kFullMask &&
      sts_row(warp, instr, cta.shared.data(), cta.shared.size())) {
    ++warp.pc;
    return TrapKind::kNone;
  }
  return eng.dispatch(cta, warp, instr, exec);
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
    case Handler::kMov:       return h_mov(eng, cta, warp, instr);
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
  }
  return h_generic(eng, cta, warp, instr);  // unreachable
}

}  // namespace gfi::sim::exec
