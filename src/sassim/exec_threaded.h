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
// Dispatch backend: GCC/Clang labels-as-values (`&&label` computed goto)
// when available, a portable switch otherwise — selected by the GFI_DISPATCH
// CMake option. Both backends share the same single-sourced handler bodies,
// so they cannot diverge observably; only the indirect-jump mechanics
// differ.
//
// Superinstruction fusion: a fusion head executes in its own scheduler slot
// (issue budget, cycle accounting, watchdog granularity, and profile counts
// are untouched) and additionally precomputes its tail's work into the
// warp's fuse_pc/fuse_mask stash. The tail still occupies its own slot but
// reduces to a stash check when the head just ran; with the stash invalid
// (branch into the tail, a strike on the tail, partial mask at the head) it
// falls back to its unfused handler. Nothing can touch a warp's state
// between its own two consecutive slots on the hook-free path, so a
// matching stash is never stale.
//
// Armed runs (a strike pending, see armed_dispatch) differ in two ways: the
// struck slot itself runs on the instrumented tier after dropping its
// warp's stash, and FFMA-chain heads run unfused, because that head
// computes its tail's result, and a strike on the tail must see (IOV) or
// corrupt the sources of (RF) the tail's own computation.
//
// Everything here is duck-typed over the engine type (templates over
// EngineT/CtaT): Simulator::Engine and Simulator::Cta are private nested
// types of Simulator, reachable only by deduction. The engine provides
// mem/dec/opts, dyn_warp/dyn_thread, count_profile(), fire(), and the
// generic dispatch() the fallbacks delegate to.
#pragma once

#include <bit>

#include "common/types.h"
#include "sassim/decoded.h"
#include "sassim/exec_vec.h"
#include "sassim/trap.h"
#include "sassim/warp.h"

// Backend selection. CMake (GFI_DISPATCH) defines exactly one of
// GFI_DISPATCH_GOTO / GFI_DISPATCH_SWITCH; a bare compile picks computed
// goto when the compiler has labels-as-values.
#if !defined(GFI_DISPATCH_GOTO) && !defined(GFI_DISPATCH_SWITCH)
#if defined(__GNUC__) || defined(__clang__)
#define GFI_DISPATCH_GOTO 1
#else
#define GFI_DISPATCH_SWITCH 1
#endif
#endif

namespace gfi::sim::exec {

/// Compiled dispatch backend, for `gpufi version` / `gpufi status` and the
/// bench metadata (mirrors simd::backend()).
[[nodiscard]] constexpr const char* dispatch_backend() {
#if defined(GFI_DISPATCH_GOTO)
  return "goto";
#else
  return "switch";
#endif
}

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
/// dynamic counts and native profiles cannot drift across tiers — fused or
/// not.
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

/// BRA body, mirroring the generic dispatcher's case exactly.
[[gnu::always_inline]] inline TrapKind bra_body(WarpState& warp,
                                                const DecodedInstr& instr,
                                                u32 exec) {
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

/// LDG row-or-generic body shared by the plain row handler and the fused
/// tail's fallback. `exec` is already accounted.
template <typename EngineT, typename CtaT>
[[gnu::always_inline]] inline TrapKind ldg_row_or_generic(
    EngineT& eng, CtaT& cta, WarpState& warp, const DecodedInstr& instr,
    u32 exec) {
  if (exec == kFullMask && eng.mem.fault_free() &&
      ldg_row(warp, instr, eng.mem)) {
    ++warp.pc;
    return TrapKind::kNone;
  }
  return eng.dispatch(cta, warp, instr, exec);
}

template <typename EngineT, typename CtaT>
[[gnu::always_inline]] inline TrapKind stg_row_or_generic(
    EngineT& eng, CtaT& cta, WarpState& warp, const DecodedInstr& instr,
    u32 exec) {
  if (exec == kFullMask && eng.mem.fault_free() &&
      stg_row(warp, instr, eng.mem)) {
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

template <typename EngineT, typename CtaT>
inline TrapKind h_bra(EngineT& eng, [[maybe_unused]] CtaT& cta,
                      WarpState& warp, const DecodedInstr& instr) {
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
  return bra_body(warp, instr, exec);
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
             [](WarpState& w, const DecodedInstr& i) { (void)vec_isetp(w, i); });
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
  return ldg_row_or_generic(eng, cta, warp, instr, exec);
}

template <typename EngineT, typename CtaT>
inline TrapKind h_stg_row(EngineT& eng, CtaT& cta, WarpState& warp,
                          const DecodedInstr& instr) {
  const u32 exec = exec_mask(warp, instr);
  account(eng, instr, exec);
  return stg_row_or_generic(eng, cta, warp, instr, exec);
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

// ---- fusion heads and tails ------------------------------------------------

template <typename EngineT, typename CtaT>
inline TrapKind h_cmp_bra_head(EngineT& eng, CtaT& cta, WarpState& warp,
                               const DecodedInstr& instr) {
  const u32 exec = warp.active();  // lowering: head is unguarded
  account(eng, instr, exec);
  if (exec != kFullMask) return eng.dispatch(cta, warp, instr, exec);
  const u32 lanes = vec_isetp(warp, instr);
  // The ISETP just wrote the BRA's whole guard row, so the branch guard is
  // exactly these lanes (negated per the tail) masked to the active set.
  const DecodedInstr& tail = eng.dec.at(warp.pc + 1);
  warp.fuse_mask = (tail.guard_negated ? ~lanes : lanes) & warp.active();
  warp.fuse_pc = warp.pc + 1;
  ++warp.pc;
  return TrapKind::kNone;
}

template <typename EngineT, typename CtaT>
inline TrapKind h_bra_fused_tail(EngineT& eng, [[maybe_unused]] CtaT& cta,
                                 WarpState& warp, const DecodedInstr& instr) {
  u32 exec;
  if (warp.fuse_pc == warp.pc) {
    exec = warp.fuse_mask;  // == guard_mask_fast: head wrote the guard row
    warp.fuse_pc = WarpState::kFuseInvalid;
  } else {
    exec = exec_mask(warp, instr);
  }
  account(eng, instr, exec);
  return bra_body(warp, instr, exec);
}

/// Shared IMAD.WIDE fusion head for LDG and STG tails: runs the multiply
/// row and, in the same lane loop, proves the tail's address row aligned
/// and in bounds. The stash is set only when every check passed under an
/// empty fault map — the tail then needs no validation at all.
template <typename EngineT, typename CtaT>
inline TrapKind h_addr_head(EngineT& eng, CtaT& cta, WarpState& warp,
                            const DecodedInstr& instr) {
  const u32 exec = warp.active();  // lowering: head is unguarded
  account(eng, instr, exec);
  if (exec != kFullMask) return eng.dispatch(cta, warp, instr, exec);
  const DecodedInstr& tail = eng.dec.at(warp.pc + 1);
  AddrProbe probe;
  probe.off = tail.src[1].is_imm() ? tail.src[1].imm : 0;
  vec_imad_wide(warp, instr, &probe);
  if (probe.aligned && eng.mem.fault_free() &&
      eng.mem.row_u32_in_bounds(probe.lo, probe.hi)) {
    warp.fuse_mask = 0;
    warp.fuse_pc = warp.pc + 1;
  }
  ++warp.pc;
  return TrapKind::kNone;
}

template <typename EngineT, typename CtaT>
inline TrapKind h_ldg_fused_tail(EngineT& eng, CtaT& cta, WarpState& warp,
                                 const DecodedInstr& instr) {
  const u32 exec = warp.active();  // lowering: tail is unguarded
  account(eng, instr, exec);
  if (warp.fuse_pc == warp.pc) {
    warp.fuse_pc = WarpState::kFuseInvalid;
    ldg_row_fused(warp, instr, eng.mem);
    ++warp.pc;
    return TrapKind::kNone;
  }
  return ldg_row_or_generic(eng, cta, warp, instr, exec);
}

template <typename EngineT, typename CtaT>
inline TrapKind h_stg_fused_tail(EngineT& eng, CtaT& cta, WarpState& warp,
                                 const DecodedInstr& instr) {
  const u32 exec = warp.active();  // lowering: tail is unguarded
  account(eng, instr, exec);
  if (warp.fuse_pc == warp.pc) {
    warp.fuse_pc = WarpState::kFuseInvalid;
    stg_row_fused(warp, instr, eng.mem);
    ++warp.pc;
    return TrapKind::kNone;
  }
  return stg_row_or_generic(eng, cta, warp, instr, exec);
}

template <typename EngineT, typename CtaT>
inline TrapKind h_ffma_chain_head(EngineT& eng, CtaT& cta, WarpState& warp,
                                  const DecodedInstr& instr) {
  const u32 exec = warp.active();  // lowering: head is unguarded
  account(eng, instr, exec);
  if (exec != kFullMask) return eng.dispatch(cta, warp, instr, exec);
  vec_ffma(warp, instr);
  // Run the tail's row kernel now, in program order — its inputs may
  // include this head's destination and vice versa, and no other
  // instruction of this warp can observe the gap. The tail's slot then
  // only consumes the stash.
  vec_ffma(warp, eng.dec.at(warp.pc + 1));
  warp.fuse_mask = 0;
  warp.fuse_pc = warp.pc + 1;
  ++warp.pc;
  return TrapKind::kNone;
}

template <typename EngineT, typename CtaT>
inline TrapKind h_ffma_chain_tail(EngineT& eng, CtaT& cta, WarpState& warp,
                                  const DecodedInstr& instr) {
  const u32 exec = warp.active();  // lowering: tail is unguarded
  account(eng, instr, exec);
  if (warp.fuse_pc == warp.pc) {
    warp.fuse_pc = WarpState::kFuseInvalid;
    ++warp.pc;  // the head's slot already ran this FFMA's row kernel
    return TrapKind::kNone;
  }
  if (exec == kFullMask) {
    vec_ffma(warp, instr);
    ++warp.pc;
    return TrapKind::kNone;
  }
  return eng.dispatch(cta, warp, instr, exec);
}

}  // namespace thr

// X-list of (Handler id, handler function), in exact Handler enum order —
// the computed-goto table is indexed by the raw enum value, so a mismatch
// here would jump to the wrong handler. The static_assert below pins the
// count; keep this list in lockstep with decoded.h.
#define GFI_THREADED_DISPATCH_LIST(X) \
  X(kGeneric, h_generic)              \
  X(kExit, h_exit)                    \
  X(kBra, h_bra)                      \
  X(kSync, h_sync)                    \
  X(kBar, h_bar)                      \
  X(kMov, h_mov)                      \
  X(kSel, h_sel)                      \
  X(kIAdd, h_iadd)                    \
  X(kIMul, h_imul)                    \
  X(kIMad32, h_imad32)                \
  X(kIMadWide, h_imad_wide)           \
  X(kIMnmx, h_imnmx)                  \
  X(kISetp, h_isetp)                  \
  X(kLop, h_lop)                      \
  X(kShf, h_shf)                      \
  X(kPopc, h_popc)                    \
  X(kFArith, h_farith)                \
  X(kFFma, h_ffma)                    \
  X(kFSetp, h_fsetp)                  \
  X(kI2F, h_i2f)                      \
  X(kLdgRow, h_ldg_row)               \
  X(kStgRow, h_stg_row)               \
  X(kLdsRow, h_lds_row)               \
  X(kStsRow, h_sts_row)               \
  X(kCmpBraHead, h_cmp_bra_head)      \
  X(kBraFusedTail, h_bra_fused_tail)  \
  X(kAddrLdgHead, h_addr_head)        \
  X(kLdgFusedTail, h_ldg_fused_tail)  \
  X(kAddrStgHead, h_addr_head)        \
  X(kStgFusedTail, h_stg_fused_tail)  \
  X(kFFmaChainHead, h_ffma_chain_head) \
  X(kFFmaChainTail, h_ffma_chain_tail)

/// One dynamic warp instruction on the threaded tier: direct dispatch on
/// the predecoded handler id. Each handler does its own exec-mask
/// computation and accounting, so fused pairs keep per-instruction counts
/// exact.
template <typename EngineT, typename CtaT>
inline TrapKind threaded_dispatch(EngineT& eng, CtaT& cta, WarpState& warp,
                                  const DecodedInstr& instr) {
#if defined(GFI_DISPATCH_GOTO)
#define GFI_X_LABEL(id, fn) &&lbl_##id,
  static const void* const table[] = {GFI_THREADED_DISPATCH_LIST(GFI_X_LABEL)};
#undef GFI_X_LABEL
  static_assert(sizeof(table) / sizeof(table[0]) == kHandlerCount,
                "dispatch table out of sync with Handler enum");
  goto* table[static_cast<int>(instr.handler)];
#define GFI_X_TARGET(id, fn) \
  lbl_##id : return thr::fn(eng, cta, warp, instr);
  GFI_THREADED_DISPATCH_LIST(GFI_X_TARGET)
#undef GFI_X_TARGET
#else
  switch (instr.handler) {
#define GFI_X_CASE(id, fn) \
  case Handler::id:        \
    return thr::fn(eng, cta, warp, instr);
    GFI_THREADED_DISPATCH_LIST(GFI_X_CASE)
#undef GFI_X_CASE
  }
  return thr::h_generic(eng, cta, warp, instr);  // unreachable
#endif
}

#undef GFI_THREADED_DISPATCH_LIST

/// threaded_dispatch for a run with a strike pending. Whether a chain
/// head's tail will be the struck slot is unknown when the head issues
/// (other warps' eligible issues interleave), so every FFMA-chain head runs
/// as a plain FFMA; its tail then finds no stash and executes itself. The
/// other heads only stash proofs or masks, which the struck slot drops.
template <typename EngineT, typename CtaT>
inline TrapKind armed_dispatch(EngineT& eng, CtaT& cta, WarpState& warp,
                               const DecodedInstr& instr) {
  if (instr.handler == Handler::kFFmaChainHead) {
    return thr::h_ffma(eng, cta, warp, instr);
  }
  return threaded_dispatch(eng, cta, warp, instr);
}

}  // namespace gfi::sim::exec
