// Row kernels of the threaded tier, over common/simd.h.
//
// The threaded handlers (exec_threaded.h) run these; keeping them here makes
// them directly testable and keeps the SIMD backend swap local to this
// file. Every lane's arithmetic is expression-identical to the generic
// per-lane switch in Engine::dispatch, so scalar and SIMD builds produce
// bit-identical campaign journals (CI diffs them). S2R's thread indices are
// the one exception: one division per row, then stepped lane by lane, which
// yields the same values.
//
// ALU kernels compute all 32 lanes of their destination row(s) from
// register/immediate operands only (DecodedInstr::vec_srcs). They cannot
// trap and write nothing but their destination rows or predicate bits, so
// thr::alu runs them under any exec mask and then puts back the lanes that
// do not execute.
//
// Memory kernels take the exec mask and touch only its lanes. Trap
// discipline: a memory row kernel proves that no executing lane can trap
// before it touches any state, and otherwise returns false with nothing
// touched; the generic lane loop then reproduces the exact lane-order trap
// and partial progress. The global-memory kernels also need a fault-free
// arena (no pending upset to classify), which the caller checks. The shared
// atomic kernel applies its lanes one at a time in lane order, through the
// update the generic loop uses too (atom_apply).
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bitutil.h"
#include "common/simd.h"
#include "sassim/decoded.h"
#include "sassim/memory.h"
#include "sassim/warp.h"

namespace gfi::sim::exec {

inline constexpr u32 kRowChunks = kWarpSize / simd::kWidth;
inline constexpr u32 kFullMask = 0xffffffffu;

namespace detail {

/// Integer compare over one 8-lane chunk, producing a lane bitmask; the
/// (CmpOp, signedness) dispatch mirrors int_compare() in the engine.
inline u32 isetp_mask(CmpOp cmp, bool is_signed, simd::u32xN a,
                      simd::u32xN b) {
  if (is_signed) {
    switch (cmp) {
      case CmpOp::kLt: return mlt_s(a, b);
      case CmpOp::kLe: return mle_s(a, b);
      case CmpOp::kGt: return mgt_s(a, b);
      case CmpOp::kGe: return mge_s(a, b);
      case CmpOp::kEq: return meq(a, b);
      case CmpOp::kNe: return mne(a, b);
    }
    return 0;
  }
  switch (cmp) {
    case CmpOp::kLt: return mlt_u(a, b);
    case CmpOp::kLe: return mle_u(a, b);
    case CmpOp::kGt: return mgt_u(a, b);
    case CmpOp::kGe: return mge_u(a, b);
    case CmpOp::kEq: return meq(a, b);
    case CmpOp::kNe: return mne(a, b);
  }
  return 0;
}

/// Float compare over one chunk; same result as fp_compare() per lane
/// (ordered quiet <, <=, >, >=, ==; unordered !=).
inline u32 fsetp_mask(CmpOp cmp, simd::f32xN a, simd::f32xN b) {
  switch (cmp) {
    case CmpOp::kLt: return mlt(a, b);
    case CmpOp::kLe: return mle(a, b);
    case CmpOp::kGt: return mgt(a, b);
    case CmpOp::kGe: return mge(a, b);
    case CmpOp::kEq: return meq(a, b);
    case CmpOp::kNe: return mne(a, b);
  }
  return 0;
}

/// Source chunk q of operand `o`: one contiguous row load or a broadcast
/// immediate (RZ and kNone read as 0, matching read_operand).
inline simd::u32xN vchunk(WarpState& warp, const DecodedOperand& o, u32 q) {
  if (o.kind == OperandKind::kReg && o.index != kRegZ) {
    return simd::u32xN::load(warp.row(o.index) + q * simd::kWidth);
  }
  return simd::u32xN::splat(o.kind == OperandKind::kImm ? lo32(o.imm) : 0u);
}

inline simd::f32xN fchunk(WarpState& warp, const DecodedOperand& o, u32 q) {
  if (o.kind == OperandKind::kReg && o.index != kRegZ) {
    return simd::f32xN::load(warp.row(o.index) + q * simd::kWidth);
  }
  return simd::f32xN::splat_bits(o.kind == OperandKind::kImm ? lo32(o.imm)
                                                             : 0u);
}

/// Writes to RZ are dropped: they land in the caller's sink row instead.
inline u32* dst_row(WarpState& warp, const DecodedInstr& instr, u32* sink) {
  return instr.dst_index != kRegZ ? warp.row(instr.dst_index) : sink;
}

/// What RZ reads as, a row at a time.
inline constexpr u32 kZeroRow[kWarpSize] = {};

/// Row `half` (0 or 1) of the register (pair) `r`; RZ, as a register or a
/// pair base, reads as zeros.
inline const u32* src_row(const WarpState& warp, u16 r, u16 half = 0) {
  return r != kRegZ ? warp.row(static_cast<u16>(r + half)) : kZeroRow;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Register/immediate ALU row kernels
// ---------------------------------------------------------------------------
//
// One kernel per decode-proven op shape, each running all 32 lanes with the
// per-lane operand-kind switches hoisted out of the lane loop and the flat
// 32-element loops lowered onto simd::u32xN / simd::f32xN chunks. Callers
// guarantee the matching Handler's preconditions: no source is a predicate
// (instr.vec_srcs), and the dtype/width restriction the lowering pass
// (decoded.cc, lower_one) proved when it picked the kernel. Lane l reads
// only lane l of its sources, so a destination that aliases a source is
// safe, and the lanes outside an exec mask can be put back afterwards.

inline void vec_mov(WarpState& warp, const DecodedInstr& instr) {
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  for (u32 q = 0; q < kRowChunks; ++q) {
    detail::vchunk(warp, instr.src[0], q).store(dst + q * simd::kWidth);
  }
}

/// `value` broadcast into the destination row, or the pair when the op is
/// wide (LDC's kernel parameter, a 64-bit MOV's immediate).
inline void vec_broadcast(WarpState& warp, const DecodedInstr& instr,
                          u64 value) {
  if (instr.dst_index == kRegZ) return;
  u32* dlo = warp.row(instr.dst_index);
  for (u32 l = 0; l < kWarpSize; ++l) dlo[l] = lo32(value);
  if (!instr.wide) return;
  u32* dhi = warp.row(static_cast<u16>(instr.dst_index + 1));
  for (u32 l = 0; l < kWarpSize; ++l) dhi[l] = hi32(value);
}

/// 64-bit MOV: a register pair (RZ reads as 0) or a 64-bit immediate into
/// the destination pair. Per lane, both halves are read before either is
/// written, so overlapping pairs (R5:R6 <- R4:R5) copy like the generic loop.
inline void vec_mov64(WarpState& warp, const DecodedInstr& instr) {
  const DecodedOperand& o = instr.src[0];
  if (o.kind != OperandKind::kReg) {
    vec_broadcast(warp, instr, o.kind == OperandKind::kImm ? o.imm : 0);
    return;
  }
  if (instr.dst_index == kRegZ) return;
  const u32* slo = detail::src_row(warp, o.index);
  const u32* shi = detail::src_row(warp, o.index, 1);
  u32* dlo = warp.row(instr.dst_index);
  u32* dhi = warp.row(static_cast<u16>(instr.dst_index + 1));
  for (u32 l = 0; l < kWarpSize; ++l) {
    const u32 lo = slo[l];
    const u32 hi = shi[l];
    dlo[l] = lo;
    dhi[l] = hi;
  }
}

/// S2R: special register `instr.sub` of every lane, from the launch shape
/// and the warp's CTA. The thread-index registers are special_value()'s
/// (lin % x, lin / x % y, lin / (x * y)) of the warp's linear thread ids
/// lin = base + l: the divisions run once for lane 0, and each further lane
/// steps the triple by one thread with carries, so no block shape pays a
/// division per lane.
inline void vec_s2r(WarpState& warp, const DecodedInstr& instr, Dim3 block,
                    Dim3 grid, Dim3 ctaid) {
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  const u32 base = warp.warp_in_cta() * kWarpSize;
  const auto sr = static_cast<SpecialReg>(instr.sub);
  auto fill = [dst](u32 v) {
    for (u32 l = 0; l < kWarpSize; ++l) dst[l] = v;
  };
  switch (sr) {
    case SpecialReg::kTidX:
    case SpecialReg::kTidY:
    case SpecialReg::kTidZ: {
      u32 tid[3] = {base % block.x, (base / block.x) % block.y,
                    base / (block.x * block.y)};
      const u32 k = static_cast<u32>(sr) - static_cast<u32>(SpecialReg::kTidX);
      for (u32 l = 0; l < kWarpSize; ++l) {
        dst[l] = tid[k];
        if (++tid[0] == block.x) {
          tid[0] = 0;
          if (++tid[1] == block.y) {
            tid[1] = 0;
            ++tid[2];
          }
        }
      }
      return;
    }
    case SpecialReg::kCtaidX: return fill(ctaid.x);
    case SpecialReg::kCtaidY: return fill(ctaid.y);
    case SpecialReg::kCtaidZ: return fill(ctaid.z);
    case SpecialReg::kNtidX: return fill(block.x);
    case SpecialReg::kNtidY: return fill(block.y);
    case SpecialReg::kNtidZ: return fill(block.z);
    case SpecialReg::kNctaidX: return fill(grid.x);
    case SpecialReg::kNctaidY: return fill(grid.y);
    case SpecialReg::kNctaidZ: return fill(grid.z);
    case SpecialReg::kLaneId:
      for (u32 l = 0; l < kWarpSize; ++l) dst[l] = l;
      return;
    case SpecialReg::kWarpId: return fill(warp.warp_in_cta());
  }
}

inline void vec_sel(WarpState& warp, const DecodedInstr& instr) {
  using simd::u32xN;
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  const DecodedOperand& oc = instr.src[2];
  if (oc.kind == OperandKind::kReg && oc.index != kRegZ) {
    for (u32 q = 0; q < kRowChunks; ++q) {
      // take a where c != 0, b where c == 0
      const u32xN zero_mask =
          ceq(detail::vchunk(warp, oc, q), u32xN::splat(0));
      select(zero_mask, detail::vchunk(warp, instr.src[1], q),
             detail::vchunk(warp, instr.src[0], q))
          .store(dst + q * simd::kWidth);
    }
    return;
  }
  // Constant selector: the generic path tests the full 64-bit immediate,
  // so do the same once and copy the chosen source.
  const int chosen = (oc.kind == OperandKind::kImm && oc.imm != 0) ? 0 : 1;
  for (u32 q = 0; q < kRowChunks; ++q) {
    detail::vchunk(warp, instr.src[chosen], q).store(dst + q * simd::kWidth);
  }
}

inline void vec_iadd(WarpState& warp, const DecodedInstr& instr) {
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  for (u32 q = 0; q < kRowChunks; ++q) {
    (detail::vchunk(warp, instr.src[0], q) +
     detail::vchunk(warp, instr.src[1], q))
        .store(dst + q * simd::kWidth);
  }
}

inline void vec_imul(WarpState& warp, const DecodedInstr& instr) {
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  for (u32 q = 0; q < kRowChunks; ++q) {
    (detail::vchunk(warp, instr.src[0], q) *
     detail::vchunk(warp, instr.src[1], q))
        .store(dst + q * simd::kWidth);
  }
}

inline void vec_imad32(WarpState& warp, const DecodedInstr& instr) {
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  for (u32 q = 0; q < kRowChunks; ++q) {
    (detail::vchunk(warp, instr.src[0], q) *
         detail::vchunk(warp, instr.src[1], q) +
     detail::vchunk(warp, instr.src[2], q))
        .store(dst + q * simd::kWidth);
  }
}

/// IMAD.WIDE: 32x32 product into a 64-bit accumulator, spread over a
/// register-pair row each for C and D. Stays a scalar row loop: the
/// widening/interleaved u64 dance costs more in AVX2 shuffles than the
/// multiply saves, and exactness is free either way.
inline void vec_imad_wide(WarpState& warp, const DecodedInstr& instr) {
  const DecodedOperand& oa = instr.src[0];
  const DecodedOperand& ob = instr.src[1];
  u32 scratch_a[kWarpSize];
  u32 scratch_b[kWarpSize];
  auto row_or_splat = [&](const DecodedOperand& o, u32* scratch) {
    if (o.kind == OperandKind::kReg && o.index != kRegZ) {
      return static_cast<const u32*>(warp.row(o.index));
    }
    const u32 v = o.kind == OperandKind::kImm ? lo32(o.imm) : 0u;
    for (u32 l = 0; l < kWarpSize; ++l) scratch[l] = v;
    return static_cast<const u32*>(scratch);
  };
  const u32* a = row_or_splat(oa, scratch_a);
  const u32* b = row_or_splat(ob, scratch_b);
  const DecodedOperand& oc = instr.src[2];
  u32 clo_s[kWarpSize];
  u32 chi_s[kWarpSize];
  const u32* clo;
  const u32* chi;
  if (oc.kind == OperandKind::kReg && oc.index != kRegZ) {
    clo = warp.row(oc.index);
    chi = warp.row(static_cast<u16>(oc.index + 1));
  } else {
    const u64 v = oc.kind == OperandKind::kImm ? oc.imm : 0;
    for (u32 l = 0; l < kWarpSize; ++l) {
      clo_s[l] = lo32(v);
      chi_s[l] = hi32(v);
    }
    clo = clo_s;
    chi = chi_s;
  }
  if (instr.dst_index == kRegZ) return;
  u32* dlo = warp.row(instr.dst_index);
  u32* dhi = warp.row(static_cast<u16>(instr.dst_index + 1));
  for (u32 l = 0; l < kWarpSize; ++l) {
    const u64 r = static_cast<u64>(a[l]) * b[l] + make64(clo[l], chi[l]);
    dlo[l] = lo32(r);
    dhi[l] = hi32(r);
  }
}

inline void vec_imnmx(WarpState& warp, const DecodedInstr& instr) {
  using simd::u32xN;
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  const bool want_min = instr.sub == static_cast<u8>(MinMax::kMin);
  const bool is_signed = instr.dtype == DType::kS32;
  for (u32 q = 0; q < kRowChunks; ++q) {
    const u32xN a = detail::vchunk(warp, instr.src[0], q);
    const u32xN b = detail::vchunk(warp, instr.src[1], q);
    u32xN r = a;
    if (is_signed) {
      r = want_min ? min_s(a, b) : max_s(a, b);
    } else {
      r = want_min ? min_u(a, b) : max_u(a, b);
    }
    r.store(dst + q * simd::kWidth);
  }
}

/// Writes the full predicate row.
inline void vec_isetp(WarpState& warp, const DecodedInstr& instr) {
  const auto cmp = static_cast<CmpOp>(instr.sub);
  const bool is_signed = instr.dtype == DType::kS32;
  u32 lanes = 0;
  for (u32 q = 0; q < kRowChunks; ++q) {
    lanes |= detail::isetp_mask(cmp, is_signed,
                                detail::vchunk(warp, instr.src[0], q),
                                detail::vchunk(warp, instr.src[1], q))
             << (q * simd::kWidth);
  }
  warp.set_pred_row(static_cast<u8>(instr.dst_index), lanes);
}

inline void vec_lop(WarpState& warp, const DecodedInstr& instr) {
  using simd::u32xN;
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  for (u32 q = 0; q < kRowChunks; ++q) {
    const u32xN a = detail::vchunk(warp, instr.src[0], q);
    u32xN r = a;
    switch (static_cast<LopKind>(instr.sub)) {
      case LopKind::kAnd: r = a & detail::vchunk(warp, instr.src[1], q); break;
      case LopKind::kOr: r = a | detail::vchunk(warp, instr.src[1], q); break;
      case LopKind::kXor: r = a ^ detail::vchunk(warp, instr.src[1], q); break;
      case LopKind::kNot: r = ~a; break;
    }
    r.store(dst + q * simd::kWidth);
  }
}

inline void vec_shf(WarpState& warp, const DecodedInstr& instr) {
  using simd::u32xN;
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  for (u32 q = 0; q < kRowChunks; ++q) {
    const u32xN a = detail::vchunk(warp, instr.src[0], q);
    const u32xN n = detail::vchunk(warp, instr.src[1], q);
    u32xN r = a;
    switch (static_cast<ShiftKind>(instr.sub)) {
      case ShiftKind::kLeft: r = shl(a, n); break;
      case ShiftKind::kRightLogical: r = shr(a, n); break;
      case ShiftKind::kRightArith: r = sar(a, n); break;
    }
    r.store(dst + q * simd::kWidth);
  }
}

inline void vec_popc(WarpState& warp, const DecodedInstr& instr) {
  // No packed 32-bit popcount in AVX2; the scalar loop is already one
  // popcnt per lane.
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  u32 scratch[kWarpSize];
  const DecodedOperand& oa = instr.src[0];
  const u32* a;
  if (oa.kind == OperandKind::kReg && oa.index != kRegZ) {
    a = warp.row(oa.index);
  } else {
    const u32 v = oa.kind == OperandKind::kImm ? lo32(oa.imm) : 0u;
    for (u32 l = 0; l < kWarpSize; ++l) scratch[l] = v;
    a = scratch;
  }
  for (u32 l = 0; l < kWarpSize; ++l) {
    dst[l] = static_cast<u32>(std::popcount(a[l]));
  }
}

/// f32 FADD / FMUL / FMNMX (selected by instr.op).
inline void vec_farith(WarpState& warp, const DecodedInstr& instr) {
  using simd::f32xN;
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  const bool want_min = instr.sub == static_cast<u8>(MinMax::kMin);
  for (u32 q = 0; q < kRowChunks; ++q) {
    const f32xN a = detail::fchunk(warp, instr.src[0], q);
    const f32xN b = detail::fchunk(warp, instr.src[1], q);
    f32xN r = a;
    // canon_nan on +/* results mirrors the generic loop (bitutil.h:
    // NaN payloads are otherwise compilation-dependent); FMNMX's
    // fmin_det/fmax_det pass operand bits through unchanged.
    if (instr.op == Opcode::kFAdd) {
      r = canon_nan(a + b);
    } else if (instr.op == Opcode::kFMul) {
      r = canon_nan(a * b);
    } else {
      r = want_min ? fmin_det(a, b) : fmax_det(a, b);
    }
    r.store(dst + q * simd::kWidth);
  }
}

inline void vec_ffma(WarpState& warp, const DecodedInstr& instr) {
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  for (u32 q = 0; q < kRowChunks; ++q) {
    canon_nan(fma(detail::fchunk(warp, instr.src[0], q),
                  detail::fchunk(warp, instr.src[1], q),
                  detail::fchunk(warp, instr.src[2], q)))
        .store(dst + q * simd::kWidth);
  }
}

inline void vec_fsetp(WarpState& warp, const DecodedInstr& instr) {
  const auto cmp = static_cast<CmpOp>(instr.sub);
  u32 lanes = 0;
  for (u32 q = 0; q < kRowChunks; ++q) {
    lanes |= detail::fsetp_mask(cmp, detail::fchunk(warp, instr.src[0], q),
                                detail::fchunk(warp, instr.src[1], q))
             << (q * simd::kWidth);
  }
  warp.set_pred_row(static_cast<u8>(instr.dst_index), lanes);
}

inline void vec_i2f(WarpState& warp, const DecodedInstr& instr) {
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  for (u32 q = 0; q < kRowChunks; ++q) {
    cvt_i32(detail::vchunk(warp, instr.src[0], q))
        .store(dst + q * simd::kWidth);
  }
}

// ---------------------------------------------------------------------------
// Width-4 memory row paths
// ---------------------------------------------------------------------------

namespace detail {

/// Runs `body(lane)` for every lane of `exec` in ascending order: a plain
/// loop for the full mask, a bit scan otherwise. Both the global and the
/// shared row paths go through it, proof and access alike; the full-mask
/// loop is worth about 4% of campaign_bench iov-mix injections per second
/// over the bit scan alone (4-core x86 host, AVX2).
template <typename Body>
[[gnu::always_inline]] inline void for_lanes(u32 exec, Body&& body) {
  if (exec == kFullMask) {
    for (u32 lane = 0; lane < kWarpSize; ++lane) body(lane);
    return;
  }
  for (u32 rest = exec; rest != 0; rest &= rest - 1) {
    body(static_cast<u32>(std::countr_zero(rest)));
  }
}

/// Addresses of the executing lanes of a width-4 global access (register-
/// pair base plus immediate offset) into `addrs`, proven aligned and in
/// bounds for every lane of `exec` (nonzero). The arena is one contiguous
/// extent, so the min/max address of the executing lanes covers them all.
/// False when any executing lane could trap.
inline bool global_row_addrs(const WarpState& warp, const DecodedInstr& instr,
                             const GlobalMemory& mem, u32 exec,
                             u64 (&addrs)[kWarpSize]) {
  const u32* alo = src_row(warp, instr.src[0].index);
  const u32* ahi = src_row(warp, instr.src[0].index, 1);
  const u64 off = instr.src[1].is_imm() ? instr.src[1].imm : 0;
  u64 lo = ~u64{0};
  u64 hi = 0;
  u64 misaligned = 0;
  for_lanes(exec, [&](u32 lane) {
    const u64 addr = make64(alo[lane], ahi[lane]) + off;
    addrs[lane] = addr;
    misaligned |= addr & 3u;
    lo = addr < lo ? addr : lo;
    hi = addr > hi ? addr : hi;
  });
  return misaligned == 0 && mem.row_u32_in_bounds(lo, hi);
}

/// True when every executing lane's shared address (base row `a` plus the
/// immediate offset) is 4-byte aligned and in bounds. Shared memory is one
/// flat extent, so the largest base covers every lane.
inline bool shared_row_ok(const u32* a, u64 off, u32 exec,
                          std::size_t shared_size) {
  u32 max = 0;
  u32 misaligned = 0;
  for_lanes(exec, [&](u32 lane) {
    misaligned |= (a[lane] + lo32(off)) & 3u;
    max = max < a[lane] ? a[lane] : max;
  });
  if (misaligned != 0) return false;
  const u64 max_addr = static_cast<u64>(max) + off;
  return max_addr + 4 <= shared_size;
}

}  // namespace detail

/// 32-bit global load of the lanes in `exec`: register-pair base plus
/// immediate offset, destination written for those lanes only. Caller
/// guarantees exec != 0, width 4, register base and destination (RZ reads
/// as 0 and drops writes), and mem.fault_free(). Returns false, with
/// nothing touched, for a row that cannot be proven trap-free.
inline bool ldg_row(WarpState& warp, const DecodedInstr& instr,
                    const GlobalMemory& mem, u32 exec) {
  u64 addrs[kWarpSize];
  if (!detail::global_row_addrs(warp, instr, mem, exec, addrs)) return false;
  u32 sink[kWarpSize];
  u32* d = detail::dst_row(warp, instr, sink);
  detail::for_lanes(exec,
                    [&](u32 lane) { d[lane] = mem.read_u32_raw(addrs[lane]); });
  return true;
}

/// Matching 32-bit global store (value row src[2]), in lane order.
inline bool stg_row(WarpState& warp, const DecodedInstr& instr,
                    GlobalMemory& mem, u32 exec) {
  u64 addrs[kWarpSize];
  if (!detail::global_row_addrs(warp, instr, mem, exec, addrs)) return false;
  const u32* v = detail::src_row(warp, instr.src[2].index);
  detail::for_lanes(
      exec, [&](u32 lane) { mem.write_u32_raw(addrs[lane], v[lane]); });
  return true;
}

/// 32-bit shared load of the lanes in `exec` (nonzero). Alignment and
/// bounds are proven up front, so the serviced row runs with no per-lane
/// checks at all; any potential trap returns false untouched.
inline bool lds_row(WarpState& warp, const DecodedInstr& instr,
                    const u8* shared, std::size_t shared_size, u32 exec) {
  const u32* a = detail::src_row(warp, instr.src[0].index);
  const u64 off = instr.src[1].is_imm() ? instr.src[1].imm : 0;
  if (!detail::shared_row_ok(a, off, exec, shared_size)) return false;
  u32 sink[kWarpSize];
  u32* d = detail::dst_row(warp, instr, sink);
  detail::for_lanes(exec, [&](u32 lane) {
    std::memcpy(&d[lane], shared + a[lane] + off, 4);
  });
  return true;
}

/// Matching 32-bit shared store (value row src[2]), in lane order.
inline bool sts_row(WarpState& warp, const DecodedInstr& instr, u8* shared,
                    std::size_t shared_size, u32 exec) {
  const u32* a = detail::src_row(warp, instr.src[0].index);
  const u64 off = instr.src[1].is_imm() ? instr.src[1].imm : 0;
  if (!detail::shared_row_ok(a, off, exec, shared_size)) return false;
  const u32* v = detail::src_row(warp, instr.src[2].index);
  detail::for_lanes(exec, [&](u32 lane) {
    std::memcpy(shared + a[lane] + off, &v[lane], 4);
  });
  return true;
}

/// The word an atomic of `kind` leaves in place of `old`, given operand
/// `a` (and `b`, CAS's swap value), for a 32-bit dtype.
[[gnu::always_inline]] inline u32 atom_apply(AtomKind kind, DType dtype,
                                             u32 old, u32 a, u32 b) {
  switch (kind) {
    case AtomKind::kAdd:
      return dtype == DType::kF32
                 ? f32_bits(canon_nan(bits_f32(old) + bits_f32(a)))
                 : old + a;
    case AtomKind::kMin:
      if (dtype == DType::kF32) {
        return f32_bits(fmin_det(bits_f32(old), bits_f32(a)));
      }
      if (dtype == DType::kS32) {
        return static_cast<u32>(
            std::min(static_cast<i32>(old), static_cast<i32>(a)));
      }
      return std::min(old, a);
    case AtomKind::kMax:
      if (dtype == DType::kF32) {
        return f32_bits(fmax_det(bits_f32(old), bits_f32(a)));
      }
      if (dtype == DType::kS32) {
        return static_cast<u32>(
            std::max(static_cast<i32>(old), static_cast<i32>(a)));
      }
      return std::max(old, a);
    case AtomKind::kExch:
      return a;
    case AtomKind::kCas:
      return old == a ? b : old;
  }
  return old;
}

/// Shared-memory atomic of the lanes in `exec`, one lane at a time in lane
/// order, so lanes that hit one word see each other's updates; each lane
/// gets the old word in its destination (RZ drops it). Caller guarantees
/// width 4, a register address and register/immediate operands of a
/// 32-bit dtype. Returns false, with nothing touched, for a row that
/// cannot be proven trap-free.
inline bool atoms_row(WarpState& warp, const DecodedInstr& instr, u8* shared,
                      std::size_t shared_size, u32 exec) {
  const u32* a = detail::src_row(warp, instr.src[0].index);
  if (!detail::shared_row_ok(a, 0, exec, shared_size)) return false;
  auto operand = [&](const DecodedOperand& o, u32 lane) -> u32 {
    switch (o.kind) {
      case OperandKind::kReg: return warp.reg(lane, o.index);
      case OperandKind::kImm: return static_cast<u32>(o.imm);
      default: return 0;
    }
  };
  const auto kind = static_cast<AtomKind>(instr.sub);
  detail::for_lanes(exec, [&](u32 lane) {
    const u32 addr = a[lane];
    u32 old = 0;
    std::memcpy(&old, shared + addr, 4);
    const u32 updated =
        atom_apply(kind, instr.dtype, old, operand(instr.src[1], lane),
                   operand(instr.src[2], lane));
    std::memcpy(shared + addr, &updated, 4);
    if (instr.dst_kind == OperandKind::kReg && instr.dst_index != kRegZ) {
      warp.set_reg(lane, instr.dst_index, old);
    }
  });
  return true;
}

}  // namespace gfi::sim::exec
