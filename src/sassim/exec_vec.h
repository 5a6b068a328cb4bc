// Full-warp row kernels of the threaded tier, over common/simd.h.
//
// The threaded handlers (exec_threaded.h) run these; keeping them here makes
// them directly testable and keeps the SIMD backend swap local to this
// file. Every function runs only on the shapes the caller has proven safe —
// all 32 lanes executing, register/immediate operands only
// (DecodedInstr::vec_srcs), no pending memory faults for the global-memory
// paths — and every lane's arithmetic is expression-identical to the
// generic per-lane switch in Engine::dispatch, so scalar and SIMD builds
// produce bit-identical campaign journals (CI diffs them).
//
// Trap discipline: a memory row kernel proves that no lane can trap before
// it touches any state, and otherwise returns false with nothing touched;
// the generic lane loop then reproduces the exact lane-order trap and
// partial progress.
#pragma once

#include <bit>
#include <cstring>

#include "common/bitutil.h"
#include "common/simd.h"
#include "sassim/decoded.h"
#include "sassim/memory.h"
#include "sassim/warp.h"

namespace gfi::sim::exec {

inline constexpr u32 kRowChunks = kWarpSize / simd::kWidth;

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

}  // namespace detail

// ---------------------------------------------------------------------------
// Register/immediate ALU row kernels
// ---------------------------------------------------------------------------
//
// One kernel per decode-proven op shape, each running all 32 lanes with the
// per-lane operand-kind switches hoisted out of the lane loop and the flat
// 32-element loops lowered onto simd::u32xN / simd::f32xN chunks. Callers
// guarantee the matching Handler's preconditions: every lane executes, no
// source is a predicate (instr.vec_srcs), and the dtype/width restriction
// the lowering pass (decoded.cc, lower_alu) proved when it picked the
// kernel.

inline void vec_mov(WarpState& warp, const DecodedInstr& instr) {
  u32 sink[kWarpSize];
  u32* const dst = detail::dst_row(warp, instr, sink);
  for (u32 q = 0; q < kRowChunks; ++q) {
    detail::vchunk(warp, instr.src[0], q).store(dst + q * simd::kWidth);
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
// Width-4 full-warp memory row paths
// ---------------------------------------------------------------------------

namespace detail {

/// True when every (base_row[l] + off) is 4-byte aligned, batched over the
/// row. Alignment mod 4 depends only on the low 32 address bits, so the
/// 64-bit carry is irrelevant.
inline bool row_aligned4(const u32* base_row, u64 off) {
  using simd::u32xN;
  const u32xN off_lo = u32xN::splat(lo32(off));
  const u32xN three = u32xN::splat(3u);
  u32xN acc = u32xN::splat(0u);
  for (u32 q = 0; q < kRowChunks; ++q) {
    acc = acc | ((u32xN::load(base_row + q * simd::kWidth) + off_lo) & three);
  }
  return mne(acc, u32xN::splat(0u)) == 0;
}

/// Largest base value in a row (for batched shared-memory bounds checks).
inline u32 row_max(const u32* base_row) {
  using simd::u32xN;
  u32xN acc = u32xN::load(base_row);
  for (u32 q = 1; q < kRowChunks; ++q) {
    acc = max_u(acc, u32xN::load(base_row + q * simd::kWidth));
  }
  u32 tmp[simd::kWidth];
  acc.store(tmp);
  u32 m = tmp[0];
  for (u32 l = 1; l < simd::kWidth; ++l) m = m < tmp[l] ? tmp[l] : m;
  return m;
}

}  // namespace detail

/// Full-warp 32-bit global load: register-pair base plus immediate offset,
/// destination written row-wise. Caller guarantees exec == full mask,
/// width 4, a real register base and destination, and mem.fault_free().
/// Alignment and bounds are proven for the whole row up front — the arena
/// is one contiguous extent, so checking the row's min/max addresses covers
/// every lane — and the serviced row then runs with no per-lane checks.
/// Returns false, with nothing touched, for a row that cannot be proven
/// safe.
inline bool ldg_row(WarpState& warp, const DecodedInstr& instr,
                    const GlobalMemory& mem) {
  const u32* alo = warp.row(instr.src[0].index);
  const u32* ahi = warp.row(static_cast<u16>(instr.src[0].index + 1));
  const u64 off = instr.src[1].is_imm() ? instr.src[1].imm : 0;
  if (!detail::row_aligned4(alo, off)) return false;
  u64 addrs[kWarpSize];
  u64 lo = ~u64{0};
  u64 hi = 0;
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    const u64 addr = make64(alo[lane], ahi[lane]) + off;
    addrs[lane] = addr;
    lo = addr < lo ? addr : lo;
    hi = addr > hi ? addr : hi;
  }
  if (!mem.row_u32_in_bounds(lo, hi)) return false;
  u32* d = warp.row(instr.dst_index);
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    d[lane] = mem.read_u32_raw(addrs[lane]);
  }
  return true;
}

/// Matching full-warp 32-bit global store (value row src[2]).
inline bool stg_row(WarpState& warp, const DecodedInstr& instr,
                    GlobalMemory& mem) {
  const u32* alo = warp.row(instr.src[0].index);
  const u32* ahi = warp.row(static_cast<u16>(instr.src[0].index + 1));
  const u64 off = instr.src[1].is_imm() ? instr.src[1].imm : 0;
  if (!detail::row_aligned4(alo, off)) return false;
  u64 addrs[kWarpSize];
  u64 lo = ~u64{0};
  u64 hi = 0;
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    const u64 addr = make64(alo[lane], ahi[lane]) + off;
    addrs[lane] = addr;
    lo = addr < lo ? addr : lo;
    hi = addr > hi ? addr : hi;
  }
  if (!mem.row_u32_in_bounds(lo, hi)) return false;
  const u32* v = warp.row(instr.src[2].index);
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    mem.write_u32_raw(addrs[lane], v[lane]);
  }
  return true;
}

/// Full-warp 32-bit shared load. Alignment and bounds are both provable up
/// front (shared memory is one flat extent), so the serviced row runs with
/// no per-lane checks at all; any potential trap returns false untouched.
inline bool lds_row(WarpState& warp, const DecodedInstr& instr,
                    const u8* shared, std::size_t shared_size) {
  const u32* a = warp.row(instr.src[0].index);
  const u64 off = instr.src[1].is_imm() ? instr.src[1].imm : 0;
  if (!detail::row_aligned4(a, off)) return false;
  const u64 max_addr = static_cast<u64>(detail::row_max(a)) + off;
  if (max_addr + 4 > shared_size) return false;
  u32* d = warp.row(instr.dst_index);
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    std::memcpy(&d[lane], shared + a[lane] + off, 4);
  }
  return true;
}

/// Matching full-warp 32-bit shared store (value row src[2]).
inline bool sts_row(WarpState& warp, const DecodedInstr& instr,
                    u8* shared, std::size_t shared_size) {
  const u32* a = warp.row(instr.src[0].index);
  const u64 off = instr.src[1].is_imm() ? instr.src[1].imm : 0;
  if (!detail::row_aligned4(a, off)) return false;
  const u64 max_addr = static_cast<u64>(detail::row_max(a)) + off;
  if (max_addr + 4 > shared_size) return false;
  const u32* v = warp.row(instr.src[2].index);
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    std::memcpy(shared + a[lane] + off, &v[lane], 4);
  }
  return true;
}

}  // namespace gfi::sim::exec
