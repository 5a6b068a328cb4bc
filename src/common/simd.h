// Fixed-width SIMD abstraction for the warp-execution fast paths.
//
// The execution core's full-warp loops (src/sassim/exec_vec.h) operate on
// contiguous 32-lane register rows (WarpState::row). This header gives them
// a kWidth-lane vector type with exactly two implementations:
//
//  - scalar: plain arrays + loops, always compiled, always correct. The
//    semantics reference: every other backend must match it bit-for-bit.
//  - avx2: <immintrin.h> intrinsics, compiled only when the GFI_SIMD CMake
//    option selects it (and the compiler agrees via __AVX2__).
//
// The selected backend is aliased as simd::u32xN / simd::f32xN; the scalar
// backend stays reachable as simd::scalar::* so tests can assert per-op
// agreement inside a single binary.
//
// Bit-identity contract: campaign journals must not depend on the backend.
// Integer ops are exact and IEEE-754 basic ops (+, *, fused fma, i32->f32
// conversion, ordered/unordered compares) are exactly rounded, so vector
// and scalar execution agree bit-for-bit by construction. The two places
// where x86 vector semantics diverge from scalar C++ are handled inside
// the abstraction: float min/max implement gfi::fmin_det/fmax_det
// (common/bitutil.h) — std::fmin's NaN-discarding contract with its
// unspecified ±0/NaN tie-breaks pinned to "first operand", because raw
// _mm256_min_ps/_mm256_max_ps (and the minps sequences auto-vectorizers
// emit for std::fmin) take the SECOND operand on ties — and shift counts
// are masked to the low five bits inside shl/shr/sar, matching the
// executor's `n & 31` idiom (AVX2 variable shifts would otherwise zero
// the lane at counts >= 32). One caveat is NaN *results* of +/*/fma:
// x86 propagates src1's payload and compilers may commute the operands,
// so raw payloads are not stable even between two compilations of the
// same scalar source — the executor therefore canonicalizes every
// FADD/FMUL/FFMA result through canon_nan() (gfi::canon_nan, bitutil.h),
// as the modeled GPUs themselves do.
#pragma once

#include <cmath>
#include <cstring>

#include "common/bitutil.h"
#include "common/types.h"

#if defined(GFI_SIMD_AVX2) && defined(__AVX2__)
#include <immintrin.h>
#define GFI_SIMD_ACTIVE_AVX2 1
#endif

namespace gfi::simd {

/// Lanes per vector. Identical in every backend so loop shapes (and
/// therefore trap ordering and partial-progress behavior) never vary.
inline constexpr u32 kWidth = 8;

// ---------------------------------------------------------------------------
// Scalar backend: the semantics reference.
// ---------------------------------------------------------------------------

namespace scalar {

struct u32xN {
  u32 v[kWidth];

  static u32xN load(const u32* p) {
    u32xN r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  static u32xN splat(u32 x) {
    u32xN r;
    for (u32 l = 0; l < kWidth; ++l) r.v[l] = x;
    return r;
  }
  void store(u32* p) const { std::memcpy(p, v, sizeof(v)); }
  [[nodiscard]] u32 lane(u32 i) const { return v[i]; }
};

inline u32xN operator+(u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] += b.v[l];
  return a;
}
inline u32xN operator-(u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] -= b.v[l];
  return a;
}
inline u32xN operator*(u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] *= b.v[l];
  return a;
}
inline u32xN operator&(u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] &= b.v[l];
  return a;
}
inline u32xN operator|(u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] |= b.v[l];
  return a;
}
inline u32xN operator^(u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] ^= b.v[l];
  return a;
}
inline u32xN operator~(u32xN a) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] = ~a.v[l];
  return a;
}

/// Shifts take per-lane counts; only the low five bits are consulted,
/// mirroring the executor's `count & 31`.
inline u32xN shl(u32xN a, u32xN n) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] <<= (n.v[l] & 31u);
  return a;
}
inline u32xN shr(u32xN a, u32xN n) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] >>= (n.v[l] & 31u);
  return a;
}
inline u32xN sar(u32xN a, u32xN n) {
  for (u32 l = 0; l < kWidth; ++l) {
    a.v[l] = static_cast<u32>(static_cast<i32>(a.v[l]) >> (n.v[l] & 31u));
  }
  return a;
}

inline u32xN min_u(u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] = a.v[l] < b.v[l] ? a.v[l] : b.v[l];
  return a;
}
inline u32xN max_u(u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] = a.v[l] < b.v[l] ? b.v[l] : a.v[l];
  return a;
}
inline u32xN min_s(u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) {
    a.v[l] = static_cast<i32>(a.v[l]) < static_cast<i32>(b.v[l]) ? a.v[l]
                                                                 : b.v[l];
  }
  return a;
}
inline u32xN max_s(u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) {
    a.v[l] = static_cast<i32>(a.v[l]) < static_cast<i32>(b.v[l]) ? b.v[l]
                                                                 : a.v[l];
  }
  return a;
}

/// Per-lane all-ones/all-zero mask; `select` keeps a where set, b where
/// clear. The building block for Sel and the float NaN fixups.
inline u32xN ceq(u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] = a.v[l] == b.v[l] ? ~0u : 0u;
  return a;
}
inline u32xN select(u32xN m, u32xN a, u32xN b) {
  for (u32 l = 0; l < kWidth; ++l) {
    a.v[l] = (a.v[l] & m.v[l]) | (b.v[l] & ~m.v[l]);
  }
  return a;
}

// Compare-to-lanemask: bit l of the result is the lane-l comparison. These
// feed ISETP and the guard machinery, which think in lane bitmasks.
inline u32 meq(u32xN a, u32xN b) {
  u32 m = 0;
  for (u32 l = 0; l < kWidth; ++l) m |= (a.v[l] == b.v[l] ? 1u : 0u) << l;
  return m;
}
inline u32 mne(u32xN a, u32xN b) {
  u32 m = 0;
  for (u32 l = 0; l < kWidth; ++l) m |= (a.v[l] != b.v[l] ? 1u : 0u) << l;
  return m;
}
inline u32 mlt_u(u32xN a, u32xN b) {
  u32 m = 0;
  for (u32 l = 0; l < kWidth; ++l) m |= (a.v[l] < b.v[l] ? 1u : 0u) << l;
  return m;
}
inline u32 mle_u(u32xN a, u32xN b) {
  u32 m = 0;
  for (u32 l = 0; l < kWidth; ++l) m |= (a.v[l] <= b.v[l] ? 1u : 0u) << l;
  return m;
}
inline u32 mgt_u(u32xN a, u32xN b) { return mlt_u(b, a); }
inline u32 mge_u(u32xN a, u32xN b) { return mle_u(b, a); }
inline u32 mlt_s(u32xN a, u32xN b) {
  u32 m = 0;
  for (u32 l = 0; l < kWidth; ++l) {
    m |= (static_cast<i32>(a.v[l]) < static_cast<i32>(b.v[l]) ? 1u : 0u) << l;
  }
  return m;
}
inline u32 mle_s(u32xN a, u32xN b) {
  u32 m = 0;
  for (u32 l = 0; l < kWidth; ++l) {
    m |= (static_cast<i32>(a.v[l]) <= static_cast<i32>(b.v[l]) ? 1u : 0u) << l;
  }
  return m;
}
inline u32 mgt_s(u32xN a, u32xN b) { return mlt_s(b, a); }
inline u32 mge_s(u32xN a, u32xN b) { return mle_s(b, a); }

struct f32xN {
  f32 v[kWidth];

  /// Rows hold raw bit patterns; load/store reinterpret, never convert.
  static f32xN load(const u32* bits) {
    f32xN r;
    std::memcpy(r.v, bits, sizeof(r.v));
    return r;
  }
  static f32xN splat_bits(u32 bits) {
    f32xN r;
    for (u32 l = 0; l < kWidth; ++l) r.v[l] = bits_f32(bits);
    return r;
  }
  void store(u32* bits) const { std::memcpy(bits, v, sizeof(v)); }
  [[nodiscard]] u32 lane_bits(u32 i) const { return f32_bits(v[i]); }
};

inline f32xN operator+(f32xN a, f32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] += b.v[l];
  return a;
}
inline f32xN operator*(f32xN a, f32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] *= b.v[l];
  return a;
}
inline f32xN fma(f32xN a, f32xN b, f32xN c) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] = std::fmaf(a.v[l], b.v[l], c.v[l]);
  return a;
}
/// gfi::fmin_det/fmax_det semantics (bitutil.h: NaN-discarding, ties and
/// two-NaN cases take the first operand) in every backend; see the header
/// comment for why this is never a raw x86 min_ps/max_ps.
inline f32xN fmin_det(f32xN a, f32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] = gfi::fmin_det(a.v[l], b.v[l]);
  return a;
}
inline f32xN fmax_det(f32xN a, f32xN b) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] = gfi::fmax_det(a.v[l], b.v[l]);
  return a;
}
/// Replaces NaN lanes with the canonical quiet NaN (gfi::canon_nan); the
/// executor applies this to every FADD/FMUL/FFMA result.
inline f32xN canon_nan(f32xN a) {
  for (u32 l = 0; l < kWidth; ++l) a.v[l] = gfi::canon_nan(a.v[l]);
  return a;
}
inline f32xN cvt_i32(u32xN a) {
  f32xN r;
  for (u32 l = 0; l < kWidth; ++l) {
    r.v[l] = static_cast<f32>(static_cast<i32>(a.v[l]));
  }
  return r;
}

inline u32 meq(f32xN a, f32xN b) {
  u32 m = 0;
  for (u32 l = 0; l < kWidth; ++l) m |= (a.v[l] == b.v[l] ? 1u : 0u) << l;
  return m;
}
inline u32 mne(f32xN a, f32xN b) {
  u32 m = 0;
  for (u32 l = 0; l < kWidth; ++l) m |= (a.v[l] != b.v[l] ? 1u : 0u) << l;
  return m;
}
inline u32 mlt(f32xN a, f32xN b) {
  u32 m = 0;
  for (u32 l = 0; l < kWidth; ++l) m |= (a.v[l] < b.v[l] ? 1u : 0u) << l;
  return m;
}
inline u32 mle(f32xN a, f32xN b) {
  u32 m = 0;
  for (u32 l = 0; l < kWidth; ++l) m |= (a.v[l] <= b.v[l] ? 1u : 0u) << l;
  return m;
}
inline u32 mgt(f32xN a, f32xN b) { return mlt(b, a); }
inline u32 mge(f32xN a, f32xN b) { return mle(b, a); }

/// Bit `bit` of each of 32 consecutive bytes, packed into a u32 lanemask
/// (byte i -> bit i). The predicate-file primitive behind guard_mask_fast.
inline u32 testbit_mask32(const u8* bytes, u32 bit) {
  u32 raw = 0;
  for (u32 q = 0; q < 4; ++q) {
    u64 chunk;
    std::memcpy(&chunk, bytes + q * 8, 8);
    // Low bit of each byte -> one mask bit per lane, carry-free.
    const u64 bits = (chunk >> bit) & 0x0101010101010101ull;
    raw |= static_cast<u32>((bits * 0x0102040810204080ull) >> 56) << (q * 8);
  }
  return raw;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 backend.
// ---------------------------------------------------------------------------

#ifdef GFI_SIMD_ACTIVE_AVX2

namespace avx2 {

struct u32xN {
  __m256i raw;

  static u32xN load(const u32* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static u32xN splat(u32 x) {
    return {_mm256_set1_epi32(static_cast<int>(x))};
  }
  void store(u32* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), raw);
  }
  [[nodiscard]] u32 lane(u32 i) const {
    u32 tmp[kWidth];
    store(tmp);
    return tmp[i];
  }
};

inline u32xN operator+(u32xN a, u32xN b) {
  return {_mm256_add_epi32(a.raw, b.raw)};
}
inline u32xN operator-(u32xN a, u32xN b) {
  return {_mm256_sub_epi32(a.raw, b.raw)};
}
inline u32xN operator*(u32xN a, u32xN b) {
  return {_mm256_mullo_epi32(a.raw, b.raw)};
}
inline u32xN operator&(u32xN a, u32xN b) {
  return {_mm256_and_si256(a.raw, b.raw)};
}
inline u32xN operator|(u32xN a, u32xN b) {
  return {_mm256_or_si256(a.raw, b.raw)};
}
inline u32xN operator^(u32xN a, u32xN b) {
  return {_mm256_xor_si256(a.raw, b.raw)};
}
inline u32xN operator~(u32xN a) {
  return {_mm256_xor_si256(a.raw, _mm256_set1_epi32(-1))};
}

inline u32xN shl(u32xN a, u32xN n) {
  const __m256i c = _mm256_and_si256(n.raw, _mm256_set1_epi32(31));
  return {_mm256_sllv_epi32(a.raw, c)};
}
inline u32xN shr(u32xN a, u32xN n) {
  const __m256i c = _mm256_and_si256(n.raw, _mm256_set1_epi32(31));
  return {_mm256_srlv_epi32(a.raw, c)};
}
inline u32xN sar(u32xN a, u32xN n) {
  const __m256i c = _mm256_and_si256(n.raw, _mm256_set1_epi32(31));
  return {_mm256_srav_epi32(a.raw, c)};
}

inline u32xN min_u(u32xN a, u32xN b) {
  return {_mm256_min_epu32(a.raw, b.raw)};
}
inline u32xN max_u(u32xN a, u32xN b) {
  return {_mm256_max_epu32(a.raw, b.raw)};
}
inline u32xN min_s(u32xN a, u32xN b) {
  return {_mm256_min_epi32(a.raw, b.raw)};
}
inline u32xN max_s(u32xN a, u32xN b) {
  return {_mm256_max_epi32(a.raw, b.raw)};
}

inline u32xN ceq(u32xN a, u32xN b) {
  return {_mm256_cmpeq_epi32(a.raw, b.raw)};
}
inline u32xN select(u32xN m, u32xN a, u32xN b) {
  return {_mm256_blendv_epi8(b.raw, a.raw, m.raw)};
}

inline u32 movemask(__m256i m) {
  return static_cast<u32>(_mm256_movemask_ps(_mm256_castsi256_ps(m)));
}
inline u32 meq(u32xN a, u32xN b) {
  return movemask(_mm256_cmpeq_epi32(a.raw, b.raw));
}
inline u32 mne(u32xN a, u32xN b) {
  return meq(a, b) ^ ((1u << kWidth) - 1u);
}
inline u32 mgt_s(u32xN a, u32xN b) {
  return movemask(_mm256_cmpgt_epi32(a.raw, b.raw));
}
inline u32 mlt_s(u32xN a, u32xN b) { return mgt_s(b, a); }
inline u32 mle_s(u32xN a, u32xN b) {
  return mgt_s(a, b) ^ ((1u << kWidth) - 1u);
}
inline u32 mge_s(u32xN a, u32xN b) { return mle_s(b, a); }
/// Unsigned compares: bias both operands by 0x80000000 and compare signed.
inline u32 mgt_u(u32xN a, u32xN b) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  return movemask(_mm256_cmpgt_epi32(_mm256_xor_si256(a.raw, bias),
                                     _mm256_xor_si256(b.raw, bias)));
}
inline u32 mlt_u(u32xN a, u32xN b) { return mgt_u(b, a); }
inline u32 mle_u(u32xN a, u32xN b) {
  return mgt_u(a, b) ^ ((1u << kWidth) - 1u);
}
inline u32 mge_u(u32xN a, u32xN b) { return mle_u(b, a); }

struct f32xN {
  __m256 raw;

  static f32xN load(const u32* bits) {
    return {_mm256_loadu_ps(reinterpret_cast<const float*>(bits))};
  }
  static f32xN splat_bits(u32 bits) {
    return {_mm256_set1_ps(bits_f32(bits))};
  }
  void store(u32* bits) const {
    _mm256_storeu_ps(reinterpret_cast<float*>(bits), raw);
  }
  [[nodiscard]] u32 lane_bits(u32 i) const {
    u32 tmp[kWidth];
    store(tmp);
    return tmp[i];
  }
};

inline f32xN operator+(f32xN a, f32xN b) {
  return {_mm256_add_ps(a.raw, b.raw)};
}
inline f32xN operator*(f32xN a, f32xN b) {
  return {_mm256_mul_ps(a.raw, b.raw)};
}
inline f32xN fma(f32xN a, f32xN b, f32xN c) {
#ifdef __FMA__
  return {_mm256_fmadd_ps(a.raw, b.raw, c.raw)};
#else
  // Correctly-rounded fused multiply-add either way; the intrinsic is just
  // the fast spelling when the target has FMA3.
  f32 av[kWidth], bv[kWidth], cv[kWidth];
  _mm256_storeu_ps(av, a.raw);
  _mm256_storeu_ps(bv, b.raw);
  _mm256_storeu_ps(cv, c.raw);
  for (u32 l = 0; l < kWidth; ++l) av[l] = std::fmaf(av[l], bv[l], cv[l]);
  return {_mm256_loadu_ps(av)};
#endif
}
/// gfi::fmin_det as compares + blend: take b when b < a, or when a is the
/// only NaN; otherwise keep a (ties and two-NaN cases keep the first
/// operand, payloads untouched). A raw min_ps would take the second
/// operand on ties and NaN — the opposite tie-break.
inline f32xN fmin_det(f32xN a, f32xN b) {
  const __m256 a_nan = _mm256_cmp_ps(a.raw, a.raw, _CMP_UNORD_Q);
  const __m256 b_num = _mm256_cmp_ps(b.raw, b.raw, _CMP_ORD_Q);
  const __m256 take_b = _mm256_or_ps(_mm256_cmp_ps(b.raw, a.raw, _CMP_LT_OQ),
                                     _mm256_and_ps(a_nan, b_num));
  return {_mm256_blendv_ps(a.raw, b.raw, take_b)};
}
inline f32xN fmax_det(f32xN a, f32xN b) {
  const __m256 a_nan = _mm256_cmp_ps(a.raw, a.raw, _CMP_UNORD_Q);
  const __m256 b_num = _mm256_cmp_ps(b.raw, b.raw, _CMP_ORD_Q);
  const __m256 take_b = _mm256_or_ps(_mm256_cmp_ps(b.raw, a.raw, _CMP_GT_OQ),
                                     _mm256_and_ps(a_nan, b_num));
  return {_mm256_blendv_ps(a.raw, b.raw, take_b)};
}
inline f32xN canon_nan(f32xN a) {
  const __m256 is_nan = _mm256_cmp_ps(a.raw, a.raw, _CMP_UNORD_Q);
  const __m256 canon = _mm256_castsi256_ps(_mm256_set1_epi32(
      static_cast<i32>(kCanonNanBitsF32)));
  return {_mm256_blendv_ps(a.raw, canon, is_nan)};
}
inline f32xN cvt_i32(u32xN a) { return {_mm256_cvtepi32_ps(a.raw)}; }

inline u32 movemask(__m256 m) {
  return static_cast<u32>(_mm256_movemask_ps(m));
}
inline u32 meq(f32xN a, f32xN b) {
  return movemask(_mm256_cmp_ps(a.raw, b.raw, _CMP_EQ_OQ));
}
inline u32 mne(f32xN a, f32xN b) {
  return movemask(_mm256_cmp_ps(a.raw, b.raw, _CMP_NEQ_UQ));
}
inline u32 mlt(f32xN a, f32xN b) {
  return movemask(_mm256_cmp_ps(a.raw, b.raw, _CMP_LT_OQ));
}
inline u32 mle(f32xN a, f32xN b) {
  return movemask(_mm256_cmp_ps(a.raw, b.raw, _CMP_LE_OQ));
}
inline u32 mgt(f32xN a, f32xN b) {
  return movemask(_mm256_cmp_ps(a.raw, b.raw, _CMP_GT_OQ));
}
inline u32 mge(f32xN a, f32xN b) {
  return movemask(_mm256_cmp_ps(a.raw, b.raw, _CMP_GE_OQ));
}

inline u32 testbit_mask32(const u8* bytes, u32 bit) {
  const __m256i chunk =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes));
  const __m256i sel = _mm256_set1_epi8(static_cast<char>(1u << bit));
  const __m256i hit = _mm256_cmpeq_epi8(_mm256_and_si256(chunk, sel), sel);
  return static_cast<u32>(_mm256_movemask_epi8(hit));
}

}  // namespace avx2

namespace active = avx2;

#else

namespace active = scalar;

#endif  // GFI_SIMD_ACTIVE_AVX2

using u32xN = active::u32xN;
using f32xN = active::f32xN;
using active::testbit_mask32;

/// Name of the compiled backend, for --version / status / bench artifacts.
/// A build whose compiler did not actually deliver __AVX2__ reports "off"
/// no matter what was requested, because that is the code path that will
/// run.
constexpr const char* backend() {
#ifdef GFI_SIMD_ACTIVE_AVX2
  return "avx2";
#else
  return "off";
#endif
}

}  // namespace gfi::simd
