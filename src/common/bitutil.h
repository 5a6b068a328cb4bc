// Bit-manipulation helpers shared by the ECC codec and the fault injector.
#pragma once

#include <bit>
#include <cmath>
#include <cstring>

#include "common/types.h"

namespace gfi {

/// Flips bit `bit` (0 = LSB) of a 32-bit word.
constexpr u32 flip_bit32(u32 value, u32 bit) {
  return value ^ (1u << (bit & 31));
}

/// Flips bit `bit` (0 = LSB) of a 64-bit word.
constexpr u64 flip_bit64(u64 value, u32 bit) {
  return value ^ (1ULL << (bit & 63));
}

/// Extracts bit `bit` of a 64-bit word as 0/1.
constexpr u32 get_bit64(u64 value, u32 bit) {
  return static_cast<u32>((value >> (bit & 63)) & 1u);
}

/// Number of set bits.
constexpr int popcount64(u64 value) { return std::popcount(value); }

/// Bit-reinterprets float <-> u32 and double <-> u64 (no UB).
inline u32 f32_bits(f32 v) { return std::bit_cast<u32>(v); }
inline f32 bits_f32(u32 b) { return std::bit_cast<f32>(b); }
inline u64 f64_bits(f64 v) { return std::bit_cast<u64>(v); }
inline f64 bits_f64(u64 b) { return std::bit_cast<f64>(b); }

/// Splits a 64-bit value into (lo, hi) 32-bit halves and back.
constexpr u32 lo32(u64 v) { return static_cast<u32>(v); }
constexpr u32 hi32(u64 v) { return static_cast<u32>(v >> 32); }
constexpr u64 make64(u32 lo, u32 hi) {
  return static_cast<u64>(hi) << 32 | lo;
}

/// Canonical quiet-NaN bit patterns, and a canonicalizer for float results.
/// IEEE-754 leaves the payload of a NaN *result* unspecified when an input
/// is NaN, and x86 resolves it by operand position (src1's payload wins) —
/// which the compiler may legally permute per context for commutative ops,
/// so `a + b` on two NaNs is not even stable between two compilations of
/// the same source. Real NVIDIA GPUs sidestep the whole question by
/// returning one canonical NaN (0x7fffffff) from float ops; the executor
/// does the same: every FADD/FMUL/FFMA result is passed through
/// canon_nan(), making NaN arithmetic bit-reproducible across backends,
/// builds, and execution paths (and more faithful to the modeled hardware).
inline constexpr u32 kCanonNanBitsF32 = 0x7fffffffu;
inline constexpr u64 kCanonNanBitsF64 = 0x7ff8000000000000ull;
inline f32 canon_nan(f32 v) {
  return std::isnan(v) ? std::bit_cast<f32>(kCanonNanBitsF32) : v;
}
inline f64 canon_nan(f64 v) {
  return std::isnan(v) ? std::bit_cast<f64>(kCanonNanBitsF64) : v;
}

/// Deterministic float min/max: std::fmin/fmax's NaN-discarding contract
/// with every case the standard leaves unspecified pinned down — ties
/// (including fmin(+0.0, -0.0)) and two-NaN inputs return the FIRST
/// operand, and NaN payloads pass through bit-unchanged. std::fmin itself
/// is not safe for bit-reproducible state: its ±0/NaN tie-breaks are
/// implementation choices, so the same source can legally compile to
/// libm in one context and a minps-style sequence with the opposite
/// tie-break in an auto-vectorized one. These are fully specified at the
/// C++ value level, so every compilation — scalar, auto-vectorized, or
/// the AVX2 simd backend — must produce identical bits. The executor
/// (FMNMX, float atomics), host-side goldens, and common/simd.h all
/// funnel float min/max through these two functions.
template <typename T>
[[nodiscard]] inline T fmin_det(T x, T y) {
  if (y < x) return y;
  return (std::isnan(x) && !std::isnan(y)) ? y : x;
}
template <typename T>
[[nodiscard]] inline T fmax_det(T x, T y) {
  if (x < y) return y;
  return (std::isnan(x) && !std::isnan(y)) ? y : x;
}

/// TF32 rounding: truncates an FP32 mantissa to 10 explicit bits, the input
/// precision of Ampere/Hopper tensor cores in TF32 mode.
inline f32 to_tf32(f32 v) {
  // Round-to-nearest-even on the 13 dropped mantissa bits.
  u32 bits = f32_bits(v);
  const u32 round = ((bits >> 13) & 1u) + 0x0fffu;
  bits = (bits + round) & ~0x1fffu;
  return bits_f32(bits);
}

}  // namespace gfi
